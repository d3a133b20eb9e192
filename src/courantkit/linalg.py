"""Fraction-free linear algebra over the coefficient ring.

Matrices hold exact ring elements.  vec_mat is the one vector-matrix
product; mat_mul reads a product through it one row at a time.  rref is the
one elimination routine: rank, nullspace, span membership (Echelon.reduce)
and invert all read its echelon.  Elimination
uses cross-multiplication so no step ever leaves the ring; only invert
divides, to bring its result back into the ring.  Each row a step makes is
summed in one ring.Accumulator and read once as a primitive row: divided by
its rational content and common monomial, each coefficient built once from
the raw sums (Accumulator.primitive; input rows go through normalize_row, the
same read).  That division is legitimate over the fraction field: the
verdicts (rank, span membership, nullspace) are *generic*, valid off the
vanishing locus of the recorded pivots and stripped factors.  The `excluded`
list returned alongside each verdict names those factors.

rref records each pivot as it chooses it and each monomial it strips; a
reduction (Echelon.reduce) records only the monomials it strips, since every
final pivot already vanishes only where a recorded factor does.  Say row k is
chosen at column c_k with pivot p_k.  Each later step t that eliminates row
k, at a column c_t with chosen pivot p_t, replaces row k by (p_t row_k -
row_k[c_t] row_t) / (gamma_t m_t), gamma_t the constant and m_t the monomial
it strips.  Row t is zero at c_k: step k made every row but k zero there,
and each later step s replaces a row by a combination of it and row s,
itself zero there by induction on s.  So the entry at c_k becomes p_t
row_k[c_k] / (gamma_t m_t).  Steps that leave row k alone change nothing,
and at its choice the entry was p_k, so the final pivot of row k satisfies

    pivot_k * prod_t gamma_t m_t = p_k * prod_t p_t.

Where pivot_k vanishes, so does the right side, hence some chosen pivot and
so one of its recorded canonical factors: pivot_k is nonzero wherever no
recorded factor vanishes (this is the bookkeeping behind Bareiss's
fraction-free elimination, Math. Comp. 22, 1968).

An excluded list is a locus of texts: each element noted in it goes through
the one helper canonical_factors (ring.py, which owns the term format), and
the text of each canonical factor is listed once, in first-seen order, as it
is noted.  One zero set thus has one text, whatever unit, exponential
monomial or constant its pivots carry, and a coordinate monomial is listed
as its variables.  Noting and merging (merged_locus) live here alone.
"""

from __future__ import annotations

from itertools import product

from .ring import Accumulator, RingSignature, canonical_factors, coerce_elem, normalize_row


class LinalgError(ValueError):
    pass


def coerce_matrix(sig: RingSignature, rows) -> list:
    out = [[coerce_elem(sig, x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise LinalgError("ragged matrix")
    return out


def identity(sig: RingSignature, n: int) -> list:
    return [
        [sig.one() if i == j else sig.zero() for j in range(n)] for i in range(n)
    ]


def vec_mat(v, M, n, a=None) -> list:
    """a(v) + v M for a nonempty row vector v, a matrix M of n columns (none if
    None) and a coordinate derivation a applied entrywise (none if None),
    summed in one Accumulator, slot c for entry c.  A zero entry of v or of M
    adds nothing."""
    acc = Accumulator(v[0].sig)
    if a is not None:
        for c, x in enumerate(v):
            acc.add_derivation(a, x, 1, c)
    for vb, row in zip(v, M or ()):
        if vb.terms:
            for c, t in enumerate(row):
                if t.terms:
                    acc.add_product(vb, t, 1, c)
    return acc.vector(n)


def mat_mul(sig: RingSignature, A, B) -> list:
    if not B:
        return [[] for _ in A]
    if A and len(A[0]) != len(B):
        raise LinalgError("shape mismatch in product")
    return [vec_mat(row, B, len(B[0])) for row in A]


class Echelon:
    """Result of a fraction-free Gauss-Jordan pass: row k < rank has its pivot
    in column pivots[k], and that column is zero in every other row."""

    __slots__ = ("sig", "rows", "pivots", "excluded")

    def __init__(self, sig, rows, pivots, excluded):
        self.sig = sig
        self.rows = rows
        self.pivots = pivots  # pivot column of each nonzero row, in order
        self.excluded = excluded

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v, locus) -> tuple:
        """Generic span membership of v in the row space, with a residual witness.

        Returns (in_span, residual): residual is v reduced against the echelon
        rows (scaled by nonzero pivots), so a nonzero residual certifies v
        outside the span over the fraction field.  The caller's locus list
        starts as a copy of self.excluded, off which every pivot is nonzero
        (module docstring), and the reduction records in it only the
        monomials it strips; callers that reduce many vectors pass one list.
        """
        vec = [coerce_elem(self.sig, x) for x in v]
        for row, c in zip(self.rows, self.pivots):
            if not vec[c].is_zero():
                vec = _eliminate(vec, row, c, locus)
        return all(x.is_zero() for x in vec), vec


def _note_excluded(excluded, elem):
    """Note the texts of elem's canonical factors in the locus list excluded,
    each once; None and constants add nothing."""
    if elem is not None and not elem.is_constant():
        excluded.extend(f for f in map(str, canonical_factors(elem)) if f not in excluded)


def merged_locus(*loci) -> list:
    """One sorted excluded list from the loci of several generic verdicts."""
    return sorted(set().union(*loci))


def _eliminate(row, prow, col, excluded) -> list:
    """p*row - row[col]*prow for the pivot p = prow[col], normalised.

    The row is one Accumulator, slot k for entry k, read as a primitive row.
    Entry col is p*c - c*p = 0 for c = row[col], so its slot is never reached
    and reads as zero: a step makes one product per nonzero entry of row and
    of prow outside the pivot column.
    """
    p, c = prow[col], row[col]
    acc = Accumulator(p.sig)
    for k, (a, b) in enumerate(zip(row, prow)):
        if k == col:
            continue
        if a.terms:
            acc.add_product(p, a, 1, k)
        if b.terms:
            acc.add_product(c, b, -1, k)
    out, witness = acc.primitive(len(row))
    _note_excluded(excluded, witness)
    return out


def rref(sig: RingSignature, M) -> Echelon:
    """Fraction-free reduced echelon form over the fraction field."""
    excluded: list = []
    rows = []
    for row in coerce_matrix(sig, M):
        row, witness = normalize_row(row)
        _note_excluded(excluded, witness)
        rows.append(row)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        # sparsest nonzero pivot keeps intermediate swell down
        best = None
        for r in range(prow, nrows):
            e = rows[r][col]
            if e.is_zero():
                continue
            size = len(e.terms)
            if best is None or size < best[0]:
                best = (size, r)
        if best is None:
            continue
        r = best[1]
        rows[prow], rows[r] = rows[r], rows[prow]
        _note_excluded(excluded, rows[prow][col])
        for r2 in range(nrows):
            if r2 != prow and not rows[r2][col].is_zero():
                rows[r2] = _eliminate(rows[r2], rows[prow], col, excluded)
        pivots.append(col)
        prow += 1
    return Echelon(sig, rows, pivots, excluded)


def rank(sig: RingSignature, M) -> tuple:
    ech = rref(sig, M)
    return ech.rank, ech.excluded


def nullspace(sig: RingSignature, M) -> tuple:
    """Denominator-cleared basis of the right nullspace.

    Each basis vector is scaled by the product of all pivots; its entry in a
    pivot column is then that pivot's cofactor (the product of the other
    pivots), so no division is needed.
    """
    M = coerce_matrix(sig, M)
    if not M:
        return [], []
    ncols = len(M[0])
    ech = rref(sig, M)
    free_cols = [c for c in range(ncols) if c not in ech.pivots]
    if not free_cols:
        return [], ech.excluded
    pivots = [row[c] for row, c in zip(ech.rows, ech.pivots)]
    # cofactor k = (product of pivots before k) * (product of pivots after k)
    before = [sig.one()]
    for p in pivots[:-1]:
        before.append(before[-1] * p)
    cofactors = [sig.one()] * len(pivots)
    prod = sig.one()
    for k in reversed(range(len(pivots))):
        cofactors[k] = before[k] * prod
        prod = prod * pivots[k]
    basis = []
    for f in free_cols:
        acc = Accumulator(sig)
        acc.add(prod, 1, f)
        for row, c, q in zip(ech.rows, ech.pivots, cofactors):
            if row[f].terms:
                acc.add_product(row[f], q, -1, c)
        basis.append(acc.primitive(ncols)[0])
    return basis, ech.excluded


def invert(sig: RingSignature, M) -> list:
    """Exact inverse with entries in the ring; raises if singular or non-integral."""
    M = coerce_matrix(sig, M)
    n = len(M)
    if any(len(r) != n for r in M):
        raise LinalgError("inverse of a non-square matrix")
    aug = [row + unit for row, unit in zip(M, identity(sig, n))]
    ech = rref(sig, aug)
    # nonsingular iff the left block holds n pivots, in columns 0..n-1
    if ech.pivots[:n] != list(range(n)):
        raise LinalgError("matrix is singular")
    out = [[x.exact_div(row[k]) for x in row[n:]] for k, row in enumerate(ech.rows)]
    if any(q is None for qs in out for q in qs):
        raise LinalgError("inverse entries do not lie in the ring")
    return out


def polynomial_kernel(sig: RingSignature, max_degree: int, width: int, image) -> list:
    """Width-vectors of polynomials of bounded degree killed by a linear map.

    The unknowns are the coefficients of each coordinate monomial of total
    degree at most max_degree in each of the width slots.  image(b, m) gives
    the image of the monomial m placed in slot b as (key, ring element)
    pairs; each monomial of each such element is one linear equation.  The
    map may raise polynomial degree, so the cut-off applies to the unknowns
    only and every output lies exactly in the kernel.
    """
    monos = sorted(
        m for m in product(range(max_degree + 1), repeat=sig.ncoords) if sum(m) <= max_degree
    )
    unknowns = [(sig.monomial(m), b) for m in monos for b in range(width)]
    # (key, monomial) -> its equation's row, in first-reached order; the
    # equations are one Accumulator at (row, unknown)
    eqs: dict = {}
    acc = Accumulator(sig)
    for col, (mono, b) in enumerate(unknowns):
        for key, elem in image(b, mono):
            for mkey, coeff in elem.terms.items():
                row = eqs.setdefault((key, mkey), len(eqs))
                acc.add(sig.const(coeff), 1, (row, col))
    rows = [[acc.elem((row, col)) for col in range(len(unknowns))] for row in range(len(eqs))]
    sols = nullspace(sig, rows)[0] if rows else identity(sig, len(unknowns))
    out = []
    for sol in sols:
        vec = Accumulator(sig)
        for c, (mono, b) in zip(sol, unknowns):
            vec.add_product(c, mono, 1, b)
        out.append(vec.vector(width))
    return out
