"""Orthogonal complex structures on the reduced pairing bundle.

A distribution inside the base algebroid is presented by an adapted frame:
an invertible matrix of sections whose first h rows span the distribution.
The reduced bundle then has the basis (X_1..X_h, u (x) D^1..u (x) D^h), where
the D^a are the dual rows of the adapted frame.  The pairing is the split form
[[0, 1], [1, 0]] on that basis by construction (the D^a are rows of the exact
inverse of the frame, so <X_a, D^b> = delta_ab), so nothing checks or builds
it on the way to a verdict; HBundle.pairing_matrix computes it for reference.

An endomorphism J of the reduced bundle is admissible when J^2 = -1 and J
preserves the pairing; its +i eigenspace, lifted back and padded with the
annihilator covectors, is a complex subbundle handed to the Dirac checker, so
"valid" means exactly "the lifted eigenspace is involutive and Lagrangian".

The bivector attached to an admissible J pairs two module covectors through
J and lives one grade down; on the contact fixtures its pieces recover the
Jacobi pair after splitting off the suspension direction.
"""

from __future__ import annotations

from . import linalg
from .algebroid import Algebroid
from .courant import CourantPresentation, CSection, _combine
from .dirac import _dirac
from .exterior import AForm, FScalar, Multivector, contract
from .linalg import LinalgError
from .ring import GR_I, coerce_elem
from .schouten import _d_function, bivector_from_matrix, tilde


class GCRError(ValueError):
    pass


class Distribution:
    """A subbundle of the base algebroid, presented by an adapted frame."""

    __slots__ = ("alg", "frame", "h", "inverse")

    def __init__(self, alg: Algebroid, frame, h: int):
        self.alg = alg
        rows = linalg.coerce_matrix(alg.sig, frame)
        if len(rows) != alg.rank or any(len(r) != alg.rank for r in rows):
            raise GCRError("adapted frame must be square of the algebroid rank")
        if not 0 < h <= alg.rank:
            raise GCRError("distribution rank out of range")
        self.frame = tuple(tuple(r) for r in rows)
        self.h = h
        try:
            self.inverse = tuple(
                tuple(r) for r in linalg.invert(alg.sig, rows)
            )
        except LinalgError as exc:
            raise GCRError(f"adapted frame is not invertible over the ring: {exc}")

    def h_rows(self) -> list:
        return [list(self.frame[a]) for a in range(self.h)]

    def dual_row(self, a: int) -> list:
        """Covector row with dual_row(a) . frame(b) = delta_ab."""
        return [self.inverse[k][a] for k in range(self.alg.rank)]

    def ann_rows(self) -> list:
        """Covectors annihilating the distribution: the trailing dual rows."""
        return [self.dual_row(a) for a in range(self.h, self.alg.rank)]

    def vector_section(self, a: int) -> list:
        return list(self.frame[a])


def full_distribution(alg: Algebroid) -> Distribution:
    return Distribution(alg, linalg.identity(alg.sig, alg.rank), alg.rank)


class HBundle:
    """Reduced bundle of a distribution: lifts of H plus the dual covectors."""

    __slots__ = ("C", "dist")

    def __init__(self, C: CourantPresentation, dist: Distribution):
        if C.alg.rank_v != 1:
            raise GCRError("reduction needs a rank-one module")
        if dist.alg is not C.alg:
            raise GCRError("distribution lives over a different presentation")
        self.C = C
        self.dist = dist

    @property
    def h(self) -> int:
        return self.dist.h

    def basis_sections(self) -> list:
        """2h sections: lifted distribution frame, then dual covectors."""
        alg = self.C.alg
        zero = [alg.sig.zero()] * alg.rank
        out = [CSection(alg, self.dist.vector_section(a)) for a in range(self.h)]
        for a in range(self.h):
            out.append(CSection.from_coordinates(alg, zero + self.dist.dual_row(a)))
        return out

    def pairing_matrix(self) -> list:
        basis = self.basis_sections()
        return [[self.C.pairing(a, b)[0] for b in basis] for a in basis]


def build_H_bundle(C: CourantPresentation, dist: Distribution) -> HBundle:
    return HBundle(C, dist)


class GCRStructure:
    """Candidate orthogonal complex structure on the reduced bundle."""

    __slots__ = ("hb", "j")

    def __init__(self, hb: HBundle, j):
        self.hb = hb
        rows = linalg.coerce_matrix(hb.C.alg.sig, j)
        n = 2 * hb.h
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GCRError("endomorphism matrix must be 2h x 2h")
        self.j = tuple(tuple(r) for r in rows)


def _first_nonzero(rows, shift, c):
    """First nonzero entry, in row-major order, of the matrix whose rows are
    given, plus c on the entries with |i - j| == shift, as ((i, j), value),
    or None."""
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if abs(i - j) == shift:
                e = e + c
            if e.terms:
                return (i, j), e
    return None


def _square_plus_one(sig, M):
    """First nonzero entry of M^2 + 1 as ((i, j), value), or None."""
    n = len(M)
    return _first_nonzero((linalg.vec_mat(row, M, n) for row in M), 0, sig.one())


def j_square_defect(S: GCRStructure):
    """First nonzero entry of J^2 + 1, or None."""
    return _square_plus_one(S.hb.C.alg.sig, S.j)


def orthogonality_defect(S: GCRStructure):
    """First nonzero entry of J^T G J - G over the split pairing G.

    G = [[0, 1], [1, 0]] in h x h blocks swaps the two row blocks of J, so
    row i of J^T (G J) is column i of J times J[h:] + J[:h], and no Gram
    matrix is built.
    """
    h, J = S.hb.h, S.j
    GJ = J[h:] + J[:h]
    rows = (linalg.vec_mat(col, GJ, 2 * h) for col in zip(*J))
    return _first_nonzero(rows, h, -S.hb.C.alg.sig.one())


def l_generators(S: GCRStructure) -> list:
    """The +i eigenspace, lifted, plus the annihilator covectors."""
    alg = S.hb.C.alg
    sig = alg.sig
    if sig.mode != "gaussian":
        raise GCRError("eigenspace construction needs gaussian coefficients")
    n = 2 * S.hb.h
    # J - i*1: i comes off the diagonal only, every other entry is J's own
    ii = coerce_elem(sig, GR_I)
    rows = [list(row) for row in S.j]
    for a in range(n):
        rows[a][a] = rows[a][a] - ii
    vectors, _ = linalg.nullspace(sig, rows)
    # each eigenvector is 2h reduced coordinates on this one basis
    basis = S.hb.basis_sections()
    gens = [_combine(alg, [(b, 1, c) for b, c in zip(basis, vec) if c.terms]) for vec in vectors]
    zero = [sig.zero()] * alg.rank
    for row in S.hb.dist.ann_rows():
        gens.append(CSection.from_coordinates(alg, zero + row))
    return gens


def _gj_antisymmetric(S: GCRStructure) -> bool:
    """Whether G J = [J[h:]; J[:h]] is antisymmetric: n(n + 1)/2 entry sums,
    on and above the diagonal, in place of orthogonality_defect's product
    once J^2 = -1 (validate_gcr's docstring)."""
    h = S.hb.h
    GJ = S.j[h:] + S.j[:h]
    return not any(
        (GJ[a][b] + GJ[b][a]).terms for a in range(2 * h) for b in range(a, 2 * h)
    )


def validate_gcr(S: GCRStructure) -> dict:
    """Full verdict: algebraic conditions, then the lifted-eigenspace checks.

    When the algebraic conditions hold, report["l_generators"] holds the
    generators that the Dirac and conjugate-intersection checks ran on.

    Orthogonality.  With G^2 = 1 and G^T = G, (G J + (G J)^T) J = G J^2 +
    J^T G J, which is J^T G J - G once J^2 = -1.  J is then invertible, so J
    preserves the pairing iff G J is antisymmetric, and only a G J that is not
    computes orthogonality_defect, which gives the witness.

    The conjugate span.  The Dirac checks eliminate the generator matrix G to
    its echelon E (see the dirac module docstring): off the locus of G's
    excluded factors, E = T G with T invertible.  Conjugating coefficients is
    a ring automorphism, so conj(E) = conj(T) conj(G), and at a real point p,
    where every coordinate and exponential generator takes a real value,
    conj(f)(p) = conj(f(p)): conj(T)(p) is invertible wherever T(p) is.  So
    the rows of E and of conj(E) span [G; conj(G)] wherever G's factors do not
    vanish.  Each conjugate row reduces against E to a residual, which
    differs from a nonzero multiple of it by a combination of E's rows, so
    [E; R], R the nonzero residuals, spans the same rows.  R is zero in every
    pivot column of E, and each pivot column of E is zero outside its own
    row, so a combination a E + b R = 0 has a = 0 there: rank [G; conj(G)]
    = rank E + rank R.  Only R, at most m rows, is eliminated, and the
    locus gains the factors of the reductions and of R's echelon.
    """
    report: dict = {"ok": False}
    sq = j_square_defect(S)
    report["j_square_ok"] = sq is None
    if sq is not None:
        report["j_square_witness"] = {"entry": list(sq[0]), "value": str(sq[1])}
    orth = orthogonality_defect(S) if sq is not None or not _gj_antisymmetric(S) else None
    report["orthogonal_ok"] = orth is None
    if orth is not None:
        report["orthogonal_witness"] = {"entry": list(orth[0]), "value": str(orth[1])}
    if sq is not None or orth is not None:
        report["dirac_skipped"] = True
        return report
    gens = l_generators(S)
    report["l_generators"] = gens
    dirac_ok, dirac_report, ech, _ = _dirac(S.hb.C, gens)
    report["lagrangian_ok"] = dirac_report["lagrangian"]
    report["involutive_ok"] = dirac_report["involutive"]
    report["dirac_report"] = dirac_report
    alg = S.hb.C.alg
    r, excluded = _conjugate_span(alg.sig, ech)
    report["conjugate_span_rank"] = r
    report["intersection_ok"] = r == alg.rank + S.hb.h
    report["excluded"] = linalg.merged_locus(dirac_report["involutive_excluded"], excluded)
    report["ok"] = bool(dirac_ok and report["intersection_ok"])
    return report


def _conjugate_span(sig, ech) -> tuple:
    """(rank [G; conj(G)], its locus) for the echelon ech = E of G: rank E
    plus the rank of the residuals of conj(E)'s rows reduced against E
    (validate_gcr's docstring)."""
    locus = list(ech.excluded)
    residuals = []
    for row in ech.rows[: ech.rank]:
        ok, residual = ech.reduce([x.conjugate() for x in row], locus)
        if not ok:
            residuals.append(residual)
    rank_r, excluded_r = linalg.rank(sig, residuals)
    return ech.rank + rank_r, locus + excluded_r


def extract_bivector(S: GCRStructure) -> Multivector:
    """Grade -1 bivector pairing module covectors through the endomorphism."""
    alg = S.hb.C.alg
    sig = alg.sig
    h, r = S.hb.h, alg.rank
    M = S.hb.dist.h_rows()
    # full[m][mp] = sum_{a,b} J[a][h + b] M[b][m] M[a][mp], that is (J_12 M)^T M
    JM = linalg.mat_mul(sig, [row[h:] for row in S.j[:h]], M)
    full = linalg.mat_mul(sig, [list(col) for col in zip(*JM)], M)
    for m in range(r):
        for mp in range(m, r):
            if not (full[m][mp] + full[mp][m]).is_zero():
                raise GCRError("bivector extraction needs an orthogonal J with J^2=-1")
    return bivector_from_matrix(alg, full)


def cr_to_gcr(C: CourantPresentation, dist: Distribution, jh) -> GCRStructure:
    """Block structure J (+) -J* from an almost complex structure on the distribution."""
    sig = C.alg.sig
    h = dist.h
    rows = linalg.coerce_matrix(sig, jh)
    if len(rows) != h or any(len(r) != h for r in rows):
        raise GCRError("complex structure matrix must be h x h")
    if _square_plus_one(sig, rows) is not None:
        raise GCRError("matrix does not square to minus the identity")
    z = sig.zero()
    big = [[z] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        for j in range(h):
            big[i][j] = rows[i][j]
            big[h + i][h + j] = -rows[j][i]
    return GCRStructure(build_H_bundle(C, dist), big)


def symplectic_gcr(C: CourantPresentation, omega: AForm) -> GCRStructure:
    """Structure of symplectic type on the full frame, from a nondegenerate 2-form."""
    alg = C.alg
    sig = alg.sig
    if not isinstance(omega, AForm) or omega.degree != 2 or alg.rank_v != 1:
        raise GCRError("expected a module-valued 2-form over a rank-one module")
    r = alg.rank
    cols = [contract(alg.frame_section(b), omega) for b in range(r)]
    B = [[col.coefficient((a,))[0] for col in cols] for a in range(r)]
    try:
        Binv = linalg.invert(sig, B)
    except LinalgError as exc:
        raise GCRError(f"two-form is degenerate over the ring: {exc}")
    z = sig.zero()
    big = [[z] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            big[i][r + j] = -Binv[i][j]
            big[r + i][j] = B[i][j]
    return GCRStructure(build_H_bundle(C, full_distribution(alg)), big)


# -- splitting off a suspension direction --------------------------------------


def tangent_restriction(alg: Algebroid) -> Algebroid:
    """Drop the final frame direction and the module action; tangent-type result.

    Only meaningful when the final direction is central for the anchor: its
    anchor row must vanish, so that dropping it leaves a genuine quotient.
    """
    s = alg.sig
    n = alg.rank - 1
    if n < 1:
        raise GCRError("nothing left after dropping the suspension direction")
    if any(not x.is_zero() for x in alg.anchor[n]):
        raise GCRError("final frame direction is not anchor-central")
    structure = {}
    for (i, j), vec in alg.structure.items():
        # the table stores nonzero vectors only, and i < j
        if j >= n or not vec[n].is_zero():
            raise GCRError("suspension direction does not split off")
        structure[(i, j)] = vec[:n]
    anchor = [list(alg.anchor[i]) for i in range(n)]
    theta = [[[s.zero()]] for _ in range(n)]
    return Algebroid(s, n, 1, anchor, structure, theta)


def decompose_jacobi(alg: Algebroid, P: Multivector) -> dict:
    """Split a grade -1 bivector as (plane part) + (suspension ^ vector)."""
    if P.degree != 2:
        raise GCRError("expected a bivector")
    n = alg.rank - 1
    tangent = tangent_restriction(alg)
    lam_terms = {}
    e_terms = {}
    for I, w in P.terms.items():
        if w.pure_grade() != -1:
            raise GCRError("expected a pure grade -1 bivector")
        c = w.parts[-1]
        if I[1] < n:
            lam_terms[I] = FScalar.of(c)
        else:
            # I = (a, n) with a < n: each a occurs once
            e_terms[(I[0],)] = FScalar.of(-c)
    return {
        "tangent": tangent,
        "lambda": Multivector(alg.sig, n, 2, lam_terms),
        "e": Multivector(alg.sig, n, 1, e_terms),
    }


def compose_jacobi(alg: Algebroid, lam: Multivector, e: Multivector) -> Multivector:
    """Inverse of the split: grade -1 bivector (lam + suspension ^ e) over alg."""
    n = alg.rank - 1
    terms = {I: FScalar(alg.sig, {-1: w.grade_zero_elem()}) for I, w in lam.terms.items()}
    # lam lives on the first n frame indices, so no key (a, n) is taken
    for (a,), w in e.terms.items():
        terms[(a, n)] = FScalar(alg.sig, {-1: -w.grade_zero_elem()})
    return Multivector(alg.sig, alg.rank, 2, terms)


# -- parallel trivializations ---------------------------------------------------


def parallel_trivializations(alg: Algebroid, P: Multivector, max_degree: int = 2) -> list:
    """Module sections killed by the bivector: solve tilde(P, d(g u)) = 0.

    Nonempty up to constants exactly when the bracket on module sections is
    of honest Poisson type; contact-type structures admit none.
    """

    def image(_, g):
        for I, w in tilde(P, _d_function(alg, FScalar(alg.sig, {1: g}))).terms.items():
            for grade, elem in w.parts.items():
                yield (I, grade), elem

    return [vec[0] for vec in linalg.polynomial_kernel(alg.sig, max_degree, 1, image)]
