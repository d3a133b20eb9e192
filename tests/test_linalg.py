from fractions import Fraction

import pytest

from courantkit import linalg
from courantkit.linalg import LinalgError
from courantkit.ring import Accumulator, ExpGen, GaussRat, RingElem, RingSignature, canonical_factors
from courantkit.sampling import SplitMix

from calculus_oracle import content_normalize_row, termwise_derivation


SIG = RingSignature(("x", "y"))


def rand_matrix(rng, n, m, degree=1):
    return [
        [rng.ring_elem(SIG, max_degree=degree, terms=2) for _ in range(m)]
        for _ in range(n)
    ]


def test_rank_of_rational_matrices_matches_fraction_elimination():
    rng = SplitMix(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        rows = [[SIG.const(v) for v in row] for row in A]
        got, excluded = linalg.rank(SIG, rows)
        assert excluded == []
        # plain elimination oracle
        B = [list(r) for r in A]
        rk = 0
        for col in range(m):
            piv = next((i for i in range(rk, n) if B[i][col]), None)
            if piv is None:
                continue
            B[rk], B[piv] = B[piv], B[rk]
            B[rk] = [v / B[rk][col] for v in B[rk]]
            for i in range(n):
                if i != rk and B[i][col]:
                    f = B[i][col]
                    B[i] = [a - f * b for a, b in zip(B[i], B[rk])]
            rk += 1
        assert got == rk


def test_nullspace_vectors_annihilate():
    rng = SplitMix(19)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(2, 4)
        A = rand_matrix(rng, n, m)
        basis, _ = linalg.nullspace(SIG, A)
        for v in basis:
            for row in A:
                acc = SIG.zero()
                for a, b in zip(row, v):
                    acc = acc + a * b
                assert acc.is_zero()
        # rank-nullity over the fraction field
        rk, _ = linalg.rank(SIG, A)
        assert rk + len(basis) == m


def _reduced(ech, v) -> tuple:
    """(in_span, residual, locus) of ech.reduce(v) on a fresh copy of ech's locus."""
    locus = list(ech.excluded)
    return (*ech.reduce(v, locus), locus)


def test_membership_reports_honest_residual():
    x = SIG.coord("x")
    rows = [[SIG.one(), SIG.zero()], [SIG.zero(), x]]
    ech = linalg.rref(SIG, rows)
    ok, residual, _ = _reduced(ech, [SIG.const(3), x * x])
    assert ok and all(r.is_zero() for r in residual)
    ok, residual, _ = _reduced(ech, [SIG.zero(), SIG.one()])
    # 1 is not an R-multiple of x over the polynomial ring's span at generic points;
    # membership works over the fraction field, so this IS in the span
    assert ok
    ok, residual, _ = _reduced(linalg.rref(SIG, [[SIG.one(), SIG.zero()]]), [SIG.zero(), SIG.one()])
    assert not ok
    assert any(not r.is_zero() for r in residual)


def test_invert_and_failure():
    rng = SplitMix(37)
    for _ in range(15):
        n = rng.randint(1, 3)
        # unipotent upper-triangular noise keeps the inverse polynomial
        A = [[SIG.one() if i == j else SIG.zero() for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = rng.ring_elem(SIG, max_degree=1, terms=1)
        inv = linalg.invert(SIG, A)
        prod = linalg.mat_mul(SIG, A, inv)
        for i in range(n):
            for j in range(n):
                expected = SIG.one() if i == j else SIG.zero()
                assert prod[i][j] == expected
    with pytest.raises(LinalgError):
        linalg.invert(SIG, [[SIG.coord("x"), SIG.coord("x")], [SIG.one(), SIG.one()]])


def _nullspace_by_division(A) -> list:
    """Reference basis: the product of all pivots, divided by each pivot in turn."""
    ech = linalg.rref(SIG, A)
    ncols = len(A[0])
    prod = SIG.one()
    for row, c in zip(ech.rows, ech.pivots):
        prod = prod * row[c]
    basis = []
    for f in sorted(set(range(ncols)) - set(ech.pivots)):
        vec = [SIG.zero()] * ncols
        vec[f] = prod
        for row, c in zip(ech.rows, ech.pivots):
            vec[c] = -row[f] * prod.exact_div(row[c])
        basis.append(content_normalize_row(vec)[0])
    return basis


def test_nullspace_divides_nothing(monkeypatch):
    def refuse(self, g):
        raise AssertionError("nullspace divided")

    rng = SplitMix(29)
    cases = [rand_matrix(rng, rng.randint(1, 3), rng.randint(2, 5), degree=2) for _ in range(15)]
    want = [_nullspace_by_division(A) for A in cases]
    assert sum(len(b) for b in want) >= 20
    monkeypatch.setattr(RingElem, "exact_div", refuse)
    for A, basis in zip(cases, want):
        assert linalg.nullspace(SIG, A)[0] == basis


def test_nullspace_hands_no_empty_operand_to_the_accumulator(monkeypatch):
    # a zero echelon entry in a free column adds nothing to the basis vector,
    # so nullspace skips it rather than calling add_product with it
    rng = SplitMix(31)
    cases = []
    for _ in range(15):
        A = rand_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
        A.append([SIG.zero()] * (len(A[0]) - 1) + [SIG.one()])
        cases.append(A)
    want = [linalg.nullspace(SIG, A)[0] for A in cases]
    zero_entries = 0
    for A in cases:
        ech = linalg.rref(SIG, A)
        free = set(range(len(A[0]))) - set(ech.pivots)
        zero_entries += sum(row[f].is_zero() for row in ech.rows[: ech.rank] for f in free)
    assert zero_entries >= 10
    empty = []
    real = Accumulator.add_product

    def spy(self, x, y, sign=1, at=0):
        if not (x.terms and y.terms):
            empty.append((x, y))
        return real(self, x, y, sign, at)

    monkeypatch.setattr(Accumulator, "add_product", spy)
    assert [linalg.nullspace(SIG, A)[0] for A in cases] == want
    assert empty == []


def test_rank_excluded_locus_reported():
    x = SIG.coord("x")
    rows = [[x, SIG.zero()], [SIG.zero(), SIG.one()]]
    rk, excluded = linalg.rank(SIG, rows)
    assert rk == 2
    # pivoting on x divides by it: the locus x = 0 is excluded from the verdict
    assert excluded == ["x"]


# Q(i) with an exponential generator, for the entrywise elimination step
GSIG = RingSignature(("x", "y"), (ExpGen("E", (Fraction(1), Fraction(-1, 3))),))


def _sparse_row(rng, m):
    """m entries over GSIG, about a third of them zero, some with mixed denominators."""
    row = []
    for _ in range(m):
        e = GSIG.zero() if rng.randint(0, 2) == 0 else rng.ring_elem(
            GSIG, max_degree=2, terms=3, complex_ok=True
        )
        if rng.randint(0, 3) == 0:
            e = e * GaussRat(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
        row.append(e)
    return row


def test_eliminate_matches_the_normalized_cross_multiplication():
    rng = SplitMix(43)
    checked = cancelled = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        prow, row = _sparse_row(rng, m), _sparse_row(rng, m)
        live = [k for k, p in enumerate(prow) if not p.is_zero()]
        if not live:
            continue
        col = rng.choice(live)
        others = [k for k in live if k != col]
        if others and rng.randint(0, 3) == 0:  # an entry k that cancels exactly
            # with row[col] = p and row[k] = prow[k], entry k is p*prow[k] - p*prow[k]
            k = rng.choice(others)
            row[col], row[k] = prow[col], prow[k]
            cancelled += 1
        excluded = []
        got = linalg._eliminate(row, prow, col, excluded)
        p, c = prow[col], row[col]
        want, witness = content_normalize_row([p * a - c * b for a, b in zip(row, prow)])
        assert got == want and got[col].is_zero()
        assert excluded == ([] if witness is None else list(map(str, canonical_factors(witness))))
        for e in got:
            assert all(c._d > 0 and c for c in e.terms.values())
        checked += 1
    assert checked > 100 and cancelled > 10


def test_elimination_sums_in_the_accumulator(monkeypatch):
    # every p*a - c*b is one Accumulator: rref and reduce add no RingElem
    rng = SplitMix(47)
    A = [_sparse_row(rng, 5) for _ in range(4)]
    v = _sparse_row(rng, 5)
    want = _reduced(linalg.rref(GSIG, A), v)
    calls = []
    real_add = RingElem.__add__

    def counting_add(self, other):
        calls.append(None)
        return real_add(self, other)

    monkeypatch.setattr(RingElem, "__add__", counting_add)
    ech = linalg.rref(GSIG, A)
    assert ech.rank == 4 and _reduced(ech, v) == want
    assert calls == []


def test_elimination_multiplies_no_coefficient(monkeypatch):
    # each row is read as a primitive row from its raw sums: rref and reduce
    # multiply no GaussRat, to divide out the content or otherwise
    rng = SplitMix(53)
    cases = []
    for _ in range(6):
        A = [_sparse_row(rng, 5) for _ in range(4)]
        cases.append((A, _sparse_row(rng, 5), linalg.rref(GSIG, A)))
    wants = [(ech.rows, ech.pivots, ech.excluded, _reduced(ech, v)) for A, v, ech in cases]
    assert sum(len(ech.excluded) for _, _, ech in cases) > 0
    calls = []
    real_mul = GaussRat.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return real_mul(self, other)

    monkeypatch.setattr(GaussRat, "__mul__", counting_mul)
    for (A, v, _), want in zip(cases, wants):
        ech = linalg.rref(GSIG, A)
        assert (ech.rows, ech.pivots, ech.excluded, _reduced(ech, v)) == want
    assert calls == []


def _termwise_vec_mat(sig, v, M, n, a=None):
    """a(v) + v M with RingElem arithmetic, entry by entry."""
    out = [termwise_derivation(a, x) for x in v] if a is not None else [sig.zero()] * n
    for c in range(n):
        for vb, row in zip(v, M or ()):
            out[c] = out[c] + vb * row[c]
    return out


def test_vec_mat_and_mat_mul_match_termwise_sums():
    # seeded matrices over Q and Q(i), with zero rows and zero entries, and
    # vec_mat with and without the derivation term
    rng = SplitMix(311)
    kinds = {"zero_row": 0, "derivation": 0, "nonzero": 0}
    for sig, complex_ok in ((SIG, False), (GSIG, True)):

        def entry():
            if rng.randint(0, 2) == 0:
                return sig.zero()
            return rng.ring_elem(sig, max_degree=2, terms=3, complex_ok=complex_ok)

        def matrix(n, m):
            rows = [[entry() for _ in range(m)] for _ in range(n)]
            if rng.randint(0, 2) == 0:
                rows[rng.randint(0, n - 1)] = [sig.zero()] * m
            return rows

        for _ in range(30):
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            A, B = matrix(n, k), matrix(k, m)
            kinds["zero_row"] += any(not any(row) for row in A + B)
            got = linalg.mat_mul(sig, A, B)
            assert got == [_termwise_vec_mat(sig, row, B, m) for row in A]
            a = [entry() for _ in range(sig.ncoords)] if rng.randint(0, 1) else None
            kinds["derivation"] += a is not None
            for v in A:
                want = _termwise_vec_mat(sig, v, B, m)
                assert linalg.vec_mat(v, B, m) == want
                kinds["nonzero"] += any(want)
                if a is not None:
                    assert linalg.vec_mat(v, None, k, a) == _termwise_vec_mat(sig, v, None, k, a)
                    if k == m:  # a(v) + v M needs v and the rows of M to agree in width
                        assert linalg.vec_mat(v, B, m, a) == _termwise_vec_mat(sig, v, B, m, a)
    assert min(kinds.values()) >= 10, kinds
    # a product with no inner dimension has rows of no entries
    assert linalg.mat_mul(SIG, [[], []], []) == [[], []]


# -- the two elimination kernels against plain RingElem arithmetic ---------------
#
# The reference forms p*row - c*prow entry by entry with RingElem products and
# differences, over every column, pivot column included, and divides by the
# content and common monomial with calculus_oracle.content_normalize_row.


def _oracle_entry(rng, degree=2):
    """An entry over GSIG: Gaussian coefficients, exponents of E in -1..1, and
    one draw in three scaled by a rational with another denominator."""
    e = rng.ring_elem(GSIG, max_degree=degree, terms=3, complex_ok=True)
    if rng.randint(0, 2) == 0:
        e = e * GaussRat(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 3, 4, 6, 7))))
    return e


def _oracle_row(rng, m, degree=2):
    return [GSIG.zero() if rng.randint(0, 3) == 0 else _oracle_entry(rng, degree) for _ in range(m)]


def _reference_step(row, prow, col):
    p, c = prow[col], row[col]
    return content_normalize_row([p * a - c * b for a, b in zip(row, prow)])


def _reference_note(excluded, elem):
    if elem is not None:
        excluded.extend(f for f in map(str, canonical_factors(elem)) if f not in excluded)


def _reference_rref(M):
    """rref's pivot order (the sparsest nonzero entry, first row on a tie) with
    the reference step."""
    excluded, rows = [], []
    for row in M:
        row, witness = content_normalize_row(row)
        _reference_note(excluded, witness)
        rows.append(row)
    pivots, prow = [], 0
    for col in range(len(rows[0])):
        live = [r for r in range(prow, len(rows)) if rows[r][col].terms]
        if prow >= len(rows) or not live:
            continue
        r = min(live, key=lambda r: len(rows[r][col].terms))
        rows[prow], rows[r] = rows[r], rows[prow]
        _reference_note(excluded, rows[prow][col])
        for r2 in range(len(rows)):
            if r2 != prow and rows[r2][col].terms:
                rows[r2], witness = _reference_step(rows[r2], rows[prow], col)
                _reference_note(excluded, witness)
        pivots.append(col)
        prow += 1
    return rows, pivots, excluded


def _reference_reduce(rows, pivots, excluded, v):
    excluded = list(excluded)
    for row, c in zip(rows, pivots):
        if v[c].terms:
            v, witness = _reference_step(v, row, c)
            _reference_note(excluded, witness)
    return not any(v), v, excluded


def test_primitive_matches_the_ringelem_content_and_monomial():
    # each slot empty, held (one add), a sum of products, held and then summed,
    # or a sum that cancels to zero; the sums are also kept as RingElems
    rng = SplitMix(2901)
    seen = {"held_kept": 0, "denominators": 0, "shifted": 0, "cancelled": 0, "zero_row": 0}
    for _ in range(500):
        n = rng.randint(1, 6)
        acc, sums, held = Accumulator(GSIG), [GSIG.zero()] * n, {}
        for k in range(n):
            kind = rng.randint(0, 4)
            if kind in (1, 3):
                x = _oracle_entry(rng)
                if kind == 1 and rng.randint(0, 1):  # already primitive, over d = 1
                    x = content_normalize_row([x])[0][0]
                acc.add(x, 1, k)
                sums[k] = sums[k] + x
                held[k] = x
            if kind in (2, 3):
                for _ in range(rng.randint(1, 3)):
                    x, y, sign = _oracle_entry(rng), _oracle_entry(rng), rng.choice((1, -1, 2))
                    acc.add_product(x, y, sign, k)
                    sums[k] = sums[k] + GSIG.const(sign) * x * y
                held.pop(k, None)
            if kind == 4:
                x, y = _oracle_entry(rng), _oracle_entry(rng)
                acc.add_product(x, y, 1, k)
                acc.add_product(y, x, -1, k)
                seen["cancelled"] += bool(x.terms and y.terms)
        want = content_normalize_row(sums)
        got = acc.primitive(n)
        assert got == want
        row, witness = got
        seen["zero_row"] += not any(row)
        seen["shifted"] += witness is not None
        seen["denominators"] += any(c._d != 1 for e in sums for c in e.terms.values())
        seen["held_kept"] += sum(row[k] is x for k, x in held.items())
    # a held slot already in final form is handed back, not rebuilt: here a
    # row made only of held primitive elements (E^-1 would be a common unit)
    x, y = GSIG.parse("2*x*E + i*y"), GSIG.parse("3*E - 1")
    acc = Accumulator(GSIG)
    acc.add(x, 1, 0)
    acc.add(y, 1, 2)
    row, witness = acc.primitive(3)
    assert row[0] is x and row[2] is y and row[1].is_zero() and witness is None
    assert min(seen.values()) >= 10, seen


def test_pivot_skipping_step_matches_the_full_cross_multiplication(monkeypatch):
    rng = SplitMix(2903)
    seen = {"partial_cancel": 0, "zero_row": 0, "witness": 0}
    cases = []
    for _ in range(400):
        m = rng.randint(1, 6)
        prow, row = _oracle_row(rng, m), _oracle_row(rng, m)
        col = rng.randint(0, m - 1)
        if not prow[col].terms:
            prow[col] = _oracle_entry(rng) or GSIG.one()
        if not row[col].terms:
            row[col] = _oracle_entry(rng) or GSIG.one()
        kind = rng.randint(0, 3)
        if kind == 0:  # a multiple of the pivot row: every entry cancels
            q = _oracle_entry(rng) or GSIG.one()
            row = [q * b for b in prow]
        elif kind == 1 and m > 1:  # one entry besides the pivot cancels
            k = rng.choice([k for k in range(m) if k != col])
            t = _oracle_entry(rng) or GSIG.one()
            row[k], prow[k] = row[col] * t, prow[col] * t
        cases.append((row, prow, col))
    products = []
    real = Accumulator.add_product
    monkeypatch.setattr(
        Accumulator, "add_product", lambda s, *a: products.append(1) or real(s, *a)
    )
    for row, prow, col in cases:
        want, witness = _reference_step(row, prow, col)
        excluded = []
        products.clear()
        got = linalg._eliminate(row, prow, col, excluded)
        assert got == want and not got[col].terms
        assert excluded == ([] if witness is None else list(map(str, canonical_factors(witness))))
        # one product per nonzero entry of either row outside the pivot column,
        # two fewer than the full loop, whose pivot products always cancel
        outside = sum(bool(e.terms) for k, e in enumerate(row + prow) if k % len(row) != col)
        assert len(products) == outside
        seen["zero_row"] += not any(got)
        seen["witness"] += bool(excluded)
        seen["partial_cancel"] += any(
            k != col and a.terms and b.terms and not c.terms
            for k, (a, b, c) in enumerate(zip(row, prow, want))
        )
    assert min(seen.values()) >= 10, seen


def reference_cases() -> list:
    """(M, vectors) for 40 seeded matrices over GSIG, some with a dependent
    row, each with two vectors to reduce: a drawn row and a multiple of the
    first row of M."""
    rng = SplitMix(2905)
    out = []
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(2, 4)
        M = [_oracle_row(rng, m, 1) for _ in range(n)]
        if n > 1 and rng.randint(0, 2) == 0:  # a dependent row
            q = _oracle_entry(rng, 1) or GSIG.one()
            M[-1] = [q * e for e in M[0]]
        out.append((M, (_oracle_row(rng, m, 1), [_oracle_entry(rng, 1) * e for e in M[0]])))
    return out


def test_rref_and_reduce_match_the_ringelem_reference():
    # the reference reduction notes no pivot: tests/test_pivot_oracle.py
    # checks that every pivot is nonzero off the echelon's own locus
    ranks = set()
    for M, vectors in reference_cases():
        ech = linalg.rref(GSIG, M)
        rows, pivots, excluded = _reference_rref(M)
        assert (ech.rows, ech.pivots, ech.excluded) == (rows, pivots, excluded)
        ranks.add(ech.rank)
        for v in vectors:
            assert _reduced(ech, v) == _reference_reduce(rows, pivots, excluded, v)
    assert len(ranks) >= 3


# -- canonical excluded factors ---------------------------------------------------


def _is_canonical_cofactor(g) -> bool:
    """Gaussian-integer coefficients with gcd 1, no common monomial, and the
    coefficient at the greatest key in the first quadrant."""
    from math import gcd

    cs = list(g.terms.values())
    lead = g.terms[max(g.terms)]
    return (
        len(cs) > 1
        and all(c._d == 1 for c in cs)
        and gcd(*(x for c in cs for x in (c._a, c._b))) == 1
        and not any(map(min, zip(*g.terms)))
        and lead._a > 0 <= lead._b
    )


def _drawn_factor(rng):
    """An entry over GSIG, one draw in three times a drawn coordinate and
    exponential monomial with a Gaussian coefficient."""
    f = _oracle_entry(rng)
    if rng.randint(0, 2) == 0:
        c = GaussRat(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7))), rng.choice((0, 0, 1, -2)))
        f = f * GSIG.monomial([rng.randint(0, 2), rng.randint(0, 2)], [rng.randint(-2, 2)], c)
    return f


def test_canonical_factors_leave_a_unit_constant_and_monomial():
    # f = u * c * m * cofactor exactly, for an exponential unit u, a constant
    # c and a coordinate monomial m whose variables are the listed ones
    rng = SplitMix(3301)
    nc = GSIG.ncoords
    seen = {"variables": 0, "no_cofactor": 0, "exp_unit": 0, "gaussian_lead": 0}
    for _ in range(400):
        f = _drawn_factor(rng)
        if not f.terms:
            continue
        factors = canonical_factors(f)
        cof = factors[-1] if factors and len(factors[-1].terms) > 1 else None
        variables = factors[:-1] if cof is not None else factors
        q = f if cof is None else f.exact_div(cof)
        assert q is not None and len(q.terms) == 1
        ((key, c),) = q.terms.items()
        assert f == (GSIG.monomial(key[:nc], key[nc:], c) * cof if cof is not None else q)
        assert list(variables) == [GSIG.coord(GSIG.coords[j]) for j in range(nc) if key[j]]
        if cof is not None:
            assert _is_canonical_cofactor(cof), cof
            seen["gaussian_lead"] += any(x._b for x in f.terms.values())
        seen["variables"] += bool(variables)
        seen["no_cofactor"] += cof is None
        seen["exp_unit"] += any(key[nc:])
    assert min(seen.values()) >= 10, seen


def test_canonical_factors_are_idempotent_and_blind_to_units_constants_and_monomials():
    rng = SplitMix(3303)
    units = [GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1)]
    checked = 0
    for _ in range(300):
        f = _drawn_factor(rng)
        if not f.terms:
            continue
        factors = canonical_factors(f)
        for g in factors:
            assert canonical_factors(g) == (g,)
        c = units[rng.randint(0, 3)] * GaussRat(Fraction(rng.choice((1, 2, -3)), rng.choice((1, 5))))
        m = GSIG.monomial([rng.randint(0, 2), rng.randint(0, 1)], [rng.randint(-2, 2)], c)
        moved = canonical_factors(f * m)
        # the same cofactor, and the variables of m joined to f's
        assert [g for g in moved if len(g.terms) > 1] == [g for g in factors if len(g.terms) > 1]
        assert {str(g) for g in factors if len(g.terms) == 1} <= {str(g) for g in moved}
        checked += 1
    assert checked > 250
    # the zero element and the constants have no factors
    assert canonical_factors(GSIG.zero()) == () and canonical_factors(GSIG.const(GaussRat(2, 3))) == ()


def _excluded_lists(report) -> list:
    details = report.get("details") if isinstance(report, dict) else None
    if not isinstance(details, dict):
        return []
    lists = [details["excluded"]] if "excluded" in details else []
    return lists + [d["excluded"] for d in details.values() if isinstance(d, dict) and "excluded" in d]


def test_no_report_lists_two_factors_that_differ_by_a_unit_a_constant_or_a_monomial():
    # every catalog report and every seed-0 benchmark report
    import itertools
    import json
    import re

    from identity_outputs import outputs

    lists = []
    for key, out in outputs().items():
        try:
            report = json.loads(out["stdout"])
        except ValueError:
            continue
        lists += [(key, lst) for lst in _excluded_lists(report)]
    names = sorted({n for _, lst in lists for t in lst for n in re.findall(r"[A-Za-z_]\w*", t)} - {"i"})
    sig = RingSignature(tuple(names))  # no catalog or benchmark ring has exponential generators
    pairs = 0
    for key, lst in lists:
        factors = [sig.parse(t) for t in lst]
        assert all(canonical_factors(f) == (f,) for f in factors), (key, lst)
        for f, g in itertools.combinations(factors, 2):
            # with no common monomial, f = c * g for a constant c is the only way
            lf, lg = f.terms[max(f.terms)], g.terms[max(g.terms)]
            assert not (f.terms.keys() == g.terms.keys() and f * lg == g * lf), (key, f, g)
            pairs += 1
    assert len(lists) > 200 and pairs > 400, (len(lists), pairs)
