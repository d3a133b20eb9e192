"""An independent check of the exact linear algebra and the ring arithmetic
against sympy.

rank, nullspace, invert and Echelon.reduce are compared with sympy's
DomainMatrix over the fraction fields QQ(x, y, z) and QQ_I(x, y), on seeded
matrices of up to 4 x 5 entries with zero rows, zero columns and dependent
rows among them.  Ring +, -, * and partial are compared with sympy expand and
diff over Q and Q(i), an exponential generator E with derivative row r read
as exp(r . x); exact_div is checked to undo a product, and over Q to refuse
exactly the quotients that sympy's cancel leaves with a denominator other than
a constant times a power of E.

sympy is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from courantkit import linalg  # noqa: E402
from courantkit.linalg import LinalgError  # noqa: E402
from courantkit.ring import ExpGen, RingSignature  # noqa: E402
from courantkit.sampling import SplitMix  # noqa: E402

RAT = RingSignature(("x", "y", "z"), mode="rational")
GAUSS = RingSignature(("x", "y"))
EXP_ROW = (Fraction(1), Fraction(-1, 2))
EXPS = RingSignature(("x", "y"), (ExpGen("E", EXP_ROW),))
EXPS_RAT = RingSignature(("x", "y"), (ExpGen("E", EXP_ROW),), mode="rational")
POINT = (QQ(17, 11), QQ(-19, 13), QQ(23, 7))


def to_sympy(elem, e=None):
    """elem as a sympy expression: each exponential generator is exp(row . x),
    or the symbol e when given."""
    sig = elem.sig
    xs = sympy.symbols(sig.coords)
    nc = len(xs)
    out = sympy.Integer(0)
    for key, c in elem.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        for s, k in zip(xs, key[:nc]):
            term *= s**k
        for g, k in zip(sig.exps, key[nc:]):
            if e is not None:
                term *= e**k
            else:
                arg = sum(sympy.Rational(q.numerator, q.denominator) * s for q, s in zip(g.row, xs))
                term *= sympy.exp(k * arg)
        out += term
    return out


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def poly_ring(sig):
    return (QQ if sig.mode == "rational" else QQ_I).poly_ring(*sympy.symbols(sig.coords))


def to_poly(R, elem):
    """elem (no exponential generators) as an element of R = D[x, ...]."""
    D = R.domain

    def scalar(c):
        re = QQ(c.re.numerator, c.re.denominator)
        return re if D == QQ else D(re, QQ(c.im.numerator, c.im.denominator))

    return R.ring.from_dict({key: scalar(c) for key, c in elem.terms.items()})


def poly_matrix(R, rows, ncols):
    return DomainMatrix([[to_poly(R, x) for x in row] for row in rows], (len(rows), ncols), R)


def field_rank(R, rows, ncols) -> int:
    """Rank over the fraction field of R: the pivots of sympy's own
    fraction-free echelon form."""
    return len(poly_matrix(R, rows, ncols).rref_den()[2])


def draw_matrix(rng, sig, n, m):
    """n x m, a third of the entries zero and the rest of degree <= 1; a zero
    row, a zero column or a dependent row in three draws of four."""
    complex_ok = sig.mode == "gaussian"
    el = lambda: (  # noqa: E731
        sig.zero() if rng.randint(0, 2) == 0
        else rng.ring_elem(sig, max_degree=1, terms=2, complex_ok=complex_ok)
    )
    rows = [[el() for _ in range(m)] for _ in range(n)]
    shape = rng.randint(0, 3)
    if shape == 1:
        rows[rng.randint(0, n - 1)] = [sig.zero()] * m
    elif shape == 2:
        c = rng.randint(0, m - 1)
        for row in rows:
            row[c] = sig.zero()
    elif shape == 3 and n > 1:
        first = rows[rng.randint(0, n - 2)]
        a, b = el(), el()
        second = rows[rng.randint(0, n - 2)]
        rows[-1] = [a * u + b * v for u, v in zip(first, second)]
    return rows


def matrix_cases():
    rng = SplitMix(2008)
    for sig, count in ((RAT, 160), (GAUSS, 80)):
        for _ in range(count):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            yield sig, draw_matrix(rng, sig, n, m)


def test_rank_nullspace_and_reduce_agree_with_sympy():
    rng = SplitMix(2009)
    seen = 0
    for sig, M in matrix_cases():
        R, n, m = poly_ring(sig), len(M), len(M[0])
        want = field_rank(R, M, m)
        assert linalg.rank(sig, M)[0] == want, M
        basis, _ = linalg.nullspace(sig, M)
        assert len(basis) == m - want, M
        if basis:
            B = poly_matrix(R, basis, m)
            assert (poly_matrix(R, M, m) * B.transpose()).is_zero_matrix, (M, basis)
            # independent: still of full rank at one rational point
            point = POINT[: len(sig.coords)]
            at = DomainMatrix([[p(*point) for p in row] for row in B.to_list()], B.shape, R.domain)
            assert at.rank() == len(basis), (M, basis)
        ech = linalg.rref(sig, M)
        assert ech.rank == want
        # one vector in the row span (a combination of the rows), one drawn freely
        a = [rng.ring_elem(sig, max_degree=1, terms=2) for _ in range(n)]
        inside = [sum((c * row[k] for c, row in zip(a, M)), sig.zero()) for k in range(m)]
        outside = [rng.ring_elem(sig, max_degree=1, terms=2) for _ in range(m)]
        for v in (inside, outside):
            in_span, residual = ech.reduce(v, list(ech.excluded))
            assert in_span == (field_rank(R, M + [v], m) == want), (M, v)
            assert in_span == all(r.is_zero() for r in residual)
        seen += 1
    assert seen >= 200


def unit_determinant_matrix(rng, sig, n):
    """P L U D: a permutation, unipotent lower and upper factors with entries
    of degree <= 1 and a diagonal of nonzero constants."""
    el = lambda: rng.ring_elem(sig, max_degree=1, terms=2)  # noqa: E731
    one, zero = sig.one(), sig.zero()
    L = [[el() if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
    U = [[el() if j > i else one if j == i else zero for j in range(n)] for i in range(n)]
    D = [[sig.const(rng.randint(1, 3) * (-1) ** rng.randint(0, 1)) if j == i else zero for j in range(n)]
         for i in range(n)]
    M = linalg.mat_mul(sig, linalg.mat_mul(sig, L, U), D)
    perm = list(range(n))
    for i in reversed(range(1, n)):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return [M[p] for p in perm]


def test_invert_agrees_with_sympy():
    rng = SplitMix(1908)
    cases = []
    for sig in (RAT, GAUSS):
        for n in (1, 2, 3, 3, 4):
            cases.append((sig, unit_determinant_matrix(rng, sig, n)))
        for _ in range(20):
            n = rng.randint(1, 3)
            cases.append((sig, draw_matrix(rng, sig, n, n)))
    inverted = 0
    for sig, M in cases:
        R, n = poly_ring(sig), len(M)
        PM = poly_matrix(R, M, n)
        det = PM.det()
        # the inverse has ring entries exactly when det is a nonzero constant
        if not det or not det.is_ground:
            with pytest.raises(LinalgError):
                linalg.invert(sig, M)
            continue
        product = PM * poly_matrix(R, linalg.invert(sig, M), n)
        assert (product - DomainMatrix.eye(n, R)).is_zero_matrix, M
        inverted += 1
    assert inverted >= 10


def ring_cases(sig, count, seed):
    rng = SplitMix(seed)
    complex_ok = sig.mode == "gaussian"
    for _ in range(count):
        yield (
            rng.ring_elem(sig, max_degree=2, terms=3, complex_ok=complex_ok),
            rng.ring_elem(sig, max_degree=2, terms=3, complex_ok=complex_ok),
        )


@pytest.mark.parametrize("sig", [EXPS_RAT, EXPS], ids=["rational", "gaussian"])
def test_ring_arithmetic_agrees_with_sympy(sig):
    xs = sympy.symbols(sig.coords)
    for a, b in ring_cases(sig, 40, 21):
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(to_sympy(a + b), sa + sb)
        assert same(to_sympy(a - b), sa - sb)
        assert same(to_sympy(a * b), sa * sb)
        for name, s in zip(sig.coords, xs):
            assert same(to_sympy(a.partial(name)), sympy.diff(sa, s)), (a, name)
        if not b.is_zero():
            assert (a * b).exact_div(b) == a, (a, b)


def test_exact_div_refuses_exactly_what_sympy_cannot_divide():
    # over Q, in x, y and E = exp(x - y/2), a unit: b divides c exactly when
    # c / b reduces to a quotient whose denominator is a constant times a
    # power of E
    e = sympy.Symbol("e")
    divides = refuses = 0
    rng = SplitMix(33)
    for c, b in ring_cases(EXPS_RAT, 80, 34):
        if b.is_zero():
            continue
        if rng.randint(0, 2) == 0:
            c = c * b
        q = sympy.cancel(to_sympy(c, e) / to_sympy(b, e))
        den = sympy.fraction(q)[1]
        exact = den.free_symbols <= {e} and sympy.Poly(den, e).is_monomial
        got = c.exact_div(b)
        if exact:
            assert got is not None and same(to_sympy(got, e), q), (c, b)
            divides += 1
        else:
            assert got is None, (c, b)
            refuses += 1
    assert divides >= 10 and refuses >= 10
