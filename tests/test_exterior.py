from fractions import Fraction

import pytest

from courantkit.exterior import (
    AForm,
    ExteriorError,
    FForm,
    FScalar,
    Multivector,
    aform_to_fform,
    breve_contract,
    contract,
    iota,
    pair_eval,
    wedge,
)
from courantkit.ring import RingSignature
from courantkit.sampling import SplitMix
from courantkit.schouten import tilde


SIG = RingSignature(("x", "y", "z"))
RANK = 3


def rand_plain_form(rng, degree, rank=RANK):
    """A plain scalar form: a grade-0 FForm."""
    terms = {}
    idx = [tuple(sorted(s)) for s in _subsets(range(rank), degree)]
    for I in idx:
        if rng.randint(0, 1):
            c = rng.ring_elem(SIG, max_degree=1, terms=2)
            if not c.is_zero():
                terms[I] = FScalar.of(c)
    return FForm(SIG, rank, degree, terms)


def _subsets(pool, k):
    from itertools import combinations

    return combinations(pool, k)


def frame(i):
    return [SIG.one() if j == i else SIG.zero() for j in range(RANK)]


def test_pairing_is_determinant_delta():
    # <f^I, e_J> = delta_IJ for increasing index tuples
    for I in _subsets(range(RANK), 2):
        xi = FForm(SIG, RANK, 2, {tuple(I): FScalar.of(SIG.one())})
        for J in _subsets(range(RANK), 2):
            P = Multivector(SIG, RANK, 2, {tuple(J): FScalar.of(SIG.one())})
            val = pair_eval(xi, P)
            expected = SIG.one() if I == J else SIG.zero()
            assert val.grade_zero_elem() == expected
    # the pairing takes graded forms: an AForm is refused, not read as a zero
    with pytest.raises(ExteriorError, match="graded form"):
        pair_eval(AForm(SIG, RANK, 1, 1, {(0,): (SIG.one(),)}), P)


def test_contract_front_signs():
    w = AForm(SIG, RANK, 1, 2, {(0, 1): (SIG.one(),)})
    c0 = contract(frame(0), w)
    c1 = contract(frame(1), w)
    assert c0.terms == {(1,): (SIG.one(),)}
    assert c1.terms == {(0,): (-SIG.one(),)}


def test_wedge_graded_commutative():
    rng = SplitMix(3)
    for _ in range(25):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = rand_plain_form(rng, p)
        b = rand_plain_form(rng, q)
        sign = Fraction(-1) ** (p * q)
        assert wedge(a, b).equals(wedge(b, a).scale(sign))


def test_wedge_associative():
    rng = SplitMix(17)
    for _ in range(20):
        a = rand_plain_form(rng, 1)
        b = rand_plain_form(rng, 1)
        c = rand_plain_form(rng, 1)
        assert wedge(wedge(a, b), c).equals(wedge(a, wedge(b, c)))


def test_contraction_antiderivation():
    # i_X(a ^ b) = (i_X a) ^ b + (-1)^|a| a ^ (i_X b)
    rng = SplitMix(23)
    for _ in range(25):
        p = rng.randint(1, 2)
        a = rand_plain_form(rng, p)
        b = rand_plain_form(rng, rng.randint(1, 2))
        X = Multivector(SIG, RANK, 1, {(rng.randint(0, RANK - 1),): FScalar.of(SIG.one())})
        lhs = iota(X, wedge(a, b))
        rhs = wedge(iota(X, a), b) + wedge(a, iota(X, b)).scale(Fraction(-1) ** p)
        assert lhs.equals(rhs)


def test_iterated_contraction_matches_bivector_insertion():
    # iota of a decomposable contracts its first factor innermost
    rng = SplitMix(29)
    for _ in range(20):
        plain = rand_plain_form(rng, 3)
        w = AForm(SIG, RANK, 1, 3, {I: (c.get(0),) for I, c in plain.terms.items()})
        P = Multivector(
            SIG,
            RANK,
            2,
            {(0, 1): FScalar.of(rng.ring_elem(SIG, max_degree=1, terms=1))},
        )
        viaP = iota(P, aform_to_fform(w))
        direct = contract(frame(1), contract(frame(0), w))
        coeff = P.terms.get((0, 1))
        if coeff is None:
            assert viaP.is_zero()
        else:
            expected = direct.scale(coeff.grade_zero_elem())
            assert viaP.equals(aform_to_fform(expected))


def test_rear_contraction_duality():
    # <xi ^ eta, P> = <xi, breve(eta) P>
    rng = SplitMix(41)
    for _ in range(30):
        k = rng.randint(1, 2)
        xi = rand_plain_form(rng, k)
        eta = rand_plain_form(rng, 1)
        terms = {}
        for I in _subsets(range(RANK), k + 1):
            if rng.randint(0, 1):
                terms[tuple(I)] = FScalar.of(rng.ring_elem(SIG, max_degree=1, terms=1))
        P = Multivector(SIG, RANK, k + 1, terms)
        lhs = pair_eval(wedge(xi, eta), P)
        rhs = pair_eval(xi, breve_contract(eta, P))
        assert lhs == rhs


def test_fscalar_grade_bookkeeping():
    a = FScalar(SIG, {0: SIG.coord("x"), -1: SIG.one()})
    b = FScalar(SIG, {1: SIG.coord("y")})
    prod = a * b
    assert set(prod.parts) == {1, 0}
    assert prod.parts[1] == SIG.coord("x") * SIG.coord("y")
    assert prod.parts[0] == SIG.coord("y")
    # a grade shift is a product with a pure power of the frame section
    assert (a * FScalar.of(SIG.one(), 2)).parts == {2: SIG.coord("x"), 1: SIG.one()}
    assert a.pure_grade() is None  # mixed grades have no single grade
    assert b.pure_grade() == 1


def test_aform_fform_round_trip():
    rng = SplitMix(53)
    for _ in range(20):
        terms = {}
        for I in _subsets(range(RANK), 2):
            vec = (rng.ring_elem(SIG, max_degree=1, terms=2),)
            if not vec[0].is_zero():
                terms[tuple(I)] = vec
        w = AForm(SIG, RANK, 1, 2, terms)
        f = aform_to_fform(w)
        assert isinstance(f, FForm)
        # module values sit in grade 1 alone, and reading that grade gives w back
        assert all(list(c.parts) == [1] for c in f.terms.values())
        back = AForm(SIG, RANK, 1, 2, {I: (c.get(1),) for I, c in f.terms.items()})
        assert back.equals(w)


def test_degree_and_width_guards():
    w = AForm(SIG, RANK, 1, 1, {(0,): (SIG.one(),)})
    v = FForm(SIG, RANK, 1, {(0,): FScalar.of(SIG.one())})
    with pytest.raises(ExteriorError):
        w + v  # module-valued plus plain
    with pytest.raises(ExteriorError):
        AForm(SIG, RANK, 1, 1, {(7,): (SIG.one(),)})
    with pytest.raises(ExteriorError):
        AForm(SIG, RANK, 1, 2, {(1, 0): (SIG.one(),)})  # must be increasing


def test_multivector_section_round_trip():
    coeffs = [SIG.coord("x"), SIG.one(), SIG.zero()]
    m = Multivector(SIG, RANK, 1, {(i,): FScalar.of(c) for i, c in enumerate(coeffs)})
    assert m.degree == 1 and sorted(m.terms) == [(0,), (1,)]
    assert m.section_coeffs() == coeffs


def test_contract_of_a_plain_section_matches_graded_iota():
    # the module-valued contraction agrees with the graded one after the
    # rank-one trivialization: dense sections, dense forms of every degree
    from itertools import combinations

    from courantkit import catalog

    rng = SplitMix(61)
    connected = []
    for name in catalog.names():
        alg = catalog.load(name)["algebroid"]
        if alg.rank_v != 1:
            continue
        sig = alg.sig
        if any(not t.is_zero() for mat in alg.theta for row in mat for t in row):
            connected.append(name)

        def dense():
            c = sig.zero()
            while c.is_zero():
                c = rng.ring_elem(sig, max_degree=1, terms=2)
            return c

        for degree in range(alg.rank + 1):
            X = [dense() for _ in range(alg.rank)]
            terms = {I: (dense(),) for I in combinations(range(alg.rank), degree)}
            w = AForm(sig, alg.rank, 1, degree, terms)
            lhs = aform_to_fform(contract(X, w))
            P = Multivector(sig, alg.rank, 1, {(i,): FScalar.of(c) for i, c in enumerate(X)})
            rhs = iota(P, aform_to_fform(w))
            assert lhs == rhs, (name, degree)
    assert "e1m-r2" in connected and "point-heisenberg-mod" in connected


def test_contract_refuses_a_multivector_or_a_wrong_length():
    w = AForm(SIG, RANK, 1, 1, {(0,): (SIG.one(),)})
    with pytest.raises(ExteriorError):
        contract(Multivector(SIG, RANK, 1, {(0,): FScalar.of(SIG.one())}), w)
    with pytest.raises(ExteriorError):
        contract(frame(0)[:2], w)


@pytest.mark.parametrize(
    "target",
    [
        pytest.param(7, id="int"),
        pytest.param(FForm(SIG, RANK, 1, {(0,): FScalar.of(SIG.one())}), id="fform"),
    ],
)
def test_contract_refuses_a_target_that_is_not_an_aform(target):
    # contract inserts into module-valued forms only; iota is the graded contraction
    with pytest.raises(ExteriorError, match="module-valued form"):
        contract(frame(0), target)


# f^1 ^ f^2 as a module-valued and as a graded form, the graded f^1, and e_1 ^ e_2
_V2 = AForm(SIG, RANK, 1, 2, {(0, 1): (SIG.one(),)})
_F1 = FForm(SIG, RANK, 1, {(0,): FScalar.of(SIG.one())})
_F2 = aform_to_fform(_V2)
_P2 = Multivector(SIG, RANK, 2, {(0, 1): FScalar.of(SIG.one())})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: iota(_P2, _V2), id="iota-aform"),
        pytest.param(lambda: iota(_F1, _F2), id="iota-fform-fform"),
        pytest.param(lambda: breve_contract(_F1, _F2), id="breve-fform-fform"),
        pytest.param(
            lambda: tilde(_P2, AForm(SIG, RANK, 1, 1, {(0,): (SIG.one(),)})), id="tilde-aform"
        ),
        pytest.param(lambda: wedge(_V2, _V2), id="wedge-aforms"),
        pytest.param(lambda: wedge(_V2, _F2), id="wedge-aform-fform"),
    ],
)
def test_graded_operations_refuse_the_wrong_kind(call):
    # the graded operations take graded objects only, and an AForm has no
    # wedge: each wrong kind is an ExteriorError, never a Python error or a form
    with pytest.raises(ExteriorError):
        call()
