import ce_oracle
import pytest
from calculus_oracle import termwise_derivation
from courantkit import catalog
from courantkit.algebroid import MAX_VALIDATE_RANK, Algebroid, CochainLimitError, RankLimitError
from courantkit.courant import CourantPresentation
from courantkit.exterior import AForm, FForm, FScalar, aform_to_fform, contract, wedge
from courantkit.ring import RingElem, RingSignature
from courantkit.sampling import SplitMix


def rand_vform(rng, alg, degree):
    from itertools import combinations

    terms = {}
    for I in combinations(range(alg.rank), degree):
        if rng.randint(0, 1):
            vec = tuple(
                rng.ring_elem(alg.sig, max_degree=1, terms=2)
                for _ in range(alg.rank_v)
            )
            if any(not c.is_zero() for c in vec):
                terms[I] = vec
    return AForm(alg.sig, alg.rank, alg.rank_v, degree, terms)


def test_extended_tangent_bracket_formula():
    # [X + f c, Y + g c] = [X, Y] + (X(g) - Y(f)) c with c the central direction
    C = catalog.e1m(2)
    alg = C.alg
    sig = alg.sig
    x, y = sig.coord("x"), sig.coord("y")
    X = [sig.one(), sig.zero(), x * y]  # d/dx + xy c
    Y = [sig.zero(), sig.one(), y]  # d/dy + y c
    got = alg.bracket(X, Y)
    assert got[0].is_zero() and got[1].is_zero()
    expected = X[0] * Y[2].partial("x") + X[1] * Y[2].partial("y") - (
        Y[0] * X[2].partial("x") + Y[1] * X[2].partial("y")
    )
    assert got[2] == expected
    assert got[2] == sig.zero() - x  # X(g) - Y(f) = 0 - x


def test_central_direction_leibniz():
    # bracket of frame X with g*(central) equals X(g)*(central)
    C = catalog.e1m(3)
    alg = C.alg
    sig = alg.sig
    g = sig.coord("x") * sig.coord("z")
    section = [sig.zero(), sig.zero(), sig.zero(), g]
    got = alg.bracket(alg.frame_section(0), section)
    assert got[:3] == [sig.zero()] * 3
    assert got[3] == g.partial("x")


def test_validate_passes_on_catalog_algebroids():
    for name in catalog.names():
        p = catalog.load(name)
        v = p["algebroid"].validate()
        expected_ok = p["expected"].get("valid", True)
        got_ok = v["jacobi_ok"] and v["anchor_ok"] and v["flat_ok"]
        assert got_ok == expected_ok, name


def test_curvature_control_fails_flatness_with_witness():
    p = catalog.load("curvature-control-r2")
    v = p["algebroid"].validate()
    assert not v["flat_ok"]
    assert v["curvature_defects"], "a curvature witness is required"
    (pair, mat) = v["curvature_defects"][0]
    assert tuple(pair) == (0, 1)


def test_d_squared_zero_random():
    rng = SplitMix(101)
    for name in ("tangent-r3", "e1m-r2", "point-sl2", "point-heisenberg-mod"):
        alg = catalog.load(name)["algebroid"]
        for _ in range(15):
            k = rng.randint(0, max(alg.rank - 1, 0))
            w = rand_vform(rng, alg, k)
            assert alg.d(alg.d(w)).is_zero(), name


def test_lie_is_commutator_of_d_and_contraction():
    # L_X = d i_X + i_X d on module-valued forms
    rng = SplitMix(59)
    alg = catalog.e1m(2).alg

    for _ in range(20):
        X = [rng.ring_elem(alg.sig, max_degree=1, terms=2) for _ in range(alg.rank)]
        k = rng.randint(1, 2)
        w = rand_vform(rng, alg, k)
        lhs = alg.lie(X, w)
        rhs = alg.d(contract(X, w)) + contract(X, alg.d(w))
        assert lhs.equals(rhs)


def test_lie_and_bracket_obey_the_cartan_identities_with_structure_functions():
    # drawn presentations with nonzero c_ij^k, function-valued anchor and Theta,
    # which satisfy no axiom: L_X = d i_X + i_X d and [L_X, i_Y] = i_[X,Y] hold
    # as identities of the formulas, on module-valued forms of every degree
    from cartan_oracle import random_presentation

    rng = SplitMix(83)
    checked = 0
    for seed, rank, rank_v in ((3, 3, 1), (4, 3, 2), (5, 4, 1), (6, 4, 2)):
        alg = random_presentation(seed, rank, rank_v).alg
        assert sum(any(c.terms for c in vec) for vec in alg.structure.values()) >= rank
        for _ in range(3):
            X, Y = ([rng.ring_elem(alg.sig, 1, 2) for _ in range(rank)] for _ in range(2))
            X[rng.randint(0, rank - 1)] = alg.sig.zero()
            XY = alg.bracket(X, Y)
            for k in range(rank + 1):
                w = rand_vform(rng, alg, k)
                lie = alg.lie(X, w)
                if k:
                    assert lie.equals(alg.d(contract(X, w)) + contract(X, alg.d(w)))
                    assert (alg.lie(X, contract(Y, w)) - contract(Y, lie)).equals(contract(XY, w))
                else:
                    assert lie.equals(contract(X, alg.d(w)))
                checked += not lie.is_zero()
    assert checked >= 30


def test_change_frame_preserves_validity_and_cohomology():
    alg = catalog.load("point-sl2")["algebroid"]
    rng = SplitMix(71)
    n = alg.rank
    for _ in range(5):
        # unipotent upper-triangular frames are always invertible over Q
        M = [[alg.sig.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                M[i][j] = alg.sig.const(rng.randint(-2, 2))
        moved = alg.change_frame(M)
        v = moved.validate()
        assert v["jacobi_ok"] and v["anchor_ok"] and v["flat_ok"]
        assert moved.ce_cohomology() == alg.ce_cohomology()


def test_point_cohomology_matches_brute_force_oracle():
    for name in ("point-abelian2", "point-sl2", "point-heisenberg", "point-heisenberg-mod"):
        alg = catalog.load(name)["algebroid"]
        assert alg.ce_cohomology() == ce_oracle.betti(alg), name


def test_h0_is_invariant_dimension():
    for name in ("point-abelian2", "point-sl2", "point-heisenberg", "point-heisenberg-mod"):
        alg = catalog.load(name)["algebroid"]
        assert alg.ce_cohomology()[0] == ce_oracle.invariant_dimension(alg), name


def test_betti_golden_values():
    assert catalog.load("point-sl2")["algebroid"].ce_cohomology() == [1, 0, 0, 1]
    assert catalog.load("point-heisenberg")["algebroid"].ce_cohomology() == [1, 2, 2, 1]
    assert catalog.load("point-heisenberg-mod")["algebroid"].ce_cohomology() == [0, 0, 0, 0]
    assert catalog.load("point-abelian2")["algebroid"].ce_cohomology() == [1, 2, 1]


def test_one_degree_cohomology_matches_the_full_complex():
    for name in ("point-abelian2", "point-sl2", "point-heisenberg", "point-heisenberg-mod"):
        alg = catalog.load(name)["algebroid"]
        got = [alg.cohomology_dim(k) for k in range(alg.rank + 3)]
        assert got == alg.ce_cohomology() + [0, 0], name


def test_one_degree_cohomology_refuses_oversized_cochain_spaces():
    sig = RingSignature(())
    alg = Algebroid(sig, 24, 1, [[] for _ in range(24)], {})
    with pytest.raises(CochainLimitError):
        alg.cohomology_dim(3)
    # degree 24 touches only C(24, 23), C(24, 24) and C(24, 25) = 0 cochains
    assert alg.cohomology_dim(24) == 1


def test_validate_refuses_oversized_ranks_before_any_work(monkeypatch):
    sig = RingSignature(())
    n = MAX_VALIDATE_RANK
    rep = Algebroid(sig, n, 1, [[] for _ in range(n)], {}).validate()
    assert rep["jacobi_ok"] and rep["anchor_ok"] and rep["flat_ok"]
    big = Algebroid(sig, n + 1, 1, [[] for _ in range(n + 1)], {})

    def refuse(*args):
        raise AssertionError("the Jacobi sweep ran")

    monkeypatch.setattr(Algebroid, "jacobi_defect", refuse)
    with pytest.raises(RankLimitError, match=f"rankA {n + 1} is over the limit of {n}"):
        big.validate()
    # verify reports the algebroid checks, so its sampled sweep has the same budget
    with pytest.raises(RankLimitError):
        CourantPresentation(big).verify(samples=1, frame_sweep=False)


def test_anchor_bracket_homomorphism_defect_zero():
    alg = catalog.e1m(3).alg
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            assert all(c.is_zero() for c in alg.anchor_defect(i, j))


def test_invalid_jacobi_rejected():
    # structure constants violating Jacobi: [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e1+e2
    sig = RingSignature((), (), mode="rational")
    alg = Algebroid(
        sig,
        3,
        1,
        [[] for _ in range(3)],
        {
            (0, 1): (sig.zero(), sig.zero(), sig.one()),
            (0, 2): (sig.zero(), sig.one(), sig.zero()),
            (1, 2): (sig.one(), sig.one(), sig.zero()),
        },
        [[[sig.zero()]] for _ in range(3)],
    )
    v = alg.validate()
    assert not v["jacobi_ok"]
    assert v["jacobi_defects"]


def test_lie_function_linearity_with_leibniz_correction():
    # L_{fX} w = f L_X w + df ^ i_X w, df taken through the anchor
    rng = SplitMix(77)
    for name in ("e1m-r2", "tangent-r3"):
        alg = catalog.load(name)["algebroid"]
        sig = alg.sig
        for _ in range(25):
            X = [rng.ring_elem(sig, max_degree=1, terms=1) for _ in range(alg.rank)]
            f = rng.ring_elem(sig, max_degree=1, terms=2)
            fX = [f * c for c in X]
            # df is a grade-0 graded form, so the identity is read on the graded side
            df = FForm(
                sig,
                alg.rank,
                1,
                {
                    (i,): FScalar.of(
                        termwise_derivation(
                            alg.anchor_vector(
                                [sig.one() if j == i else sig.zero() for j in range(alg.rank)]
                            ),
                            f,
                        )
                    )
                    for i in range(alg.rank)
                },
            )
            k = rng.randint(1, alg.rank - 1)
            w = rand_vform(rng, alg, k)
            corr = wedge(df, aform_to_fform(contract(X, w)))
            lhs = aform_to_fform(alg.lie(fX, w))
            assert lhs.equals(aform_to_fform(alg.lie(X, w).scale(f)) + corr)
            w0 = rand_vform(rng, alg, 0)
            assert alg.lie(fX, w0).equals(alg.lie(X, w0).scale(f))


def test_bracket_sums_each_entry_in_one_accumulator(monkeypatch):
    # no RingElem.__add__ inside Algebroid.bracket, on random sections of every
    # catalog algebroid and in validate's Jacobi sweep; the values are those
    # of the term-by-term formula.  validate itself sums its Jacobi, anchor
    # and curvature defects in Accumulators too: no RingElem.__add__ or
    # __sub__ anywhere inside it
    # (six random pairs per algebroid: validate forms no bracket [e_a, 0], so
    # the pairs supply most of the brackets the floor below counts)
    rng = SplitMix(239)
    cases = []
    for name in catalog.names():
        alg = catalog.load(name)["algebroid"]
        for _ in range(6):
            X, Y = ([rng.ring_elem(alg.sig, 2, 3) for _ in range(alg.rank)] for _ in range(2))
            ax, ay = alg.anchor_vector(X), alg.anchor_vector(Y)
            want = [termwise_derivation(ax, y) - termwise_derivation(ay, x) for x, y in zip(X, Y)]
            for i in range(alg.rank):
                for j in range(alg.rank):
                    for k, c in enumerate(alg.frame_bracket(i, j)):
                        want[k] = want[k] + X[i] * Y[j] * c
            cases.append((alg, X, Y, want))
    adds, depth, brackets = [0], [0], [0]
    sums, validating, validated = [0], [0], [0]
    real_bracket, real_validate = Algebroid.bracket, Algebroid.validate
    real_add, real_sub = RingElem.__add__, RingElem.__sub__

    def bracket(self, X, Y):
        brackets[0] += 1
        depth[0] += 1
        try:
            return real_bracket(self, X, Y)
        finally:
            depth[0] -= 1

    def validate(self):
        validated[0] += 1
        validating[0] += 1
        try:
            return real_validate(self)
        finally:
            validating[0] -= 1

    def add(self, other):
        adds[0] += depth[0] > 0
        sums[0] += validating[0] > 0
        return real_add(self, other)

    def sub(self, other):
        sums[0] += validating[0] > 0
        return real_sub(self, other)

    monkeypatch.setattr(Algebroid, "bracket", bracket)
    monkeypatch.setattr(Algebroid, "validate", validate)
    monkeypatch.setattr(RingElem, "__add__", add)
    monkeypatch.setattr(RingElem, "__sub__", sub)
    for alg, X, Y, want in cases:
        assert alg.bracket(X, Y) == want
    for alg in {id(alg): alg for alg, *_ in cases}.values():
        if alg.rank <= 5:
            alg.validate()
    assert brackets[0] > 100
    assert adds[0] == 0
    assert validated[0] > 10
    assert sums[0] == 0
