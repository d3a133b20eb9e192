import importlib
from itertools import combinations

import pytest

from courantkit import catalog
from courantkit.algebroid import Algebroid
from courantkit.exterior import (
    FForm,
    FScalar,
    Multivector,
    _Alternating,
    breve_contract,
    contract_rear_multi,
    iota,
    merge_indices,
    pair_eval,
    wedge,
)
from courantkit.dirac import is_dirac
from courantkit.gcr import extract_bivector
from courantkit.ring import RingElem
from courantkit.sampling import SplitMix
from courantkit.schouten import (
    SchoutenError,
    bivector_from_matrix,
    check_jacobi_pair,
    graph_sections,
    hamiltonian_section,
    induced_bracket,
    is_poisson,
    is_twisted_poisson,
    jacobi_gauge,
    schouten,
    tilde,
    twist_cube,
    twisted_defect,
    v_bracket,
    v_jacobiator,
)

from cartan_oracle import random_presentation
from schouten_oracle import mixed_multivector, termwise_schouten

# the package exports the function under the module's name
schouten_module = importlib.import_module("courantkit.schouten")


def rand_mv(rng, alg, deg, grades=(0,)):
    terms = {}
    for I in combinations(range(alg.rank), deg):
        if rng.randint(0, 1):
            g = rng.choice(grades)
            e = rng.ring_elem(alg.sig, max_degree=1, terms=1)
            if not e.is_zero():
                terms[I] = FScalar(alg.sig, {g: e})
    return Multivector(alg.sig, alg.rank, deg, terms)


def rand_fform(rng, alg, deg, grades=(0,)):
    terms = {}
    for I in combinations(range(alg.rank), deg):
        if rng.randint(0, 1):
            g = rng.choice(grades)
            e = rng.ring_elem(alg.sig, max_degree=1, terms=1)
            if not e.is_zero():
                terms[I] = FScalar(alg.sig, {g: e})
    return FForm(alg.sig, alg.rank, deg, terms)


def vector(alg, coeffs):
    """Degree-one, grade-zero multivector sum_i coeffs[i] e_i."""
    return Multivector(alg.sig, alg.rank, 1, {(i,): FScalar.of(c) for i, c in enumerate(coeffs)})


def frame_vector(sig, rank, i):
    """The frame section e_i as a multivector."""
    return Multivector(sig, rank, 1, {(i,): FScalar.of(sig.one())})


def sign_scale(P, s):
    return P.scale(FScalar.of(P.sig.const(s)))


# -- the five bracket identities -------------------------------------------------

# The identity oracles run first on an abelian frame with grade-0 coefficients,
# then on entries whose structure functions (point-sl2, point-heisenberg-mod)
# or connection (e1m-r3) are live, with mixed grades, so that the structure
# term and the grade * theta term of the bracket are both exercised.
LIVE_ENTRIES = ("point-sl2", "point-heisenberg-mod", "e1m-r3")
JACOBI_CASES = [("e1m-r2", (0,), 19)] + [
    (n, (-1, 0, 1), 23 + i) for i, n in enumerate(LIVE_ENTRIES)
]
ORACLE_CASES = [("tangent-r3", (0,), 5, 30)] + [
    (n, (-1, 0, 1), 29 + i, 20) for i, n in enumerate(LIVE_ENTRIES)
]


def test_degree_one_bracket_is_algebroid_bracket():
    rng = SplitMix(11)
    alg = catalog.load("tangent-r3")["algebroid"]
    for _ in range(10):
        X = [rng.ring_elem(alg.sig, max_degree=1, terms=1) for _ in range(alg.rank)]
        Y = [rng.ring_elem(alg.sig, max_degree=1, terms=1) for _ in range(alg.rank)]
        lhs = schouten(alg, vector(alg, X), vector(alg, Y))
        rhs = vector(alg, alg.bracket(X, Y))
        assert lhs.equals(rhs)


def test_function_bracket_is_derivation_action():
    # [e1, x e2] = e2 over the abelian tangent frame of the plane
    alg = catalog.load("tangent-r2" if "tangent-r2" in catalog.names() else "symplectic-r2")["algebroid"]
    sig = alg.sig
    x = sig.coord("x")
    e0 = frame_vector(sig, alg.rank, 0)
    xe1 = Multivector(sig, alg.rank, 1, {(1,): FScalar.of(x)})
    got = schouten(alg, e0, xe1)
    assert got.equals(frame_vector(sig, alg.rank, 1))


def test_constant_bracket_vanishes_over_point():
    alg = catalog.load("point-sl2")["algebroid"]
    c = Multivector(alg.sig, alg.rank, 0, {(): FScalar.of(alg.sig.const(3))})
    for i in range(alg.rank):
        got = schouten(alg, frame_vector(alg.sig, alg.rank, i), c)
        assert got.is_zero()


def test_decomposable_square_picks_up_structure_vector():
    # with [X,Y] = Z: [X^Y, X^Y] = 2 Z^X^Y
    alg = catalog.load("point-heisenberg")["algebroid"]
    sig = alg.sig
    P = Multivector(sig, 3, 2, {(0, 1): FScalar.of(sig.one())})
    got = schouten(alg, P, P)
    expected = wedge(
        frame_vector(sig, 3, 2),
        Multivector(sig, 3, 2, {(0, 1): FScalar.of(sig.const(2))}),
    )
    assert got.equals(expected)


def test_schouten_requires_rank_one_module():
    # colliding frame monomials never reach the connection, so the module
    # rank is checked up front rather than left to act_graded
    from courantkit.algebroid import Algebroid
    from courantkit.ring import RingSignature

    sig = RingSignature((), (), mode="rational")
    flat = [[sig.zero()] * 2 for _ in range(2)]
    alg = Algebroid(sig, 2, 2, [[], []], {}, [flat, flat])
    P = Multivector(sig, 2, 2, {(0, 1): FScalar.of(sig.one())})
    with pytest.raises(SchoutenError, match="rank-one module"):
        schouten(alg, P, P)


def test_schouten_rejects_multivectors_of_another_rank():
    alg = catalog.load("tangent-r3")["algebroid"]
    sig = alg.sig
    small = Multivector(sig, 2, 1, {(1,): FScalar.of(sig.one())})
    big = frame_vector(sig, 3, 2)
    for P, Q in ((small, big), (big, small)):
        with pytest.raises(SchoutenError, match="do not live on this algebroid"):
            schouten(alg, P, Q)


def test_graded_antisymmetry():
    rng = SplitMix(13)
    alg = catalog.load("tangent-r3")["algebroid"]
    for _ in range(12):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        P = rand_mv(rng, alg, p, grades=(-1, 0, 1))
        Q = rand_mv(rng, alg, q, grades=(-1, 0, 1))
        sgn = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
        assert schouten(alg, P, Q).equals(sign_scale(schouten(alg, Q, P), sgn))


def test_graded_leibniz():
    # [P, Q^R] = [P,Q]^R + (-1)^{(p-1)q} Q^[P,R]
    rng = SplitMix(17)
    alg = catalog.load("tangent-r3")["algebroid"]
    for _ in range(12):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), 1
        P, Q, R = (
            rand_mv(rng, alg, p),
            rand_mv(rng, alg, q),
            rand_mv(rng, alg, r),
        )
        lhs = schouten(alg, P, wedge(Q, R))
        sgn = -1 if ((p - 1) * q) % 2 else 1
        rhs = wedge(schouten(alg, P, Q), R) + sign_scale(
            wedge(Q, schouten(alg, P, R)), sgn
        )
        assert lhs.equals(rhs)


def test_graded_jacobi():
    # [a,[b,c]] = [[a,b],c] + (-1)^{(|a|-1)(|b|-1)} [b,[a,c]]
    for name, grades, seed in JACOBI_CASES:
        rng = SplitMix(seed)
        alg = catalog.load(name)["algebroid"]
        for _ in range(10):
            p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            a, b, c = (
                rand_mv(rng, alg, p, grades),
                rand_mv(rng, alg, q, grades),
                rand_mv(rng, alg, r, grades),
            )
            lhs = schouten(alg, a, schouten(alg, b, c))
            sgn = -1 if ((p - 1) * (q - 1)) % 2 else 1
            rhs = schouten(alg, schouten(alg, a, b), c) + sign_scale(
                schouten(alg, b, schouten(alg, a, c)), sgn
            )
            assert lhs.equals(rhs), name


def test_operator_identity_oracle():
    # iota_{[P,Q]} = -[[iota_Q, d], iota_P] with |d| = 1, |iota_P| = -p
    for name, grades, seed, trials in ORACLE_CASES:
        rng = SplitMix(seed)
        alg = catalog.load(name)["algebroid"]
        d = alg.d_graded
        neg = FScalar.of(alg.sig.const(-1))
        for _ in range(trials):
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            P, Q = rand_mv(rng, alg, p, grades), rand_mv(rng, alg, q, grades)
            k = rng.randint(max(p + q - 1, 0), alg.rank)
            w = rand_fform(rng, alg, k, grades=(-1, 0, 1))

            def inner(u):
                r = iota(Q, d(u))
                s = d(iota(Q, u))
                return r - s if q % 2 == 0 else r + s

            rhs = inner(iota(P, w))
            back = iota(P, inner(w))
            rhs = rhs - back if ((1 - q) * p) % 2 == 0 else rhs + back
            lhs = iota(schouten(alg, P, Q), w)
            assert lhs.equals(rhs.scale(neg)), name


def test_breve_right_derivation_law():
    # breve(a)(P^Q) = P^breve(a)Q + (-1)^{|Q|} (breve(a)P)^Q for 1-forms a
    rng = SplitMix(37)
    alg = catalog.load("tangent-r3")["algebroid"]
    for _ in range(15):
        a = rand_fform(rng, alg, 1, grades=(0, 1))
        p, q = rng.randint(1, 2), 1
        P, Q = rand_mv(rng, alg, p), rand_mv(rng, alg, q)
        lhs = breve_contract(a, wedge(P, Q))
        rhs = wedge(P, breve_contract(a, Q))
        tail = wedge(breve_contract(a, P), Q)
        rhs = rhs + tail if q % 2 == 0 else rhs - tail
        assert lhs.equals(rhs)


def test_breve_duality_pairing():
    # <xi ^ alpha, P> = <xi, breve(alpha) P>
    rng = SplitMix(43)
    alg = catalog.load("tangent-r3")["algebroid"]
    for _ in range(15):
        alpha = rand_fform(rng, alg, 1)
        P = rand_mv(rng, alg, 2)
        xi = rand_fform(rng, alg, 1)
        assert pair_eval(wedge(xi, alpha), P) == pair_eval(
            xi, breve_contract(alpha, P)
        )


# -- the collect against the term-by-term oracle ----------------------------------


def _catalog_algebroids():
    for name in catalog.names():
        p = catalog.load(name)
        yield name, p["algebroid"]
        if "jacobi" in p:
            yield name + ":jacobi", p["jacobi"]["algebroid"]


def _agrees_with_oracle(alg, rng, trials, label):
    for _ in range(trials):
        p, q = rng.randint(0, min(3, alg.rank)), rng.randint(0, min(3, alg.rank))
        P, Q = mixed_multivector(rng, alg, p), mixed_multivector(rng, alg, q)
        for A, B in ((P, Q), (Q, P), (P, P)):
            got = schouten(alg, A, B)
            assert got.equals(termwise_schouten(alg, A, B)), (label, A, B)
            assert all(c.parts and all(e.terms for e in c.parts.values()) for c in got.terms.values())


def test_schouten_equals_the_termwise_oracle_on_every_catalog_algebroid():
    rng = SplitMix(101)
    algebroids = list(_catalog_algebroids())
    assert len(algebroids) == 20
    for label, alg in algebroids:
        _agrees_with_oracle(alg, rng, 6, label)
    # the catalog's own Jacobi pair, both brackets of check_jacobi_pair
    alg, lam, e = contact_pair()
    for A, B in ((lam, lam), (lam, e), (e, lam)):
        assert schouten(alg, A, B).equals(termwise_schouten(alg, A, B))


def test_schouten_equals_the_termwise_oracle_on_random_presentations():
    # Q(i) with an exponential generator; function-valued anchor, every
    # structure function and Theta drawn, so the grade * theta term of e_i.w
    # and the structure term are both live
    for seed, rank in ((41, 2), (42, 3), (43, 3), (44, 4), (45, 4)):
        alg = random_presentation(seed, rank, rank_v=1).alg
        assert alg.structure and alg.theta_scalar(0).terms
        _agrees_with_oracle(alg, SplitMix(seed), 5, (seed, rank))


def test_square_of_an_even_multivector_visits_each_pair_of_terms_once(monkeypatch):
    # [P, P] for a bivector of m terms brackets each unordered pair of terms
    # once: two rear contractions per term of a pair, 2m(m+1) in all, where
    # [P, Q] for an equal copy Q reads all m^2 ordered pairs, 4m^2.  A
    # trivector's square, whose terms anticommute, keeps every ordered pair.
    calls = []
    real = schouten_module.contract_rear_multi
    monkeypatch.setattr(
        schouten_module, "contract_rear_multi", lambda *a: calls.append(1) or real(*a)
    )
    checked = 0
    for seed, rank in ((47, 3), (48, 4), (49, 4), (50, 5)):
        alg = random_presentation(seed, rank, rank_v=1).alg
        assert alg.structure and alg.theta_scalar(0).terms
        rng = SplitMix(seed)
        for degree, per_pair in ((2, 4), (3, 6)):
            P = mixed_multivector(rng, alg, degree)
            m = len(P.terms)
            copy = Multivector(alg.sig, alg.rank, degree, dict(P.terms))
            calls.clear()
            square = schouten(alg, P, P)
            pairs = m * (m + 1) // 2 if degree == 2 else m * m
            assert len(calls) == per_pair * pairs
            calls.clear()
            assert square.equals(schouten(alg, P, copy))
            assert len(calls) == per_pair * m * m
            assert square.equals(termwise_schouten(alg, P, P))
            checked += degree == 2 and m > 1 and not square.is_zero()
    assert checked >= 3


def _calls_inside(monkeypatch, function, targets) -> dict:
    """Count calls of each (owner, name) target made while schouten_module.function runs."""
    counts = {}
    depth = [0]
    for owner, name in targets:
        real = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        counts[key] = 0

        def wrapped(*args, real=real, key=key, **kwargs):
            counts[key] += depth[0] > 0
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
    real_function = getattr(schouten_module, function)

    def counted(*args):
        depth[0] += 1
        try:
            return real_function(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(schouten_module, function, counted)
    return counts


def test_check_jacobi_pair_adds_nothing_inside_schouten(monkeypatch):
    # every sum of a verdict is an Accumulator, reached through exactly three
    # Multivector.collect calls: lam ^ e, then one per bracket, the first
    # summing [lam,lam] + 2 lam ^ e
    alg, lam, e = contact_pair()
    counts = _calls_inside(
        monkeypatch,
        "check_jacobi_pair",
        [
            (RingElem, "__add__"),
            (FScalar, "__add__"),
            (_Alternating, "collect"),
            (schouten_module, "schouten"),
        ],
    )
    assert schouten_module.check_jacobi_pair(alg, lam, e)["ok"]
    assert counts == {
        "RingElem.__add__": 0,
        "FScalar.__add__": 0,
        "_Alternating.collect": 3,
        "courantkit.schouten.schouten": 2,
    }


def _action_reads(P, Q) -> list:
    """(i, id(w)) for each e_i.w the closed formula reads, once per pair of terms.

    The formula reads e_i.w for i in I whenever e_{I - i} ^ e_J is nonzero,
    for every term v e_I of one operand and w e_J of the other.
    """
    return [
        (i, id(w))
        for A, B in ((P, Q), (Q, P))
        for I in A.terms
        for J, w in B.terms.items()
        for i in I
        if merge_indices(contract_rear_multi((i,), I)[0], J) is not None
    ]


def test_schouten_acts_once_per_frame_index_and_operand_term(monkeypatch):
    calls = []
    real = Algebroid.act_graded

    def counting(self, i, w):
        calls.append((i, id(w)))
        return real(self, i, w)

    monkeypatch.setattr(Algebroid, "act_graded", counting)
    alg, lam, e = contact_pair()
    cases = [(alg, lam, lam), (alg, lam, lam), (alg, lam, e)]
    rng = SplitMix(107)
    for alg in (catalog.load("e1m-r3")["algebroid"], random_presentation(46, 4, rank_v=1).alg):
        P, Q = mixed_multivector(rng, alg, 2), mixed_multivector(rng, alg, 2)
        cases += [(alg, P, Q), (alg, P, P), (alg, P, Q)]
    shared = 0
    for alg, P, Q in cases:
        calls.clear()
        schouten(alg, P, Q)
        reads = _action_reads(P, Q)
        # one action per distinct read, and none kept from an earlier call
        assert sorted(calls) == sorted(set(reads))
        shared += len(reads) > len(set(reads))
    assert shared >= 4


def test_check_jacobi_pair_acts_once_per_frame_index_and_operand_term(monkeypatch):
    # the two brackets of a verdict read one table of frame actions: each
    # e_i.w is computed once, though both brackets read e_i.w on lam's terms
    calls = []
    real = Algebroid.act_graded

    def counting(self, i, w):
        calls.append((i, id(w)))
        return real(self, i, w)

    monkeypatch.setattr(Algebroid, "act_graded", counting)
    rng = SplitMix(109)
    cases = [contact_pair()]
    for alg in (catalog.load("e1m-r3")["algebroid"], random_presentation(51, 4, rank_v=1).alg):
        cases += [
            (alg, mixed_multivector(rng, alg, 2), mixed_multivector(rng, alg, 1)) for _ in range(3)
        ]
    shared = 0
    for alg, lam, e in cases:
        calls.clear()
        check_jacobi_pair(alg, lam, e)
        square, e_reads = _action_reads(lam, lam), _action_reads(lam, e)
        assert sorted(calls) == sorted(set(square + e_reads))
        shared += bool(set(square) & set(e_reads))
    assert shared >= 3


# -- induced brackets on covectors and sections ----------------------------------


def symplectic_setup():
    p = catalog.load("symplectic-r2")
    C = p["courant"]
    P = extract_bivector(p["gcr"])
    return C, P


def test_symplectic_bivector_golden():
    C, P = symplectic_setup()
    sig = C.alg.sig
    want = Multivector(sig, 2, 2, {(0, 1): FScalar(sig, {-1: sig.one()})})
    assert P.equals(want)
    assert is_poisson(C.alg, P)


def test_induced_bracket_golden():
    C, P = symplectic_setup()
    sig = C.alg.sig
    x = sig.coord("x")
    xi = FForm(sig, 2, 1, {(1,): FScalar(sig, {1: sig.one()})})
    eta = FForm(sig, 2, 1, {(0,): FScalar(sig, {1: x})})
    got = induced_bracket(C, P, xi, eta)
    want = FForm(sig, 2, 1, {(0,): FScalar(sig, {1: sig.const(-1)})})
    assert got.equals(want)


def test_induced_bracket_constant_covectors():
    C, P = symplectic_setup()
    sig = C.alg.sig
    xi = FForm(sig, 2, 1, {(0,): FScalar(sig, {1: sig.one()})})
    eta = FForm(sig, 2, 1, {(1,): FScalar(sig, {1: sig.one()})})
    assert induced_bracket(C, P, xi, eta).is_zero()


def rand_covector(rng, alg):
    return rand_fform(rng, alg, 1, grades=(1,))


def test_induced_bracket_antisymmetry_and_jacobi():
    rng = SplitMix(47)
    for name in ("symplectic-r2", "contact-r3"):
        p = catalog.load(name)
        C = p["courant"]
        P = extract_bivector(p["gcr"])
        alg = C.alg
        neg = FScalar.of(alg.sig.const(-1))
        for _ in range(8):
            xi, eta, zeta = (rand_covector(rng, alg) for _ in range(3))
            assert induced_bracket(C, P, xi, eta).equals(
                induced_bracket(C, P, eta, xi).scale(neg)
            )
            j = induced_bracket(C, P, xi, induced_bracket(C, P, eta, zeta))
            j = j + induced_bracket(C, P, eta, induced_bracket(C, P, zeta, xi))
            j = j + induced_bracket(C, P, zeta, induced_bracket(C, P, xi, eta))
            assert j.is_zero(), name


def test_induced_anchor_is_bracket_morphism():
    # tilde(P, [xi,eta]) = [tilde(P,xi), tilde(P,eta)] as multivector fields
    rng = SplitMix(51)
    for name in ("symplectic-r2", "contact-r3"):
        p = catalog.load(name)
        C = p["courant"]
        P = extract_bivector(p["gcr"])
        alg = C.alg
        for _ in range(6):
            xi, eta = rand_covector(rng, alg), rand_covector(rng, alg)
            lhs = tilde(P, induced_bracket(C, P, xi, eta))
            rhs = schouten(alg, tilde(P, xi), tilde(P, eta))
            assert lhs.equals(rhs), name


def test_v_bracket_golden_and_bullets():
    C, P = symplectic_setup()
    alg = C.alg
    sig = alg.sig
    x, y = sig.coord("x"), sig.coord("y")
    v = FScalar(sig, {1: x})
    w = FScalar(sig, {1: y})
    assert v_bracket(alg, P, v, w) == FScalar(sig, {1: sig.one()})
    assert v_bracket(alg, P, v, v).is_zero()


def test_v_bracket_four_bullets_random():
    rng = SplitMix(61)
    for name in ("symplectic-r2", "contact-r3"):
        p = catalog.load(name)
        C = p["courant"]
        P = extract_bivector(p["gcr"])
        alg = C.alg
        sig = alg.sig
        for _ in range(6):
            v = FScalar(sig, {1: rng.ring_elem(sig, max_degree=2, terms=2)})
            w = FScalar(sig, {1: rng.ring_elem(sig, max_degree=2, terms=2)})
            z = FScalar(sig, {1: rng.ring_elem(sig, max_degree=2, terms=2)})
            f = rng.ring_elem(sig, max_degree=1, terms=2)
            # bilinear
            assert v_bracket(alg, P, v + w, z) == v_bracket(alg, P, v, z) + v_bracket(
                alg, P, w, z
            )
            # antisymmetric
            assert v_bracket(alg, P, v, w) == -v_bracket(alg, P, w, v)
            # Leibniz: {v, f w} = f {v,w} + (X_v f) w
            Xv = hamiltonian_section(alg, P, v)
            df = alg.d_graded(FForm(sig, alg.rank, 0, {(): FScalar.of(f)}))
            action = pair_eval(df, Xv)
            lhs = v_bracket(alg, P, v, w * FScalar.of(f))
            rhs = v_bracket(alg, P, v, w) * FScalar.of(f) + w * action
            assert lhs == rhs, name
            # Jacobi
            assert v_jacobiator(alg, P, v, w, z).is_zero(), name


def test_hamiltonian_section_golden():
    C, P = symplectic_setup()
    alg = C.alg
    sig = alg.sig
    v = FScalar(sig, {1: sig.coord("x")})
    assert hamiltonian_section(alg, P, v).equals(frame_vector(sig, 2, 1))


@pytest.mark.parametrize("call", ["v_bracket", "hamiltonian_section", "induced_bracket"])
def test_a_form_of_the_wrong_degree_is_refused_not_zeroed(call):
    # a section passed as a degree-1 form, or a 2-form passed as a covector,
    # used to give a zero back
    C, P = symplectic_setup()
    alg = C.alg
    sig = alg.sig
    xi = FForm(sig, 2, 1, {(1,): FScalar(sig, {1: sig.one()})})
    two = wedge(xi, FForm(sig, 2, 1, {(0,): FScalar.of(sig.coord("x"))}))
    v = FScalar(sig, {1: sig.coord("x")})
    run = {
        "v_bracket": lambda: v_bracket(alg, P, xi, v),
        "hamiltonian_section": lambda: hamiltonian_section(alg, P, xi),
        "induced_bracket": lambda: induced_bracket(C, P, two, xi),
    }[call]
    with pytest.raises(SchoutenError):
        run()


# -- twisted structures ----------------------------------------------------------


def test_twisted_defect_reduces_to_square_when_untwisted():
    rng = SplitMix(73)
    C = catalog.standard_courant(3)
    alg = C.alg
    for _ in range(8):
        P = rand_mv(rng, alg, 2, grades=(-1,))
        assert twist_cube(C, P).is_zero()
        assert twisted_defect(C, P).equals(schouten(alg, P, P))


def test_twisted_defect_is_the_square_minus_twice_the_cube():
    # one collect sums [P,P] - 2 twist_cube(C, P); the same residual summed
    # piece by piece, on the catalog's twisted entries and drawn presentations
    rng = SplitMix(79)
    presentations = [catalog.load(n)["courant"] for n in ("standard-r3-twisted", "nonclosed-r4")]
    presentations += [random_presentation(seed, rank, rank_v=1) for seed, rank in ((52, 3), (53, 4))]
    nonzero = 0
    for C in presentations:
        alg = C.alg
        assert not C.twist.is_zero()
        for P in [rand_mv(rng, alg, 2, grades=(-1,)) for _ in range(4)] + [
            mixed_multivector(rng, alg, 2) for _ in range(4)
        ]:
            want = schouten(alg, P, P) - twist_cube(C, P).scale(2)
            got = twisted_defect(C, P)
            assert got.equals(want) and got.degree == 3
            nonzero += not twist_cube(C, P).is_zero() and not got.is_zero()
    assert nonzero >= 6


@pytest.mark.parametrize("degree", [1, 3])
def test_twisted_analysis_takes_a_bivector(degree):
    C = catalog.load("standard-r3-twisted")["courant"]
    P = rand_mv(SplitMix(83), C.alg, degree)
    for call in (twist_cube, twisted_defect, is_twisted_poisson):
        with pytest.raises(SchoutenError, match="expected a bivector"):
            call(C, P)


def test_twist_cube_golden_rank4():
    from courantkit.exterior import AForm

    alg = catalog.tangent_algebroid(("x", "y", "z", "w"))
    sig = alg.sig
    twist = AForm(sig, 4, 1, 3, {(0, 1, 2): (sig.one(),)})
    from courantkit.courant import CourantPresentation

    C = CourantPresentation(alg, twist)
    P = Multivector(
        sig,
        4,
        2,
        {(0, 1): FScalar(sig, {-1: sig.one()}), (2, 3): FScalar(sig, {-1: sig.one()})},
    )
    cube = twist_cube(C, P)
    want = Multivector(sig, 4, 3, {(0, 1, 3): FScalar(sig, {-2: sig.one()})})
    assert cube.equals(want)
    assert schouten(alg, P, P).is_zero()
    assert not is_twisted_poisson(C, P)
    assert is_twisted_poisson(C, Multivector(sig, 4, 2, {(0, 1): FScalar(sig, {-1: sig.one()})}))


# -- Jacobi pairs ----------------------------------------------------------------


def contact_pair():
    p = catalog.load("contact-r3")
    return p["jacobi"]["algebroid"], p["jacobi"]["lambda"], p["jacobi"]["e"]


def test_contact_jacobi_pair_passes():
    alg, lam, e = contact_pair()
    rep = check_jacobi_pair(alg, lam, e)
    assert rep["ok"] and rep["square_ok"] and rep["e_ok"]
    assert rep["nondegenerate"]


def test_textbook_contact_pair():
    # (d/dx + y d/dz) ^ d/dy with E = d/dz
    alg = catalog.tangent_algebroid(("x", "y", "z"))
    sig = alg.sig
    y = sig.coord("y")
    lam = Multivector(
        sig, 3, 2, {(0, 1): FScalar.of(sig.one()), (1, 2): FScalar.of(-y)}
    )
    e = Multivector(sig, 3, 1, {(2,): FScalar.of(sig.one())})
    rep = check_jacobi_pair(alg, lam, e)
    assert rep["ok"] and rep["nondegenerate"]


def test_poisson_is_jacobi_with_zero_e():
    alg = catalog.tangent_algebroid(("x", "y"))
    sig = alg.sig
    lam = Multivector(sig, 2, 2, {(0, 1): FScalar.of(sig.one())})
    zero_e = Multivector.zero(sig, 2, 1)
    rep = check_jacobi_pair(alg, lam, zero_e)
    assert rep["ok"]
    assert not rep["nondegenerate"]  # lam ^ 0 = 0

    xlam = lam.scale(FScalar.of(sig.coord("x")))
    rep = check_jacobi_pair(alg, xlam, zero_e)
    assert rep["square_ok"] and rep["ok"]


def test_jacobi_pair_requires_right_degrees():
    alg, lam, e = contact_pair()
    with pytest.raises(SchoutenError):
        check_jacobi_pair(alg, e, e)


def test_jacobi_gauge_identity_and_rescalings():
    alg, lam, e = contact_pair()
    sig = alg.sig
    l1, e1 = jacobi_gauge(alg, lam, e, sig.one())
    assert l1.equals(lam) and e1.equals(e)
    for f in (sig.const(2), sig.one() + sig.coord("x") * sig.coord("x")):
        lf, ef = jacobi_gauge(alg, lam, e, f)
        rep = check_jacobi_pair(alg, lf, ef)
        assert rep["ok"], str(f)


def test_jacobi_gauge_random_factors():
    rng = SplitMix(97)
    alg, lam, e = contact_pair()
    sig = alg.sig
    for _ in range(8):
        f = sig.const(rng.randint(1, 3))
        g = rng.ring_elem(sig, max_degree=1, terms=1)
        f = f + g * g  # positive constant plus a square never vanishes
        lf, ef = jacobi_gauge(alg, lam, e, f)
        assert check_jacobi_pair(alg, lf, ef)["ok"]


def test_jacobi_gauge_rejects_zero():
    alg, lam, e = contact_pair()
    with pytest.raises(SchoutenError):
        jacobi_gauge(alg, lam, e, alg.sig.zero())


# -- parallel trivializations -----------------------------------------------------


def test_parallel_sections_detection():
    flat = catalog.load("symplectic-r2")["algebroid"]
    assert flat.parallel_sections() == [[flat.sig.one()]]
    acted = catalog.load("contact-r3")["algebroid"]
    assert acted.parallel_sections() == []


# -- graph subbundles ---------------------------------------------------------------


def test_graph_of_poisson_bivector_is_dirac():
    C = catalog.standard_courant(3)
    P = bivector_from_matrix(C.alg, [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]])
    assert is_poisson(C.alg, P)
    ok, report = is_dirac(C, graph_sections(C, P))
    assert ok and report["lagrangian"] and report["involutive"]


def test_graph_of_non_poisson_bivector_is_not_dirac():
    # the bivector of v = (-y^2, x^2, 1); v . curl v = 2x + 2y, so it is not Poisson
    C = catalog.standard_courant(3)
    rows = [["0", "1", "-x^2"], ["-1", "0", "-y^2"], ["x^2", "y^2", "0"]]
    P = bivector_from_matrix(C.alg, rows)
    assert not is_poisson(C.alg, P)
    ok, report = is_dirac(C, graph_sections(C, P))
    assert not ok
    assert report["lagrangian"] and not report["involutive"]
    assert report["involutive_witness"]["residual"]["x"] == ["0", "0", "-2*x - 2*y"]
