from fractions import Fraction

import pytest

from calculus_oracle import termwise_derivation
from cartan_oracle import random_presentation, random_section
from courantkit import catalog
from courantkit.algebroid import Algebroid
from courantkit.courant import (
    MAX_FRAME,
    MAX_SAMPLES,
    CourantError,
    CourantPresentation,
    CSection,
    SweepLimitError,
)
from courantkit.dirac import DiracError, graph_two_form
from courantkit.exterior import AForm, FScalar, Multivector, aform_to_fform, contract
from courantkit.gcr import GCRError, symplectic_gcr
from courantkit.sampling import SplitMix


def rand_section(rng, C):
    alg = C.alg
    x = rng.coeff_vector(alg.sig, alg.rank, max_degree=1, terms=1)
    terms = {}
    for i in range(alg.rank):
        if rng.randint(0, 1):
            vec = tuple(
                rng.ring_elem(alg.sig, max_degree=1, terms=1)
                for _ in range(alg.rank_v)
            )
            if any(not c.is_zero() for c in vec):
                terms[(i,)] = vec
    return CSection(alg, x, AForm(alg.sig, alg.rank, alg.rank_v, 1, terms))


def rand_two_form(rng, alg):
    terms = {}
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            if rng.randint(0, 1):
                vec = tuple(
                    rng.ring_elem(alg.sig, max_degree=1, terms=1)
                    for _ in range(alg.rank_v)
                )
                if any(not c.is_zero() for c in vec):
                    terms[(i, j)] = vec
    return AForm(alg.sig, alg.rank, alg.rank_v, 2, terms)


def test_bracket_lie_derivative_golden():
    C = catalog.standard_courant(3)
    alg = C.alg
    sig = alg.sig
    x, y = sig.coord("x"), sig.coord("y")
    e1 = CSection(alg, [sig.one(), sig.zero(), sig.zero()], alg.zero_form(1))  # d/dx
    e2 = CSection(alg, alg.zero_section(), AForm(sig, 3, 1, 1, {(1,): (x * y,)}))  # xy dy
    got = C.bracket(e1, e2)
    assert got.x == alg.zero_section()
    assert got.xi.coefficient((1,)) == (y,)
    assert all(got.xi.coefficient((i,)) == (sig.zero(),) for i in (0, 2))


def test_bracket_function_leibniz_rule():
    # [[e1, f e2]] = f [[e1, e2]] + (anchor(e1) f) e2 when <e1, e2> = 0
    rng = SplitMix(7)
    C = catalog.load("standard-r3-twisted")["courant"]
    alg = C.alg
    sig = alg.sig
    f = sig.coord("x") * sig.coord("y") + sig.const(2)
    e1 = C.frame_section(0)
    e2 = C.frame_section(2)
    lhs = C.bracket(e1, e2.scale(f))
    rhs = C.bracket(e1, e2).scale(f) + e2.scale(termwise_derivation(alg.anchor_vector(e1.x), f))
    assert lhs.equals(rhs)


def test_closed_twist_jacobiator_vanishes_on_frame():
    C = catalog.load("standard-r3-twisted")["courant"]
    frame = C.full_frame()
    for a in frame:
        for b in frame:
            for c in frame:
                assert C.jacobiator(a, b, c).is_zero()
                assert C.jacobiator_expected(a, b, c).is_zero()


def test_verify_ok_on_valid_presentations():
    for name in ("tangent-r3", "standard-r3-twisted", "e1m-r2"):
        C = catalog.load(name)["courant"]
        rep = C.verify(seed=3, samples=6)
        assert rep["ok"], name
        assert rep["closed_twist"], name
        assert rep["axioms"]["leibniz"]["defect_matches_insertion"], name


def test_nonclosed_control_fails_with_exact_insertion_defect():
    C = catalog.load("nonclosed-r4")["courant"]
    rep = C.verify(seed=0, samples=5)
    assert not rep["ok"]
    assert not rep["closed_twist"]
    assert not rep["axioms"]["leibniz"]["holds"]
    # the defect is never mysterious: it always equals the insertion of dH
    assert rep["axioms"]["leibniz"]["defect_matches_insertion"]
    # frame triple golden: legs (1,2,3) insert into dH = -f^{1234} leaving +f^4
    f = C.full_frame()
    defect = C.jacobiator(f[0], f[1], f[2])
    assert defect.x == C.alg.zero_section()
    assert defect.xi.coefficient((3,)) == (C.alg.sig.one(),)
    assert defect.equals(C.jacobiator_expected(f[0], f[1], f[2]))


def test_every_frame_triple_defect_matches_insertion_on_control():
    C = catalog.load("nonclosed-r4")["courant"]
    frame = C.full_frame()
    for a in frame:
        for b in frame:
            for c in frame:
                assert C.jacobiator(a, b, c).equals(C.jacobiator_expected(a, b, c))


def test_verify_budget_refuses_before_any_work():
    point = catalog.load("point-abelian2")["algebroid"].sig
    big = CourantPresentation(Algebroid(point, MAX_FRAME, 1, [[]] * MAX_FRAME, {}))
    with pytest.raises(SweepLimitError, match=f"frame sweep needs {2 * MAX_FRAME} sections"):
        big.verify(samples=0)
    # the sampled sweep without the frame stays available at any rank
    assert big.verify(samples=1, frame_sweep=False)["ok"]
    C = catalog.standard_courant(2)
    with pytest.raises(SweepLimitError, match="samples requested"):
        C.verify(samples=MAX_SAMPLES + 1)


def test_change_splitting_shifts_twist_and_transport_intertwines():
    rng = SplitMix(23)
    C = catalog.load("standard-r3-twisted")["courant"]
    alg = C.alg
    for _ in range(10):
        beta = rand_two_form(rng, alg)
        C2 = C.change_splitting(beta)
        assert C2.twist.equals(C.twist - alg.d(beta))
        e1, e2 = rand_section(rng, C), rand_section(rng, C)
        lhs = C.bracket(C.transport(e1, beta), C.transport(e2, beta))
        rhs = C.transport(C2.bracket(e1, e2), beta)
        assert lhs.equals(rhs)
        # the pairing never sees the shift
        assert C.pairing(C.transport(e1, beta), C.transport(e2, beta)) == C.pairing(e1, e2)


def test_gauge_by_exact_form_preserves_closed_twist():
    rng = SplitMix(29)
    C = catalog.standard_courant(3)
    alg = C.alg
    beta = rand_two_form(rng, alg)
    C2 = C.change_splitting(beta)
    assert alg.d(C2.twist).is_zero()
    assert C2.verify(seed=1, samples=4)["ok"]


def test_isotropize_splits_symmetric_part():
    rng = SplitMix(41)
    C = catalog.load("standard-r3-twisted")["courant"]
    alg = C.alg
    half = Fraction(1, 2)
    for _ in range(6):
        sigma = [
            AForm(
                alg.sig,
                alg.rank,
                alg.rank_v,
                1,
                {
                    (j,): (rng.ring_elem(alg.sig, max_degree=1, terms=1),)
                    for j in range(alg.rank)
                },
            )
            for _ in range(alg.rank)
        ]
        C2, beta = C.isotropize(sigma)
        for i in range(alg.rank):
            for j in range(i + 1, alg.rank):
                want = tuple(
                    (a - b) * half
                    for a, b in zip(sigma[i].coefficient((j,)), sigma[j].coefficient((i,)))
                )
                assert beta.coefficient((i, j)) == want
        # the corrected splitting e_i -> (e_i, i_{e_i} beta) is exactly isotropic
        corrected = [
            CSection(alg, list(C.frame_section(i).x), alg.zero_form(1)) + CSection(
                alg, alg.zero_section(), contract(C.frame_section(i).x, beta)
            )
            for i in range(alg.rank)
        ]
        for a in corrected:
            for b in corrected:
                assert all(c.is_zero() for c in C.pairing(a, b))
        assert C2.twist.equals(C.twist - alg.d(beta))


def test_coisotropic_leg_brackets():
    # [[e, j(xi)]] = j(L_{pi e} xi) and [[j(xi), e]] = -j(i_{pi e} d xi)
    rng = SplitMix(53)
    C = catalog.e1m(2)
    alg = C.alg
    for _ in range(10):
        e = rand_section(rng, C)
        xi = rand_section(rng, C).xi
        jxi = CSection(alg, alg.zero_section(), xi)
        left = C.bracket(e, jxi)
        assert left.x == alg.zero_section()
        assert left.xi.equals(alg.lie(e.x, xi))
        right = C.bracket(jxi, e)
        assert right.x == alg.zero_section()
        assert right.xi.equals(contract(e.x, alg.d(xi)).scale(alg.sig.const(-1)))


def test_pairing_with_coisotropic_leg_is_insertion():
    rng = SplitMix(67)
    C = catalog.e1m(3)
    alg = C.alg
    for _ in range(10):
        e = rand_section(rng, C)
        xi = rand_section(rng, C).xi
        jxi = CSection(alg, alg.zero_section(), xi)
        inserted = contract(e.x, xi)
        got = C.pairing(e, jxi)
        assert got == list(inserted.coefficient(()))


def test_differential_pairs_to_module_derivative():
    rng = SplitMix(79)
    C = catalog.e1m(2)
    alg = C.alg
    f = alg.sig.coord("x") * alg.sig.coord("y")
    Df = C.differential([f])
    for _ in range(8):
        e = rand_section(rng, C)
        assert C.pairing(Df, e) == alg.nabla(e.x, [f])


def test_symmetric_defect_vanishes():
    rng = SplitMix(83)
    for name in ("tangent-r3", "e1m-r2", "standard-r3-twisted"):
        C = catalog.load(name)["courant"]
        for _ in range(8):
            e = rand_section(rng, C)
            assert C.symmetric_defect(e).is_zero(), name


def test_bracket_symmetric_part_is_D_of_the_pairing_in_every_presentation():
    # [[a, b]] + [[b, a]] = D<a, b> needs no axiom (see the courant module
    # docstring): on every catalog entry, an entry with no presentation taken
    # with zero twist, and on drawn presentations that break Jacobi, the
    # anchor morphism and flatness, with module ranks 1 and 2
    rng = SplitMix(97)
    entries = [catalog.load(name) for name in catalog.names()]
    presentations = [p.get("courant") or CourantPresentation(p["algebroid"]) for p in entries]
    drawn = [random_presentation(*args) for args in ((7, 2, 1), (8, 3, 2), (9, 3, 1))]
    broken = [C.alg.validate() for C in drawn]
    assert not any(v["anchor_ok"] or v["flat_ok"] for v in broken)
    assert not all(v["jacobi_ok"] for v in broken)
    for C in presentations + drawn:
        frame = C.full_frame()
        pairs = [(frame[0], frame[-1]), (frame[-1], frame[0])]
        pairs += [(random_section(rng, C), random_section(rng, C)) for _ in range(4)]
        for a, b in pairs:
            ab, ba = C.bracket(a, b), C.bracket(b, a)
            assert (ab + ba).equals(C.differential(C.pairing(a, b)))
            if not any(C.pairing(a, b)):
                assert ba.equals(-ab)


# The two-part arithmetic of a section (x, xi), x a list and xi an AForm, kept
# as the reference for the coordinate tuple that CSection stores.


def _ref_coordinates(alg, x, xi):
    zero = (alg.sig.zero(),) * alg.rank_v
    return list(x) + [c for i in range(alg.rank) for c in xi.terms.get((i,), zero)]


def _ref_describe(x, xi):
    return {
        "x": [str(c) for c in x],
        "xi": {
            "+".join(str(i + 1) for i in I): [str(c) for c in vec]
            for I, vec in xi.sorted_terms()
        },
    }


def _ref_equals(p, q):
    return all((a - b).is_zero() for a, b in zip(p[0], q[0])) and p[1].equals(q[1])


def _complex_section(rng, alg):
    """Both parts drawn over Q(i), about a third of the entries zero."""
    el = lambda: (  # noqa: E731
        alg.sig.zero() if rng.randint(0, 2) == 0
        else rng.ring_elem(alg.sig, max_degree=1, terms=2, complex_ok=True)
    )
    x = [el() for _ in range(alg.rank)]
    xi = AForm(
        alg.sig, alg.rank, alg.rank_v, 1,
        {(i,): tuple(el() for _ in range(alg.rank_v)) for i in range(alg.rank)},
    )
    return x, xi


def test_section_coordinates_round_trip():
    # the x/xi views, the coordinate round trip and + - neg scale conjugate
    # equals describe agree with the two-part reference, for module ranks 1
    # and 2 over Q and Q(i)
    rng = SplitMix(89)
    presentations = [random_presentation(seed, rank, 2) for seed, rank in ((3, 2), (5, 3))]
    presentations += [catalog.load(name)["courant"] for name in ("e1m-r3", "cr-control-r5")]
    presentations.append(catalog.e1m(2))
    for C in presentations:
        alg = C.alg
        for _ in range(6):
            (x, xi), (y, eta) = _complex_section(rng, alg), _complex_section(rng, alg)
            e, f = CSection(alg, x, xi), CSection(alg, y, eta)
            assert e.x == x and e.xi.equals(xi)
            assert e.coordinates() == _ref_coordinates(alg, x, xi)
            back = CSection.from_coordinates(alg, e.coordinates())
            assert back.equals(e) and back.x == x and back.xi.equals(xi)
            c = rng.ring_elem(alg.sig, max_degree=1, terms=2, complex_ok=True)
            k = Fraction(-3, 4)
            cases = [
                (e + f, ([a + b for a, b in zip(x, y)], xi + eta)),
                (e - f, ([a - b for a, b in zip(x, y)], xi - eta)),
                (e - e, (alg.zero_section(), xi - xi)),
                (-e, ([-a for a in x], -xi)),
                (e.scale(c), ([a * c for a in x], xi.scale(c))),
                (e.scale(k), ([a * k for a in x], xi.scale(k))),
                (e.conjugate(), ([a.conjugate() for a in x], xi.conjugate())),
            ]
            for got, (rx, rxi) in cases:
                assert got.x == rx and got.xi.equals(rxi)
                assert got.coordinates() == _ref_coordinates(alg, rx, rxi)
                assert got.describe() == _ref_describe(rx, rxi)
                assert got.is_zero() == (all(a.is_zero() for a in rx) and rxi.is_zero())
            for p, q in (((x, xi), (y, eta)), ((x, xi), (x, xi))):
                assert CSection(alg, *p).equals(CSection(alg, *q)) == _ref_equals(p, q)
            assert e.describe() == _ref_describe(x, xi)


def test_jacobiator_from_a_bracket_table_sums_in_place(monkeypatch):
    # with every bracket already in the table, t1 - t2 - t3 is one Accumulator
    # per coordinate: no RingElem sum, difference or negation, and no form collect
    from courantkit.exterior import _Alternating
    from courantkit.ring import RingElem

    rng = SplitMix(97)
    C = catalog.load("nonclosed-r4")["courant"]
    frame = C.full_frame()
    triples = [(frame[0], frame[1], frame[2]), (frame[3], frame[5], frame[1])]
    triples += [tuple(rand_section(rng, C) for _ in range(3)) for _ in range(4)]
    table = {}

    def br(e1, e2):
        key = (id(e1), id(e2))
        if key not in table:
            table[key] = (e1, e2, C.bracket(e1, e2))
        return table[key][2]

    want = []
    for e1, e2, e3 in triples:
        t1, t2, t3 = br(e1, br(e2, e3)), br(br(e1, e2), e3), br(e2, br(e1, e3))
        want.append([a - b - c for a, b, c in zip(*(t.coordinates() for t in (t1, t2, t3)))])
    calls = []
    for owner, name in (
        (RingElem, "__add__"), (RingElem, "__sub__"), (RingElem, "__neg__"),
        (_Alternating, "collect"),
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    got = [C.jacobiator(e1, e2, e3, br) for e1, e2, e3 in triples]
    monkeypatch.undo()
    assert calls == []
    assert [g.coordinates() for g in got] == want
    assert not got[0].is_zero()


def test_sections_over_different_frames_do_not_combine():
    # equal signatures, ranks 2 and 3 with module ranks 2 and 1: both frames
    # have six coordinates, so only the frame check tells them apart
    sig = catalog.load("point-abelian2")["algebroid"].sig
    a = CSection(Algebroid(sig, 2, 2, [[]] * 2, {}), [1, 0])
    b = CSection(Algebroid(sig, 3, 1, [[]] * 3, {}), [1, 0, 0])
    assert len(a.coordinates()) == len(b.coordinates()) == 6
    for op in (a.__add__, a.__sub__, a.equals):
        with pytest.raises(CourantError, match="different presentations"):
            op(b)
    same = CSection(Algebroid(sig, 2, 2, [[]] * 2, {}), [1, 0])
    assert (a + same).equals(a.scale(2)) and (a - same).is_zero() and a == same


def _foreign_sections():
    """tangent-r2, one of its sections, and a section of a rank-3 algebroid over
    the same ring (x, y): the frames have 4 and 6 coordinates."""
    C = catalog.load("tangent-r2")["courant"]
    sig = C.alg.sig
    other = Algebroid(sig, 3, 1, [[sig.one(), sig.zero()], [sig.zero(), sig.one()], [0, 0]], {})
    x, y = sig.coord("x"), sig.coord("y")
    own = CSection(C.alg, [y, x * x], AForm(sig, 2, 1, 1, {(0,): (x,)}))
    foreign = CSection(other, [x, y, 1], AForm(sig, 3, 1, 1, {(2,): (y,)}))
    return C, own, foreign


_ENTRY_POINTS = {
    "bracket": lambda C, a, b: C.bracket(a, b),
    "bracket-second": lambda C, a, b: C.bracket(b, a),
    "pairing": lambda C, a, b: C.pairing(a, b),
    "jacobiator": lambda C, a, b: C.jacobiator(a, a, b),
    "jacobiator-first": lambda C, a, b: C.jacobiator(b, a, a),
    "jacobiator_expected": lambda C, a, b: C.jacobiator_expected(a, b, a),
    "anchor_defect": lambda C, a, b: C.anchor_defect(a, b),
    "symmetric_defect": lambda C, a, b: C.symmetric_defect(b),
    "invariance_defect": lambda C, a, b: C.invariance_defect(a, a, b),
    "transport": lambda C, a, b: C.transport(b, C.alg.zero_form(2)),
}


@pytest.mark.parametrize("op", sorted(_ENTRY_POINTS))
def test_operations_refuse_a_section_of_another_frame(op):
    # before the check, bracket returned the zero section, pairing [0] and
    # anchor_defect [0, 0]: zip stopped at the shorter frame
    C, own, foreign = _foreign_sections()
    with pytest.raises(CourantError, match="sections from different presentations"):
        _ENTRY_POINTS[op](C, own, foreign)
    # the same signature, rank and rankV from another algebroid are accepted,
    # with the answer the presentation's own copy of the section gets
    sig = C.alg.sig
    twin = Algebroid(sig, 2, 1, [[sig.zero(), sig.one()], [sig.one(), sig.zero()]], {})
    copy = CSection.from_coordinates(twin, own.coordinates())
    mine = CSection.from_coordinates(C.alg, own.coordinates())
    want, got = _ENTRY_POINTS[op](C, own, mine), _ENTRY_POINTS[op](C, own, copy)
    if isinstance(want, CSection):
        assert got.coordinates() == want.coordinates()
    else:
        assert got == want


_SECTION_OPERATORS = {
    "add": lambda C, a, b: a + b,
    "sub": lambda C, a, b: a - b,
    "equals": lambda C, a, b: a.equals(b),
}


@pytest.mark.parametrize("op", sorted(_ENTRY_POINTS) + sorted(_SECTION_OPERATORS))
def test_operations_refuse_an_operand_that_is_not_a_section(op):
    # a coordinate list in place of a section used to raise AttributeError
    # ('list' object has no attribute 'alg') from inside the frame check
    C, own, _ = _foreign_sections()
    run = _ENTRY_POINTS.get(op) or _SECTION_OPERATORS[op]
    with pytest.raises(CourantError, match="expected a Courant section, not list"):
        run(C, own, [1, 0])


def test_change_splitting_rejects_wrong_degree():
    C = catalog.standard_courant(2)
    alg = C.alg
    with pytest.raises(CourantError):
        C.change_splitting(alg.zero_form(1))


def test_nonclosed_twist_requires_flag():
    from courantkit.catalog import CatalogError

    alg = catalog.tangent_algebroid(("x", "y", "z", "w"))
    sig = alg.sig
    twist = AForm(sig, 4, 1, 3, {(0, 1, 2): (sig.coord("w"),)})
    with pytest.raises(CourantError):
        CourantPresentation(alg, twist)


def test_twist_differential_computed_once(monkeypatch):
    from courantkit.algebroid import Algebroid

    C = catalog.load("nonclosed-r4")["courant"]
    assert C.dtwist.equals(C.alg.d(C.twist)) and not C.closed_twist
    calls = []
    real_d = Algebroid.d

    def counting_d(self, w):
        calls.append(w)
        return real_d(self, w)

    monkeypatch.setattr(Algebroid, "d", counting_d)
    f = C.full_frame()
    assert not C.jacobiator_expected(f[0], f[1], f[2]).xi.is_zero()
    assert calls == []


def _bracket_counts(monkeypatch) -> dict:
    """Counts of read brackets (`bracket`) and of brackets summed by a Jacobiator."""
    counts = {"read": 0, "summed": 0}
    real_bracket, real_into = CourantPresentation.bracket, CourantPresentation._bracket_into
    inside = [0]

    def counting_bracket(self, e1, e2):
        counts["read"] += 1
        inside[0] += 1
        try:
            return real_bracket(self, e1, e2)
        finally:
            inside[0] -= 1

    def counting_into(self, acc, e1, e2, sign):
        counts["summed"] += not inside[0]
        return real_into(self, acc, e1, e2, sign)

    monkeypatch.setattr(CourantPresentation, "bracket", counting_bracket)
    monkeypatch.setattr(CourantPresentation, "_bracket_into", counting_into)
    return counts


@pytest.mark.parametrize("name,n", [("standard-r3-twisted", 6), ("cr-control-r5", 10)])
def test_frame_sweep_computes_each_bracket_once(monkeypatch, name, n):
    # the n^2 inner brackets [e_b, e_c] are read once each and shared by the
    # Leibniz and anchor sweeps; each of the n^3 Jacobiators sums its three
    # outer brackets into one Accumulator
    C = catalog.load(name)["courant"]
    assert C.alg.rank * (1 + C.alg.rank_v) == n
    counts = _bracket_counts(monkeypatch)
    rep = C.verify(samples=0)
    assert rep["ok"]
    assert counts == {"read": n**2, "summed": 3 * n**3}
    assert rep["axioms"]["leibniz"]["checked"] == n**3


@pytest.mark.parametrize("name", ["standard-r3-twisted", "cr-control-r5", "nonclosed-r4"])
def test_one_sample_without_the_frame_reads_three_brackets(monkeypatch, name):
    # the benchmark's call shape: one random triple, whose three inner
    # brackets are read and three outer ones summed; the one anchor pair is
    # diagonal and computes none
    C = catalog.load(name)["courant"]
    counts = _bracket_counts(monkeypatch)
    rep = C.verify(3, samples=1, frame_sweep=False)
    assert counts == {"read": 3, "summed": 3}
    assert rep["axioms"]["leibniz"]["checked"] == 1 and rep["axioms"]["anchor"]["checked"] == 1


def test_default_verify_builds_no_multivector(monkeypatch):
    # the Courant bracket contracts plain sections, so a default sweep over the
    # largest catalog frame wraps none of them into a graded multivector
    C = catalog.load("cr-control-r5")["courant"]
    built = []
    real_init = Multivector.__init__

    def counting_init(self, *args):
        built.append(None)
        real_init(self, *args)

    monkeypatch.setattr(Multivector, "__init__", counting_init)
    assert C.verify()["ok"]
    assert built == []
    Multivector(C.alg.sig, C.alg.rank, 1, {(0,): FScalar.of(C.alg.sig.one())})
    assert len(built) == 1


def test_axiom_defects_sum_each_entry_in_one_accumulator(monkeypatch):
    # the anchor and invariance defects make no RingElem subtraction anywhere
    # inside them, in a default verify on the largest catalog frame (which
    # computes the anchor ones) and on a random presentation, where they give
    # the plain differences (its random algebroid breaks the anchor axiom;
    # invariance holds for every presentation)
    from courantkit.ring import RingElem

    rng = SplitMix(61)
    R = random_presentation(61, 3)
    alg = R.alg
    triples = [tuple(random_section(rng, R) for _ in range(3)) for _ in range(3)]
    want_anchor, want_invariance = [], []
    for e1, e2, e3 in triples:
        lhs = alg.anchor_vector(R.bracket(e1, e2).x)
        comm = alg.commutator(alg.anchor_vector(e1.x), alg.anchor_vector(e2.x))
        want_anchor.append([a - b for a, b in zip(lhs, comm)])
        lhs = alg.nabla(e1.x, R.pairing(e2, e3))
        r1, r2 = R.pairing(R.bracket(e1, e2), e3), R.pairing(e2, R.bracket(e1, e3))
        want_invariance.append([a - b - c for a, b, c in zip(lhs, r1, r2)])
    assert all(any(v) for v in want_anchor)
    inside, subs = [0], [0]
    real_sub = RingElem.__sub__

    def sub(self, other):
        subs[0] += inside[0] > 0
        return real_sub(self, other)

    def counted(real):
        def run(*args, **kwargs):
            inside[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1

        return run

    monkeypatch.setattr(RingElem, "__sub__", sub)
    for name in ("anchor_defect", "invariance_defect"):
        monkeypatch.setattr(CourantPresentation, name, counted(getattr(CourantPresentation, name)))
    assert catalog.load("cr-control-r5")["courant"].verify()["ok"]
    assert [R.anchor_defect(e1, e2) for e1, e2, _ in triples] == want_anchor
    assert [R.invariance_defect(*t) for t in triples] == want_invariance
    assert subs[0] == 0


def test_closed_twist_jacobiator_expected_contracts_nothing(monkeypatch):
    # dH = 0: the expected Jacobiator is the zero section, with no insertion
    import courantkit.courant as courant

    calls = []
    real_contract = courant.contract
    monkeypatch.setattr(courant, "contract", lambda *a: calls.append(None) or real_contract(*a))
    rng = SplitMix(62)
    for name in ("standard-r3-twisted", "cr-control-r5"):
        C = catalog.load(name)["courant"]
        assert C.closed_twist
        f = C.full_frame()
        triples = [(f[0], f[1], f[2])]
        triples += [tuple(rand_section(rng, C) for _ in range(3)) for _ in range(3)]
        assert all(C.jacobiator_expected(*t).is_zero() for t in triples)
    assert calls == []
    # a twist that is not closed still inserts the legs into dH
    C = catalog.load("nonclosed-r4")["courant"]
    f = C.full_frame()
    assert not C.jacobiator_expected(f[0], f[1], f[2]).is_zero()
    assert len(calls) == 3


def test_each_vector_of_sums_is_one_accumulator(monkeypatch):
    # a bracket, a Jacobiator and a signed sum of sections are one Accumulator
    # each, slotted by coordinate, and the anchored rows of a section are one,
    # slotted by (anchor row, coordinate); a default verify on the largest
    # catalog frame builds 3 145 in all (5 220 while a Jacobiator read its
    # three outer brackets as sections and summed them in a fourth, 6 630
    # while it computed the symmetric-part and invariance sweeps and the
    # diagonal anchor pairs, 43 590 with one per coordinate, 10 015 with one
    # per derivation summed into a commutator and per entry of a module
    # action, 9 205 with one per anchored derivative)
    import courantkit.courant as courant
    from courantkit.ring import Accumulator

    built = [0]
    real_init = Accumulator.__init__

    def counting_init(self, sig):
        built[0] += 1
        real_init(self, sig)

    C = catalog.load("cr-control-r5")["courant"]
    rng = SplitMix(63)
    e1, e2, e3 = rand_section(rng, C), rand_section(rng, C), rand_section(rng, C)
    want = C.bracket(e1, e2)  # keeps the anchored rows of e1 and e2
    inner = {(id(a), id(b)): C.bracket(a, b) for a, b in ((e2, e3), (e1, e2), (e1, e3))}

    def br(a, b):
        return inner[id(a), id(b)]

    jac = C.jacobiator(e1, e2, e3, br)  # keeps the anchored rows of the inner brackets
    half = C.alg.sig.const(Fraction(1, 2))
    diff = e1 - e2.scale(half)
    monkeypatch.setattr(Accumulator, "__init__", counting_init)
    assert C.verify()["ok"]
    assert built[0] == 3145
    built[0] = 0
    assert C.bracket(e1, e2) == want
    assert built[0] == 1
    built[0] = 0
    assert C.jacobiator(e1, e2, e3, br) == jac
    assert built[0] == 1
    built[0] = 0
    assert courant._combine(C.alg, ((e1, 1, None), (e2, -1, half))) == diff
    assert built[0] == 1


def _graded(alg, degree):
    """The graded view of a module-valued form the entry points accept, degree for degree."""
    return aform_to_fform(AForm(alg.sig, alg.rank, 1, degree, {tuple(range(degree)): (1,)}))


@pytest.mark.parametrize(
    "error, call",
    [
        pytest.param(
            CourantError,
            lambda C: CSection(C.alg, C.alg.zero_section(), _graded(C.alg, 1)),
            id="section-xi",
        ),
        pytest.param(
            CourantError, lambda C: CourantPresentation(C.alg, _graded(C.alg, 3)), id="twist"
        ),
        pytest.param(CourantError, lambda C: C.change_splitting(_graded(C.alg, 2)), id="beta"),
        pytest.param(DiracError, lambda C: graph_two_form(C, _graded(C.alg, 2)), id="graph-B"),
        pytest.param(GCRError, lambda C: symplectic_gcr(C, _graded(C.alg, 2)), id="omega"),
    ],
)
def test_module_valued_entry_points_refuse_a_graded_form(error, call):
    # xi, the twist, the splitting shift, the graph two-form and the
    # symplectic form are module-valued: a graded form of the right degree is
    # refused with the entry point's own error, not a Python error
    C = catalog.load("standard-r3-twisted")["courant"]
    with pytest.raises(error, match="module-valued"):
        call(C)
