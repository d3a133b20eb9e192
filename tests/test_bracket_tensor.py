"""The Courant bracket from the frame structure tensor against the Cartan formula.

`CourantPresentation.bracket` expands over the tensor T built from closed
formulas; `cartan_oracle.cartan_bracket` evaluates
[X,Y] + L_X eta - i_Y d xi + i_X i_Y H with `lie`, `d` and `contract`.  The two
must agree identically, on valid presentations and on broken ones alike.
"""

import pytest

from cartan_oracle import (
    cartan_bracket,
    random_presentation,
    random_section,
    sparse,
    tensor_mismatches,
)
from courantkit import catalog
from courantkit.algebroid import Algebroid
from courantkit.courant import CourantPresentation
from courantkit.ring import Accumulator, RingElem
from courantkit.sampling import SplitMix

PRESENTED = [name for name in catalog.names() if catalog.load(name).get("courant") is not None]

# rank 2 and rank 3 (the smallest with a nonzero twist), seeds not tuned
BROKEN = [(seed, 2 + seed % 2) for seed in range(1, 7)]


def _agrees(C, rng, rounds):
    """bracket equals the oracle on random pairs and on [[e1, e2], e1]."""
    for _ in range(rounds):
        e1, e2 = random_section(rng, C), random_section(rng, C)
        inner = C.bracket(e1, e2)
        if not inner.equals(cartan_bracket(C, e1, e2)):
            return False
        if not C.bracket(inner, e1).equals(cartan_bracket(C, inner, e1)):
            return False
    return True


def test_the_catalog_sweeps_reach_theta_and_the_twist():
    # no catalog presentation has structure functions or rank_v > 1; the
    # random presentations below have both
    assert {"e1m-r3", "contact-r3", "nonclosed-r4", "cr-control-r5"} <= set(PRESENTED)


@pytest.mark.parametrize("name", PRESENTED)
def test_tensor_equals_the_cartan_frame_brackets(name):
    C = catalog.load(name)["courant"]
    assert tensor_mismatches(C, C.tensor) == []


@pytest.mark.parametrize("name", PRESENTED)
def test_bracket_equals_the_cartan_formula(name):
    C = catalog.load(name)["courant"]
    assert _agrees(C, SplitMix(len(name)), 6)


@pytest.mark.parametrize("seed,rank", BROKEN)
def test_identity_needs_no_axiom(seed, rank):
    C = random_presentation(seed, rank)
    assert C.alg.rank_v == 2 and C.alg.sig.nexps == 1
    assert tensor_mismatches(C, C.tensor) == []
    assert _agrees(C, SplitMix(100 + seed), 5)


def test_random_presentations_break_the_axioms():
    # so the agreement above is pinned on presentations that fail validate
    for seed, rank in BROKEN:
        rep = random_presentation(seed, rank).alg.validate()
        assert not (rep["jacobi_ok"] and rep["anchor_ok"] and rep["flat_ok"]), (seed, rank)


@pytest.mark.parametrize("seed,rank,rank_v", [(1, 3, 1), (2, 3, 2), (3, 4, 1), (4, 4, 2)])
def test_tangent_part_is_the_algebroid_bracket(seed, rank, rank_v):
    # pi[[X + xi, Y + eta]] = [X, Y] with no twist, Theta or axiom term, the
    # identity the Dirac checks share their brackets on; every 3-form is
    # closed at rank 3 and a drawn one is not at rank 4
    C = random_presentation(seed, rank, rank_v)
    alg = C.alg
    assert not C.twist.is_zero() and C.closed_twist == (rank == 3)
    assert any(c.terms for cs in alg.structure.values() for c in cs)
    assert any(c.terms for rows in alg.theta for row in rows for c in row)
    assert any(not a.is_constant() for row in alg.anchor for a in row)
    rng = SplitMix(200 + seed)
    for _ in range(4):
        a, b = random_section(rng, C), random_section(rng, C)
        assert C.bracket(a, b).x == alg.bracket(a.x, b.x)


@pytest.mark.parametrize("seed,rank", [(21, 3), (22, 4), (23, 4)])
def test_summed_jacobiator_equals_three_read_brackets(seed, rank):
    # jacobiator adds its three outer brackets into one Accumulator; the sum
    # must be [e1,[e2,e3]] - [[e1,e2],e3] - [e2,[e1,e3]] read from three
    # bracket calls and from the Cartan formula, on presentations with
    # structure functions, Theta, function anchors and module rank 2, whose
    # twist is not closed at rank 4
    C = random_presentation(seed, rank)
    alg = C.alg
    assert alg.rank_v == 2 and C.closed_twist == (rank == 3)
    assert any(c.terms for cs in alg.structure.values() for c in cs)
    assert any(c.terms for rows in alg.theta for row in rows for c in row)
    assert any(not a.is_constant() for row in alg.anchor for a in row)
    rng = SplitMix(300 + seed)
    frame = C.full_frame()
    triples = [(frame[0], frame[1], frame[-1]), (frame[2], frame[rank], frame[0])]
    triples += [tuple(random_section(rng, C) for _ in range(3)) for _ in range(2)]
    triples.append((triples[-1][0], triples[-1][0], triples[-1][1]))
    nonzero = 0
    for e1, e2, e3 in triples:
        got = C.jacobiator(e1, e2, e3)
        read = (
            C.bracket(e1, C.bracket(e2, e3)),
            C.bracket(C.bracket(e1, e2), e3),
            C.bracket(e2, C.bracket(e1, e3)),
        )
        assert got.equals(read[0] - read[1] - read[2])
        cartan = (
            cartan_bracket(C, e1, cartan_bracket(C, e2, e3)),
            cartan_bracket(C, cartan_bracket(C, e1, e2), e3),
            cartan_bracket(C, e2, cartan_bracket(C, e1, e3)),
        )
        assert got.equals(cartan[0] - cartan[1] - cartan[2])
        nonzero += not got.is_zero()
    assert nonzero >= 4


@pytest.mark.parametrize("name", ["e1m-r3", "nonclosed-r4"])
def test_one_perturbed_tensor_entry_is_caught(name):
    C = catalog.load(name)["courant"]
    n = len(C.tensor)
    for a, b, k in [(0, 1, 0), (0, n - 1, n - 1), (n - 1, 0, 2)]:
        bad = [{b: dict(row) for b, row in pairs.items()} for pairs in C.tensor]
        row = bad[a].setdefault(b, {})
        row[k] = row.get(k, C.alg.sig.zero()) + 1
        assert tensor_mismatches(C, bad) == [(a, b)]
        # a presentation carrying the perturbed tensor brackets differently
        P = CourantPresentation(C.alg, C.twist, allow_nonclosed=True)
        object.__setattr__(P, "tensor", bad)
        frame = P.full_frame()
        assert sparse(P.bracket(frame[a], frame[b])) != sparse(
            cartan_bracket(C, frame[a], frame[b])
        )
        assert not _agrees(P, SplitMix(3), 4)


def test_default_verify_makes_no_lie_derivative(monkeypatch):
    C = catalog.load("cr-control-r5")["courant"]
    calls = []
    real_lie = Algebroid.lie

    def counting_lie(self, X, w):
        calls.append(None)
        return real_lie(self, X, w)

    monkeypatch.setattr(Algebroid, "lie", counting_lie)
    assert C.verify()["ok"]
    assert calls == []


def _counting(monkeypatch, cls, name) -> list:
    calls = []
    real = getattr(cls, name)

    def wrapped(self, *args):
        calls.append(None)
        return real(self, *args)

    monkeypatch.setattr(cls, name, wrapped)
    return calls


def test_bracket_sums_in_the_accumulator(monkeypatch):
    # every output coordinate, and every anchored derivative, is one Accumulator
    C = random_presentation(3, 3)
    rng = SplitMix(5)
    pairs = [(random_section(rng, C), random_section(rng, C)) for _ in range(4)]
    adds = _counting(monkeypatch, RingElem, "__add__")
    brackets = [C.bracket(e1, e2) for e1, e2 in pairs]
    assert adds == []
    for (e1, e2), b in zip(pairs, brackets):
        assert b.equals(cartan_bracket(C, e1, e2))


def test_anchored_rows_are_computed_once_per_section(monkeypatch):
    C = random_presentation(4, 2)
    rng = SplitMix(9)
    e1, e2 = random_section(rng, C), random_section(rng, C)
    pairs = [(e1, e2), (e2, e1), (e1, e1), (e1, e2)]
    wants = [cartan_bracket(C, a, b) for a, b in pairs]
    derivations = _counting(monkeypatch, Accumulator, "add_derivation")
    made = []
    for (a, b), want in zip(pairs, wants):
        assert C.bracket(a, b).equals(want)
        made.append(len(derivations))
    # the first bracket differentiates each nonconstant coordinate of both
    # operands once per anchor row; the rest reuse their rows
    live = sum(not c.is_constant() for e in (e1, e2) for c in e.coordinates())
    assert live > 0 and made == [len(C.alg.anchor) * live] * 4


def test_rows_follow_the_algebroid_they_were_made_under():
    # two presentations over one signature, with the same ranks and different
    # anchors: rows kept on a section under one must not serve the other
    C1, C2 = random_presentation(5, 3), random_presentation(6, 3)
    assert C1.alg.sig is C2.alg.sig and C1.alg.anchor != C2.alg.anchor
    rng = SplitMix(13)
    differ = 0
    for _ in range(3):
        e1, e2 = random_section(rng, C1), random_section(rng, C1)
        want1, want2 = cartan_bracket(C1, e1, e2), cartan_bracket(C2, e1, e2)
        differ += not want1.equals(want2)
        for C, want in ((C1, want1), (C2, want2), (C1, want1), (C2, want2)):
            assert C.bracket(e1, e2).equals(want)
            assert C.bracket(e2, e1).equals(cartan_bracket(C, e2, e1))
    assert differ == 3
