import pytest

from cartan_oracle import random_presentation
from courantkit import catalog, io
from courantkit.courant import CSection
from courantkit.dirac import (
    DiracError,
    _closure,
    anchor_intersection,
    coordinates_matrix,
    graph_two_form,
    intersect_with_A,
    is_dirac,
    is_isotropic,
    is_lagrangian,
    perp,
    projection_closure,
)
from courantkit.exterior import AForm
from courantkit.linalg import rank, rref


def test_symplectic_graph_is_dirac():
    p = catalog.load("dirac-graph-r2")
    C, gens = p["courant"], p["subbundles"]["graph"]
    ok, rep = is_dirac(C, gens)
    assert ok
    assert rep["isotropic"] and rep["involutive"]
    assert rep["rank"] == rep["expected_rank"] == 2


def test_nonclosed_graph_is_lagrangian_but_not_involutive():
    p = catalog.load("dirac-nonclosed-r3")
    C, gens = p["courant"], p["subbundles"]["graph"]
    ok, rep = is_lagrangian(C, gens)
    assert ok and rep["isotropic"]
    ok, rep = is_dirac(C, gens)
    assert not ok
    assert not rep["involutive"]
    w = rep["involutive_witness"]
    assert w is not None and "pair" in w and "residual" in w
    assert any(r != "0" for r in w["residual"])


def test_closure_witness_pins_failing_pair():
    p = catalog.load("dirac-nonclosed-r3")
    C, gens = p["courant"], p["subbundles"]["graph"]
    rep = _dirac_closure(C, gens)
    assert not rep["closed"]
    i, j = rep["witness"]["pair"]
    got = C.bracket(gens[i], gens[j])
    # the reported bracket really is outside the span
    ech = rref(C.alg.sig, [g.coordinates() for g in gens])
    ok, _ = ech.reduce(got.coordinates(), list(ech.excluded))
    assert not ok


def test_graph_intersects_splitting_trivially_iff_nondegenerate():
    p = catalog.load("dirac-graph-r2")
    assert intersect_with_A(p["courant"], p["subbundles"]["graph"]) == 0
    q = catalog.load("dirac-nonclosed-r3")
    # z dx^dy has a one-dimensional kernel spanned by d/dz
    assert intersect_with_A(q["courant"], q["subbundles"]["graph"]) == 1


def test_anchor_intersection_lists_each_excluded_factor_once():
    # the nullspace and the rank of its combinations both exclude x here; the
    # factor is listed once, in the sorted merged locus, and x^2 - x*y^2 is
    # listed as its canonical factors x and x - y^2
    doc = io.definition_to_json(catalog.load("tangent-r3"))
    doc["ring"]["mode"] = "rational"
    C = io.definition_from_json(doc)["courant"]
    third = ["-2/9*x^3 + 2/9*x^2*y^2 + 2/3*y"]
    gens = io.sections_from_json(
        C.alg,
        [
            {
                "x": ["1/3*x^2*y + 1", "-1/3*x^2", "-x"],
                "xi": {"degree": 1, "terms": {"1": ["2/3*x*y"], "2": ["2/3*x^2"], "3": third}},
            },
            {"x": ["-y", "1", "0"], "xi": {"degree": 1, "terms": {"3": ["2/3*x - 2/3*y^2"]}}},
            {
                "x": ["-1/3*x*y", "1/3*x", "1"],
                "xi": {
                    "degree": 1,
                    "terms": {"1": ["-2/3*y"], "2": ["-2/3*x"], "3": ["2/9*x^2 - 2/9*x*y^2"]},
                },
            },
        ],
        "$",
    )
    rank_a, _, excluded = anchor_intersection(C, gens)
    assert rank_a == 1
    assert excluded == ["x", "x - y^2", "y"]


def test_contact_graph_is_dirac_with_trivial_intersection():
    p = catalog.load("contact-r3")
    C, gens = p["courant"], p["subbundles"]["graph"]
    ok, rep = is_dirac(C, gens)
    assert ok, rep
    assert intersect_with_A(C, gens) == 0


def test_perp_of_lagrangian_is_itself():
    p = catalog.load("dirac-graph-r2")
    C, gens = p["courant"], p["subbundles"]["graph"]
    comp = perp(C, gens)
    ech = rref(C.alg.sig, [g.coordinates() for g in gens])
    assert len(comp) == len(gens)
    for v in comp:
        ok, _ = ech.reduce(v.coordinates(), list(ech.excluded))
        assert ok


def test_perp_drops_rank_by_pairing_rank():
    # a single isotropic generator on the plane: perp has corank one
    C = catalog.standard_courant(2)
    gens = [C.frame_section(0)]
    comp = perp(C, gens)
    rk, _ = rank(C.alg.sig, coordinates_matrix(comp))
    assert rk == 2 * C.alg.rank - 1


def test_pairing_gram_symmetric_and_isotropy_detection():
    C = catalog.standard_courant(2)
    e0 = C.frame_section(0)
    j0 = CSection(C.alg, C.alg.zero_section(), AForm(C.alg.sig, 2, 1, 1, {(0,): (1,)}))
    gens = [e0, j0]
    G = [[C.pairing(g1, g2)[0] for g2 in gens] for g1 in gens]
    assert G[0][1] == G[1][0] == C.alg.sig.one()
    ok, witness = is_isotropic(C, [e0, j0])
    assert not ok
    assert witness["pair"] == [0, 1]
    assert witness["value"] == ["1"]


def test_lagrangian_requires_full_rank():
    C = catalog.standard_courant(2)
    ok, rep = is_lagrangian(C, [C.frame_section(0)])
    assert not ok
    assert rep["isotropic"]
    assert rep["rank"] == 1 and rep["expected_rank"] == 2


def test_projection_closure_on_graphs():
    p = catalog.load("dirac-graph-r2")
    rep = projection_closure(p["courant"], p["subbundles"]["graph"])
    assert rep["closed"]
    q = catalog.load("contact-r3")
    rep = projection_closure(q["courant"], q["subbundles"]["graph"])
    assert rep["closed"]


def test_projection_closure_witness_on_open_distribution():
    # the plane field span{d/dx, d/dy + x d/dz} brackets out of itself
    C = catalog.standard_courant(3)
    sig = C.alg.sig
    x = sig.coord("x")
    g1 = C.frame_section(0)
    g2 = CSection(
        C.alg, [sig.zero(), sig.one(), x], C.alg.zero_form(1)
    )
    rep = projection_closure(C, [g1, g2])
    assert not rep["closed"]
    assert rep["witness"]["pair"] == [0, 1]


def test_graph_two_form_rejects_wrong_degree():
    C = catalog.standard_courant(2)
    with pytest.raises(DiracError):
        graph_two_form(C, C.alg.zero_form(1))


def test_graph_pairing_encodes_antisymmetry():
    # <e_i + i_{e_i}B, e_j + i_{e_j}B> = B_ij + B_ji = 0 for any two-form
    C = catalog.standard_courant(3)
    sig = C.alg.sig
    B = AForm(
        sig,
        3,
        1,
        2,
        {(0, 1): (sig.coord("z"),), (0, 2): (sig.coord("x") * sig.coord("y"),)},
    )
    gens = graph_two_form(C, B)
    ok, _ = is_lagrangian(C, gens)
    assert ok


def test_is_dirac_eliminates_the_generators_once(monkeypatch):
    from courantkit import linalg

    p = catalog.load("dirac-nonclosed-r3")
    C, gens = p["courant"], p["subbundles"]["graph"]
    lag_ok, lag = is_lagrangian(C, gens)
    closure = _full_closure(C, gens)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda sig, M: calls.append(1) or real(sig, M))
    ok, rep = is_dirac(C, gens)
    assert len(calls) == 1
    assert not ok
    assert rep["lagrangian"] == lag_ok
    assert {k: rep[k] for k in lag} == lag
    assert rep["involutive"] == closure["closed"]
    assert rep["involutive_witness"] == closure["witness"]
    assert rep["involutive_excluded"] == closure["excluded"]


def _full_closure(C, gens):
    """The closure report over every ordered pair, the reference for the
    loop that skips mirrored pairs of an isotropic list."""
    from courantkit import linalg

    ech = linalg.rref(C.alg.sig, coordinates_matrix(gens))
    witness, excluded = None, {}
    for i in range(len(gens)):
        for j in range(len(gens)):
            if i == j:
                continue
            b = C.bracket(gens[i], gens[j])
            locus = list(ech.excluded)
            ok, residual = ech.reduce(b.coordinates(), locus)
            excluded.update(dict.fromkeys(locus))
            if not ok and witness is None:
                witness = {
                    "pair": [i, j],
                    "bracket": b.describe(),
                    "residual": CSection.from_coordinates(C.alg, residual).describe(),
                }
    return {"closed": witness is None, "witness": witness, "excluded": list(excluded)}


def _nonclosed_graph(C):
    """The graph of z dx^dy + xy dx^dz over standard_courant(3), not closed,
    with x times its first generator added: four isotropic generators."""
    sig = C.alg.sig
    x, y, z = (sig.coord(c) for c in "xyz")
    B = AForm(sig, 3, 1, 2, {(0, 1): (z,), (0, 2): (x * y,)})
    gens = graph_two_form(C, B)
    return gens + [gens[0].scale(x)]


def _dirac_closure(C, gens):
    """The closure part of is_dirac's report, in _full_closure's form."""
    rep = is_dirac(C, gens)[1]
    return {
        "closed": rep["involutive"],
        "witness": rep["involutive_witness"],
        "excluded": rep["involutive_excluded"],
    }


def test_closure_brackets_each_isotropic_pair_once(monkeypatch):
    # n(n-1)/2 brackets and reductions on an isotropic list, n(n-1) on one
    # that is not; the reports equal those of the full ordered loop
    from courantkit.courant import CourantPresentation
    from courantkit.linalg import Echelon

    C = catalog.standard_courant(3)
    iso = _nonclosed_graph(C)
    skew = iso[:3] + [CSection(C.alg, [1, 0, 0], AForm(C.alg.sig, 3, 1, 1, {(0,): (1,)}))]
    assert is_isotropic(C, iso)[0] and not is_isotropic(C, skew)[0]
    wants = [_full_closure(C, gens) for gens in (iso, skew)]
    brackets, reductions = [], []
    real_bracket, real_reduce = CourantPresentation.bracket, Echelon.reduce
    monkeypatch.setattr(
        CourantPresentation, "bracket", lambda s, a, b: brackets.append(1) or real_bracket(s, a, b)
    )
    monkeypatch.setattr(Echelon, "reduce", lambda s, v, *a: reductions.append(1) or real_reduce(s, v, *a))
    for gens, want, pairs in ((iso, wants[0], 6), (skew, wants[1], 12)):
        brackets.clear()
        reductions.clear()
        assert _dirac_closure(C, gens) == want
        assert len(brackets) == len(reductions) == pairs
    assert not wants[0]["closed"] and wants[0]["witness"]["pair"] == [0, 1]


def test_closure_report_matches_the_full_ordered_loop():
    # catalog subbundles, Dirac or not, isotropic or not
    cases = [
        (p["courant"], gens)
        for p in map(catalog.load, catalog.names())
        for gens in p.get("subbundles", {}).values()
    ]
    C = catalog.standard_courant(3)
    cases.append((C, _nonclosed_graph(C)))
    dx = AForm(C.alg.sig, 3, 1, 1, {(0,): (1,)})
    cases.append((C, [C.frame_section(0), CSection(C.alg, [0, 1, 0], dx)]))
    # a drawn presentation with module rank 2 that fails every axiom: the
    # frame sections e_i are isotropic, their brackets are not in their span
    R = random_presentation(8, 3, 2)
    cases.append((R, [R.frame_section(i) for i in range(3)]))
    assert any(not is_isotropic(C, gens)[0] for C, gens in cases)
    for C, gens in cases:
        want = _full_closure(C, gens)
        if C.alg.rank_v == 1:
            assert _dirac_closure(C, gens) == want
        # the closure step alone, which is_dirac reaches only with a rank-one module
        ech = rref(C.alg.sig, coordinates_matrix(gens))
        assert _closure(C, gens, ech, is_isotropic(C, gens)[0])[0] == want
