"""check-dirac's three readings of G's echelon against the computations they replace.

check-dirac eliminates the generator coordinates G once and reads the
projection closure and intersect_A off that echelon E (dirac module
docstring): the tangent view of E is a reduced echelon of the tangent block
X, an involutive list is projection-closed, and rank E_xi = rank G_xi.  Here
each reading is compared with the full computation: X's and G_xi's own
`rref`, and every projection reduced against X's own echelon.  At two seeded
rational points off the report's excluded locus, plain `Fraction`
elimination must reproduce the report's rank, intersect_A, involutive and
projection_closed verdicts.  Each check-dirac run eliminates two matrices per
list and reduces no projection on an involutive list.

The inputs are the seeded graph subbundles of `tests/test_intersect_oracle.py`
(rational and Gaussian, of closed and of non-closed two-forms, mixed by
unimodular row operations), every catalog subbundle, and four hand-made
lists over tangent-r3 whose tangent block drops rank, whose echelon has a
form-column pivot, or whose generators are not isotropic.
"""

import pytest

from courantkit import catalog, cli, io, linalg
from courantkit.dirac import _tangent_view, coordinates_matrix, is_dirac
from courantkit.linalg import Echelon
from point_oracle import field_rank, points
from test_intersect_oracle import GRAPH_CASES, _check_dirac, _graph_gens

# hand-made --subbundle lists over tangent-r3: the plane field span{d/dx,
# d/dy + x d/dz}, which brackets out of itself; a list that is not isotropic;
# a graph whose third generator is a multiple of the first; and a list whose
# echelon has a row with its pivot in a form column, whose tangent block
# spans that plane field
HAND_MADE = {
    "open-plane": [
        {"x": ["1", "0", "0"], "xi": {"degree": 1, "terms": {}}},
        {"x": ["0", "1", "x"], "xi": {"degree": 1, "terms": {}}},
    ],
    "skew": [
        {"x": ["1", "0", "0"], "xi": {"degree": 1, "terms": {"2": ["x"]}}},
        {"x": ["0", "1", "0"], "xi": {"degree": 1, "terms": {"1": ["1"]}}},
    ],
    "repeated": [
        {"x": ["1", "0", "0"], "xi": {"degree": 1, "terms": {"2": ["z"], "3": ["x*y"]}}},
        {"x": ["0", "1", "0"], "xi": {"degree": 1, "terms": {"1": ["-z"]}}},
        {"x": ["y", "0", "0"], "xi": {"degree": 1, "terms": {"2": ["y*z"], "3": ["x*y^2"]}}},
    ],
    "form-pivot": [
        {"x": ["1", "0", "0"], "xi": {"degree": 1, "terms": {"2": ["z"]}}},
        {"x": ["x", "0", "0"], "xi": {"degree": 1, "terms": {"3": ["1"]}}},
        {"x": ["0", "1", "x"], "xi": {"degree": 1, "terms": {}}},
    ],
}
# the inputs whose projected brackets leave the span of the projected
# generators: the two plane fields, and three seeded graphs with a generator
# dropped, whose two tangent parts span a plane field that brackets out of itself
PROJECTION_FAILS = {
    "open-plane",
    "form-pivot",
    "graph-1-rational-closed-drop",
    "graph-1-gaussian-open-drop",
    "graph-2-gaussian-closed-drop",
}


def _hand_made_doc(name: str) -> dict:
    doc = io.definition_to_json(catalog.load("tangent-r3"))
    doc["subbundles"] = {name: HAND_MADE[name]}
    return doc


def _cases() -> list:
    """(id, document) of every input."""
    out = [(f"graph-{seed}-{mode}-{'closed' if closed else 'open'}-{shape}",
            _graph_gens(seed, mode, closed, shape)[0])
           for seed, mode, closed, shape in GRAPH_CASES]
    out += [(name, io.definition_to_json(catalog.load(name)))
            for name in catalog.names() if catalog.load(name).get("subbundles")]
    out += [(name, _hand_made_doc(name)) for name in HAND_MADE]
    return out


CASES = _cases()


def _projections(C, gens) -> list:
    """((i, j), pi[[g_i, g_j]]) for i < j, the vectors the projection closure reads."""
    n = len(gens)
    return [((i, j), C.alg.bracket(gens[i].x, gens[j].x)) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_echelon_readings_match_the_full_computations(tmp_path, case):
    seed = [c[0] for c in CASES].index(case)
    doc = CASES[seed][1]
    report = _check_dirac(tmp_path, doc)
    p = io.definition_from_json(doc)
    C = p["courant"]
    sig, r = C.alg.sig, C.alg.rank
    some_projection_fails = False
    for sub, gens in p["subbundles"].items():
        rows = coordinates_matrix(gens)
        ech = linalg.rref(sig, rows)
        if case == "form-pivot":
            assert ech.rank == 3 and ech.pivots[-1] >= r
        # 1. the tangent view against X's own echelon, reduction by reduction
        view = _tangent_view(ech, r)
        own = linalg.rref(sig, [row[:r] for row in rows])
        assert view.rank == own.rank
        verdicts = {}
        for pair, v in _projections(C, gens):
            verdicts[pair] = own.reduce(v, list(own.excluded))[0]
            assert view.reduce(v, list(view.excluded))[0] == verdicts[pair], (sub, pair)
        # 2. rank E_xi = rank G_xi
        e_xi = [row[r:] for row in ech.rows[: ech.rank]]
        assert linalg.rank(sig, e_xi)[0] == linalg.rank(sig, [row[r:] for row in rows])[0]
        # 3. an involutive list passes the full projection reduction
        if is_dirac(C, gens)[1]["involutive"]:
            assert all(verdicts.values()), sub
        closed = all(verdicts.values())
        some_projection_fails |= not closed
        v = {x["name"]: x for x in report["verdicts"]}
        assert v[f"{sub}.projection_closed"]["pass"] == closed
        # 4. two points off the report's locus reproduce rank, intersect_A and
        # the involutive and projection verdicts; every ordered pair is
        # bracketed, a superset of the pairs the closure reads
        details = report["details"][sub]
        rank_g = v[f"{sub}.lagrangian"]["residual"]["rank"]
        brackets = [C.bracket(gens[i], gens[j]).coordinates()
                    for i in range(len(gens)) for j in range(len(gens)) if i != j]
        for pt in points(sig, details["excluded"], seed):
            assert field_rank(rows, pt) == rank_g, pt
            rank_xi = field_rank([row[r:] for row in rows], pt)
            assert rank_g - rank_xi == details["intersect_A"], pt
            involutive = all(field_rank(rows + [b], pt) == rank_g for b in brackets)
            assert involutive == v[f"{sub}.involutive"]["pass"], pt
            xs = [row[:r] for row in rows]
            rank_x = field_rank(xs, pt)
            at_point = all(field_rank(xs + [w], pt) == rank_x for _, w in _projections(C, gens))
            assert at_point == closed, pt
    assert some_projection_fails == (case in PROJECTION_FAILS)


def _counting_run(tmp_path, monkeypatch, doc) -> tuple:
    """(report, [(rref calls, sorted lengths of the vectors Echelon.reduce
    saw)] for each generator list check-dirac checks).  Calls made while the
    document loads, such as the inverse a gcr block's distribution takes,
    are not counted."""
    rrefs, reduced, per_list = [], [], []
    real_rref, real_reduce, real_check = linalg.rref, Echelon.reduce, cli._check_dirac

    def check(C, gens):
        rrefs.clear()
        reduced.clear()
        out = real_check(C, gens)
        per_list.append((len(rrefs), sorted(reduced)))
        return out

    monkeypatch.setattr(linalg, "rref", lambda sig, M: rrefs.append(1) or real_rref(sig, M))
    monkeypatch.setattr(Echelon, "reduce", lambda s, v, *a: reduced.append(len(v)) or real_reduce(s, v, *a))
    monkeypatch.setattr(cli, "_check_dirac", check)
    report = _check_dirac(tmp_path, doc)
    monkeypatch.undo()
    return report, per_list


@pytest.mark.parametrize("case", ["dirac-graph-r2", "contact-r3", "graph-1-gaussian-closed-graph"])
def test_check_dirac_eliminates_twice_and_reduces_no_projection_when_involutive(
    tmp_path, monkeypatch, case
):
    report, [(rrefs, reduced)] = _counting_run(tmp_path, monkeypatch, dict(CASES)[case])
    (sub,) = report["details"]
    v = {x["name"]: x["pass"] for x in report["verdicts"]}
    assert v[f"{sub}.involutive"] and v[f"{sub}.projection_closed"]
    assert rrefs == 2
    # the closure's reductions, of 2r coordinates, and none of r
    r = io.definition_from_json(dict(CASES)[case])["courant"].alg.rank
    assert reduced and set(reduced) == {2 * r}


def test_check_dirac_reduces_projections_when_not_involutive(tmp_path, monkeypatch):
    doc = io.definition_to_json(catalog.load("dirac-nonclosed-r3"))
    report, [(rrefs, reduced)] = _counting_run(tmp_path, monkeypatch, doc)
    v = {x["name"]: x["pass"] for x in report["verdicts"]}
    assert not v["graph.involutive"] and v["graph.projection_closed"]
    assert rrefs == 2
    # three isotropic pairs i < j, each bracket reduced once against G's
    # echelon (6 coordinates) and once against its tangent view (3)
    assert sorted(reduced) == [3, 3, 3, 6, 6, 6]


def test_check_dirac_eliminates_twice_per_list(tmp_path, monkeypatch):
    # every subbundle of a document is one list: 2 eliminations each
    doc = _graph_gens(2, "rational", False, "repeat")[0]
    doc["subbundles"].update({name: HAND_MADE[name] for name in HAND_MADE})
    report, per_list = _counting_run(tmp_path, monkeypatch, doc)
    assert len(report["details"]) == 1 + len(HAND_MADE)
    assert [rrefs for rrefs, _ in per_list] == [2] * (1 + len(HAND_MADE))
