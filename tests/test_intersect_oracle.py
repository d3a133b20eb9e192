"""check-dirac's intersect_A against two counts that share no code with it.

check-dirac reads dim(L meet A) as rank G - rank G_xi (dirac module
docstring).  Here that number is compared with the rank of the basis
`anchor_intersection` builds from a nullspace of the form columns, and with
plain Fraction elimination of G and G_xi at seeded rational points where no
factor of the report's `excluded` list vanishes (point_oracle).

The inputs are graph subbundles on tangent-r3, rational and Gaussian, of
closed and of non-closed two-forms, mixed by unimodular row operations with
polynomial multipliers, some with a generator dropped or a multiple added;
and every catalog subbundle.
"""

import contextlib
import io as _stdio
import json

import pytest

from courantkit import catalog, cli, io, linalg
from courantkit.dirac import anchor_intersection, intersect_with_A
from courantkit.sampling import SplitMix
from point_oracle import field_rank, points

MODES = ("rational", "gaussian")
SHAPES = ("graph", "drop", "repeat")
GRAPH_CASES = [
    (seed, mode, closed, shape)
    for seed in (1, 2)
    for mode in MODES
    for closed in (True, False)
    for shape in SHAPES
]


def _is_closed(W) -> bool:
    """d of the two-form with coefficients W[a][b] on dx^a ^ dx^b vanishes."""
    dw = W[1][2].partial("x") - W[0][2].partial("y") + W[0][1].partial("z")
    return dw.is_zero()


def _graph_gens(seed: int, mode: str, closed: bool, shape: str) -> tuple:
    """(document, generator coordinate lists) of one seeded graph subbundle.

    The two-form is d(alpha) for a drawn alpha when closed, a drawn skew
    matrix otherwise; either is drawn again until its closedness matches.
    """
    rng = SplitMix(1000 * seed + 10 * MODES.index(mode) + closed)
    doc = io.definition_to_json(catalog.load("tangent-r3"))
    doc["ring"]["mode"] = mode
    sig = io.definition_from_json(doc)["algebroid"].sig
    cplx = mode == "gaussian"
    coords = ("x", "y", "z")
    while True:
        W = [[sig.zero()] * 3 for _ in range(3)]
        if closed:
            alpha = [rng.ring_elem(sig, max_degree=2, terms=3, complex_ok=cplx) for _ in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                if closed:
                    w = alpha[b].partial(coords[a]) - alpha[a].partial(coords[b])
                else:
                    w = rng.ring_elem(sig, max_degree=2, terms=2, complex_ok=cplx)
                W[a][b], W[b][a] = w, -w
        if _is_closed(W) == closed:
            break
    gens = [[sig.one() if j == i else sig.zero() for j in range(3)] + W[i] for i in range(3)]
    for a, b in ((1, 0), (2, 1), (0, 2)):  # unimodular: the span stays the graph
        p = rng.ring_elem(sig, max_degree=1, terms=2)
        gens[a] = [u + p * v for u, v in zip(gens[a], gens[b])]
    if shape == "drop":
        gens = gens[:2]
    elif shape == "repeat":
        q = rng.ring_elem(sig, max_degree=1, terms=2)
        gens.append([q * c for c in gens[0]])
    doc["subbundles"] = {"graph": [
        {"x": [c.to_str() for c in g[:3]],
         "xi": {"degree": 1, "terms": {str(k + 1): [c.to_str()] for k, c in enumerate(g[3:]) if c.terms}}}
        for g in gens
    ]}
    return doc, gens


def _check_dirac(tmp_path, doc) -> dict:
    path = tmp_path / "defs.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-dirac", "--defs", str(path)])
    assert code in (0, 1)
    return json.loads(out.getvalue())


def _check_intersection(C, gens, rows, details, seed):
    """The report's intersect_A against the nullspace basis and two points."""
    want = details["intersect_A"]
    assert anchor_intersection(C, gens)[0] == want
    assert intersect_with_A(C, gens) == want
    r = C.alg.rank
    for pt in points(C.alg.sig, details["excluded"], seed):
        assert field_rank(rows, pt) - field_rank([row[r:] for row in rows], pt) == want, pt
    return want


@pytest.mark.parametrize("seed,mode,closed,shape", GRAPH_CASES)
def test_intersect_A_of_seeded_graphs_matches_nullspace_and_points(tmp_path, seed, mode, closed, shape):
    doc, rows = _graph_gens(seed, mode, closed, shape)
    report = _check_dirac(tmp_path, doc)
    p = io.definition_from_json(doc)
    C, gens = p["courant"], p["subbundles"]["graph"]
    assert [g.coordinates() for g in gens] == rows
    want = _check_intersection(C, gens, rows, report["details"]["graph"], seed)
    # a nonzero form on R^3 has a kernel line, which the graph meets A in;
    # two of the mixed generators miss it
    assert want == (0 if shape == "drop" else 1)


def test_intersect_A_of_every_catalog_subbundle_matches_nullspace_and_points(tmp_path):
    checked = 0
    for name in catalog.names():
        p = catalog.load(name)
        if not p.get("subbundles"):
            continue
        report = _check_dirac(tmp_path, io.definition_to_json(p))
        for sub, gens in p["subbundles"].items():
            rows = [g.coordinates() for g in gens]
            _check_intersection(p["courant"], gens, rows, report["details"][sub], checked)
            checked += 1
    assert checked == 3


@pytest.mark.parametrize("source", ["dirac-nonclosed-r3", "seeded graph"])
def test_check_dirac_takes_no_nullspace(tmp_path, source, monkeypatch):
    # intersect_A is read off two ranks, so no nullspace is built
    if source == "seeded graph":
        doc = _graph_gens(1, "rational", False, "graph")[0]
    else:
        doc = io.definition_to_json(catalog.load(source))
    calls = []
    real = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda *a: calls.append(a) or real(*a))
    report = _check_dirac(tmp_path, doc)
    assert report["details"]["graph"]["intersect_A"] == 1
    assert calls == []
    # the wrapper does see the nullspace anchor_intersection builds
    p = io.definition_from_json(doc)
    anchor_intersection(p["courant"], p["subbundles"]["graph"])
    assert len(calls) == 1
