import json
from fractions import Fraction

import pytest

from courantkit import catalog
from courantkit.io import (
    SchemaError,
    canonical_dumps,
    definition_from_json,
    definition_to_json,
    digest,
    loads_definition,
)


def minimal_doc(**extra):
    doc = {
        "name": "plane",
        "ring": {"coords": ["x", "y"], "mode": "gaussian"},
        "rankA": 2,
        "anchor": [["1", "0"], ["0", "1"]],
        "module": {"rankV": 1},
    }
    doc.update(extra)
    return doc


def test_minimal_document_builds_tangent_plane():
    p = definition_from_json(minimal_doc())
    alg = p["algebroid"]
    assert alg.rank == 2 and alg.rank_v == 1
    rep = alg.validate()
    assert rep["jacobi_ok"] and rep["anchor_ok"] and rep["flat_ok"]
    assert p["courant"].twist.is_zero()


def test_error_paths_are_dollar_rooted():
    with pytest.raises(SchemaError) as ei:
        definition_from_json({"ring": {"coords": ["x"]}})
    assert "$" in str(ei.value)
    with pytest.raises(SchemaError) as ei:
        definition_from_json(minimal_doc(anchor=[["1", "0"]]))
    assert "$.anchor" in str(ei.value)
    for coords in (["x-y", "y"], ["x y", "y"]):
        with pytest.raises(SchemaError) as ei:
            definition_from_json(minimal_doc(ring={"coords": coords}))
        assert str(ei.value).endswith("(at $.ring)")


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError) as ei:
        definition_from_json(minimal_doc(extra_field=1))
    assert "extra_field" in str(ei.value)


def test_ring_expression_errors_keep_position():
    doc = minimal_doc()
    doc["anchor"][0][0] = "1 + * x"
    with pytest.raises(SchemaError) as ei:
        definition_from_json(doc)
    msg = str(ei.value)
    assert "position" in msg and "$.anchor" in msg


def test_indices_are_one_based_in_documents():
    doc = minimal_doc(H=None)
    del doc["H"]
    doc["rankA"] = 3
    doc["ring"]["coords"] = ["x", "y", "z"]
    doc["anchor"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc["H"] = {"degree": 3, "terms": {"1,2,3": ["x"]}}
    p = definition_from_json(doc)
    assert p["courant"].twist.coefficient((0, 1, 2))[0] == p["algebroid"].sig.coord("x")
    doc["H"] = {"degree": 3, "terms": {"0,1,2": ["x"]}}
    with pytest.raises(SchemaError):
        definition_from_json(doc)
    doc["H"] = {"degree": 3, "terms": {"1,1,2": ["x"]}}
    with pytest.raises(SchemaError):
        definition_from_json(doc)


def test_nonclosed_twist_needs_flag_via_schema():
    doc = minimal_doc()
    doc["rankA"] = 4
    doc["ring"]["coords"] = ["x", "y", "z", "w"]
    doc["anchor"] = [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    doc["H"] = {"degree": 3, "terms": {"1,2,3": ["w"]}}
    with pytest.raises(SchemaError) as ei:
        definition_from_json(doc)
    assert "$.H" in str(ei.value)
    doc["allow_nonclosed"] = True
    p = definition_from_json(doc)
    assert not p["courant"].closed_twist


def test_json_syntax_errors_carry_line_and_column():
    with pytest.raises(SchemaError) as ei:
        loads_definition("{\"ring\": }")
    assert "line" in str(ei.value)


def test_digest_is_stable_and_canonical():
    doc = minimal_doc()
    permuted = json.loads(json.dumps(doc))
    permuted = dict(reversed(list(permuted.items())))
    assert canonical_dumps(doc) == canonical_dumps(permuted)
    assert digest(doc) == digest(permuted)
    assert len(digest(doc)) == 64


def test_catalog_documents_parse_under_json_round_trip():
    for name in catalog.names():
        doc = definition_to_json(catalog.load(name))
        text = json.dumps(doc)
        payload = loads_definition(text)
        assert payload["algebroid"].rank == catalog.load(name)["algebroid"].rank


def test_gcr_and_jacobi_blocks_round_trip():
    p = catalog.load("contact-r3")
    doc = definition_to_json(p)
    assert doc["jacobi"]["restrict"] is True
    q = definition_from_json(doc)
    assert q["jacobi"]["lambda"].equals(p["jacobi"]["lambda"])
    assert q["jacobi"]["e"].equals(p["jacobi"]["e"])
    assert q["gcr"].j == p["gcr"].j


def test_rank_v_mismatch_rejected():
    doc = minimal_doc()
    doc["module"] = {"rankV": 2}
    doc["H"] = {"degree": 2, "terms": {"1,2": ["x"]}}  # wrong arity: two components required
    with pytest.raises(SchemaError):
        definition_from_json(doc)


def test_exponential_rates_read_under_the_digit_budget():
    def rate(value):
        doc = minimal_doc()
        doc["ring"]["exps"] = [{"name": "E", "row": [value, "0"]}]
        return definition_from_json(doc)["algebroid"].sig.exps[0].row[0]

    assert rate("1/2") == Fraction(1, 2)
    assert rate("-3") == -3 and rate(2) == 2
    assert rate("0.5") == Fraction(1, 2) and rate("25e-2") == Fraction(1, 4)
    assert rate("1e4299") == 10**4299
    for value in ("1e30000000", "1E-30000000", "1e4300", "0." + "1" * 5000, "1" * 4301):
        with pytest.raises(SchemaError) as ei:
            rate(value)
        assert str(ei.value) == "rational has more than 4300 digits (at $.ring.exps[0].row[0])"
    for value in ("1/0", "half", "1e", True, 0.5):
        with pytest.raises(SchemaError) as ei:
            rate(value)
        assert str(ei.value).endswith("(at $.ring.exps[0].row[0])")
