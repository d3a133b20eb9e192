import pytest

import ce_oracle
from courantkit import catalog
from courantkit.catalog import CatalogError
from courantkit.dirac import is_dirac, is_lagrangian
from courantkit.gcr import cr_to_gcr, extract_bivector, validate_gcr
from courantkit.io import canonical_dumps, definition_from_json, definition_to_json
from courantkit.schouten import check_jacobi_pair, is_poisson


def structure_of(payload):
    if "gcr" in payload:
        return payload["gcr"]
    return cr_to_gcr(payload["courant"], payload["distribution"], payload["j_matrix"])


def test_names_listing_is_sorted_and_loadable():
    names = catalog.names()
    assert names == sorted(names)
    assert len(names) >= 15
    for name in names:
        payload = catalog.load(name)
        assert "algebroid" in payload and "expected" in payload


def test_unknown_entry_raises():
    with pytest.raises(CatalogError):
        catalog.load("no-such-entry")


def test_every_expected_verdict_matches_a_fresh_run():
    """The frozen metadata must agree with the checkers on every entry."""
    from courantkit.dirac import intersect_with_A

    for name in catalog.names():
        p = catalog.load(name)
        alg = p["algebroid"]
        exp = p["expected"]
        for key, want in exp.items():
            if key == "valid":
                rep = alg.validate()
                valid = rep["jacobi_ok"] and rep["anchor_ok"] and rep["flat_ok"]
                assert valid == want, (name, key)
            elif key == "flat_ok":
                assert alg.validate()["flat_ok"] == want, (name, key)
            elif key == "axioms_ok":
                got = p["courant"].verify(seed=0, samples=4)["ok"]
                assert got == want, (name, key)
            elif key == "closed_twist":
                assert p["courant"].closed_twist == want, (name, key)
            elif key == "dirac":
                for sub, flag in want.items():
                    ok, _ = is_dirac(p["courant"], p["subbundles"][sub])
                    assert ok == flag, (name, key, sub)
            elif key == "lagrangian":
                for sub, flag in want.items():
                    ok, _ = is_lagrangian(p["courant"], p["subbundles"][sub])
                    assert ok == flag, (name, key, sub)
            elif key == "involutive":
                if isinstance(want, dict):
                    for sub, flag in want.items():
                        _, rep = is_dirac(p["courant"], p["subbundles"][sub])
                        assert rep["involutive"] == flag, (name, key, sub)
                else:
                    rep = validate_gcr(structure_of(p))
                    assert rep["involutive_ok"] == want, (name, key)
            elif key == "intersect_a":
                for sub, rank in want.items():
                    got = intersect_with_A(p["courant"], p["subbundles"][sub])
                    assert got == rank, (name, key, sub)
            elif key == "gcr_ok":
                rep = validate_gcr(structure_of(p))
                assert rep["ok"] == want, (name, key)
            elif key == "jacobi_ok":
                jj = p["jacobi"]
                rep = check_jacobi_pair(jj["algebroid"], jj["lambda"], jj["e"])
                assert rep["ok"] == want, (name, key)
            elif key == "poisson":
                P = extract_bivector(structure_of(p))
                assert is_poisson(alg, P) == want, (name, key)
            elif key == "betti":
                assert alg.ce_cohomology() == want, (name, key)
            elif key == "h3":
                betti = alg.ce_cohomology()
                got = betti[3] if len(betti) > 3 else 0
                assert got == want, (name, key)
            elif key == "invariants":
                assert ce_oracle.invariant_dimension(alg) == want, (name, key)
            else:
                raise AssertionError(f"unchecked expectation {key} on {name}")


def test_suspend_reduce_round_trip():
    p = catalog.load("contact-r3")
    alg = p["algebroid"]
    sus = catalog.suspended_tangent(alg)
    beta = p["two_form"]
    up = catalog.suspend_form(alg, sus, beta)
    assert (up.sig, up.rank, up.rank_v) == (sus.sig, sus.rank, sus.rank_v)
    back = catalog.reduce_form(alg, sus, up)
    assert back.equals(beta)


def test_reduce_rejects_noninvariant_forms():
    from courantkit.exterior import AForm

    p = catalog.load("contact-r3")
    alg = p["algebroid"]
    sus = catalog.suspended_tangent(alg)
    ssig = sus.sig
    # weight zero in the unit
    flat = AForm(ssig, sus.rank, 1, 1, {(0,): (ssig.one(),)})
    with pytest.raises(CatalogError):
        catalog.reduce_form(alg, sus, flat)
    # weight one but carrying the suspension coordinate
    t_dep = AForm(
        ssig,
        sus.rank,
        1,
        1,
        {(0,): (ssig.coord("t") * ssig.exp_gen("Et"),)},
    )
    with pytest.raises(CatalogError):
        catalog.reduce_form(alg, sus, t_dep)


def test_contact_two_form_golden():
    # reducing d(unit * (dz - y dx)) leaves f12 - f34 + y f14 (1-based)
    p = catalog.load("contact-r3")
    beta = p["two_form"]
    sig = p["algebroid"].sig
    y = sig.coord("y")
    assert beta.coefficient((0, 1)) == (sig.one(),)
    assert beta.coefficient((2, 3)) == (-sig.one(),)
    assert beta.coefficient((0, 3)) == (y,)
    assert beta.coefficient((1, 2)) == (sig.zero(),)


def test_dimension_guards():
    with pytest.raises(CatalogError):
        catalog.standard_courant(0)
    with pytest.raises(CatalogError):
        catalog.e1m(0)


def test_definition_documents_round_trip_canonically():
    for name in catalog.names():
        p = catalog.load(name)
        doc = definition_to_json(p)
        rebuilt = definition_from_json(doc)
        doc2 = definition_to_json(rebuilt)
        assert canonical_dumps(doc) == canonical_dumps(doc2), name


def test_rebuilt_payloads_agree_with_originals():
    for name in ("standard-r3-twisted", "contact-r3", "point-sl2"):
        p = catalog.load(name)
        doc = definition_to_json(p)
        q = definition_from_json(doc)
        a, b = q["algebroid"], p["algebroid"]
        assert (a.sig, a.rank, a.rank_v) == (b.sig, b.rank, b.rank_v)
        assert (a.anchor, a.structure, a.theta) == (b.anchor, b.structure, b.theta)
        if "courant" in p:
            assert q["courant"].twist.equals(p["courant"].twist)
