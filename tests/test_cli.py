import contextlib
import io as _stdio
import json
import subprocess
import sys
import time

import pytest

from courantkit import catalog, cli, gcr, io, linalg
from courantkit.dirac import anchor_intersection, projection_closure
from courantkit.sampling import SplitMix

from cartan_oracle import random_presentation
from schouten_oracle import mixed_multivector, termwise_jacobi_residuals

CLI = [sys.executable, "-m", "courantkit"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=240,
    )


def build_doc(name):
    r = run_cli("catalog", "build", name)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_catalog_list_is_sorted_json():
    r = run_cli("catalog", "list")
    assert r.returncode == 0
    names = json.loads(r.stdout)
    assert names == sorted(names)
    assert set(names) == set(catalog.names())


def test_catalog_build_unknown_name_exits_2():
    r = run_cli("catalog", "build", "no-such-entry")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_check_axioms_pipe_passes():
    doc = build_doc("tangent-r3")
    r = run_cli("check-axioms", "--samples", "5", stdin=doc)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["ok"] is True
    assert rep["command"] == "check-axioms"
    names = [v["name"] for v in rep["verdicts"]]
    assert names == sorted(names)
    assert all(v["pass"] for v in rep["verdicts"])
    assert rep["timing"] is None


def test_check_axioms_nonclosed_control_exits_1():
    doc = build_doc("nonclosed-r4")
    r = run_cli("check-axioms", "--samples", "4", stdin=doc)
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["ok"] is False
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert verdicts["leibniz"]["pass"] is False
    assert verdicts["leibniz_insertion"]["pass"] is True
    assert verdicts["closed_twist"]["pass"] is False


def test_cohomology_exact_outputs():
    r = run_cli("cohomology", "--algebra", "sl2", "--k", "3")
    assert r.returncode == 0
    assert r.stdout.strip() == '{"dim":1}'
    r = run_cli("cohomology", "--algebra", "abelian2", "--k", "3")
    assert r.stdout.strip() == '{"dim":0}'
    r = run_cli("cohomology", "--algebra", "heisenberg", "--k", "2")
    assert r.stdout.strip() == '{"dim":2}'
    r = run_cli("cohomology", "--algebra", "heisenberg-mod", "--k", "0")
    assert r.stdout.strip() == '{"dim":0}'


def test_cohomology_from_definition_document():
    doc = build_doc("point-sl2")
    r = run_cli("cohomology", "--defs", "-", "--k", "0", stdin=doc)
    assert r.returncode == 0
    assert r.stdout.strip() == '{"dim":1}'


def test_malformed_json_exits_2():
    r = run_cli("validate", stdin="{not json")
    assert r.returncode == 2
    assert "error:" in r.stderr and "line" in r.stderr


def test_schema_error_reports_path_and_position():
    doc = json.loads(build_doc("tangent-r3"))
    doc["anchor"][0][0] = "1 + * x"
    r = run_cli("validate", stdin=json.dumps(doc))
    assert r.returncode == 2
    assert "$.anchor" in r.stderr and "position" in r.stderr


def test_validate_exit_codes():
    r = run_cli("validate", stdin=build_doc("tangent-r3"))
    assert r.returncode == 0
    r = run_cli("validate", stdin=build_doc("curvature-control-r2"))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert verdicts["flat_module"]["pass"] is False


def test_reports_are_byte_identical_across_runs():
    doc = build_doc("standard-r3-twisted")
    a = run_cli("check-axioms", "--samples", "6", stdin=doc)
    b = run_cli("check-axioms", "--samples", "6", stdin=doc)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    c = run_cli("check-axioms", "--samples", "6", "--seed", "1", stdin=doc)
    assert c.stdout != a.stdout  # embedded samples follow the seed
    assert json.loads(c.stdout)["ok"] is True


def test_timing_flag_controls_only_timing_field():
    doc = build_doc("tangent-r3")
    a = run_cli("check-axioms", "--samples", "4", stdin=doc)
    b = run_cli("check-axioms", "--samples", "4", "--timing", stdin=doc)
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    assert ja["timing"] is None
    assert isinstance(jb["timing"], dict)
    jb["timing"] = None
    assert ja == jb


def test_check_dirac_exit_codes_and_details():
    r = run_cli("check-dirac", stdin=build_doc("dirac-graph-r2"))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert verdicts["graph.lagrangian"]["pass"]
    assert verdicts["graph.involutive"]["pass"]
    assert rep["details"]["graph"]["intersect_A"] == 0

    r = run_cli("check-dirac", stdin=build_doc("dirac-nonclosed-r3"))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert verdicts["graph.lagrangian"]["pass"]
    assert not verdicts["graph.involutive"]["pass"]
    assert verdicts["graph.involutive"]["witness"] is not None


def test_check_dirac_subbundle_file(tmp_path):
    doc = json.loads(build_doc("dirac-graph-r2"))
    gens = doc["subbundles"]["graph"]
    sub = tmp_path / "mine.json"
    sub.write_text(json.dumps(gens))
    r = run_cli("check-dirac", "--subbundle", str(sub), stdin=json.dumps(doc))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert any(v["name"].startswith("mine.") for v in rep["verdicts"])


def test_check_dirac_subbundle_file_may_not_replace_an_embedded_one(tmp_path):
    sub = tmp_path / "graph.json"
    sub.write_text(json.dumps([{"x": ["1", "0"]}]))
    code, out, err = _main(
        "check-dirac", "--defs", _entry_file(tmp_path, "dirac-graph-r2"), "--subbundle", sub
    )
    assert (code, out) == (2, "")
    assert err == "error: subbundle 'graph' is already defined (at $.subbundle)\n"


def test_check_gcr_contact_pipeline():
    r = run_cli("check-gcr", stdin=build_doc("contact-r3"))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["ok"]
    P = rep["details"]["bivector"]["terms"]
    assert P == {"1,2": {"-1": "1"}, "2,3": {"-1": "-y"}, "3,4": {"-1": "-1"}}
    pair = rep["details"]["jacobi_pair"]
    assert pair["lambda"]["terms"] == {"1,2": {"0": "1"}, "2,3": {"0": "-y"}}
    assert pair["e"]["terms"] == {"3": {"0": "1"}}


def test_check_gcr_does_not_swallow_a_library_error(tmp_path, monkeypatch):
    # only a GCRError means "no Jacobi pair"; any other error is a fault
    def broken(alg, P):
        raise ValueError("broken decomposition")

    monkeypatch.setattr(cli, "decompose_jacobi", broken)
    code, out, err = _main("check-gcr", "--defs", _entry_file(tmp_path, "contact-r3"))
    assert (code, out, err) == (2, "", "error: broken decomposition\n")


def test_check_gcr_control_exits_1_with_witness():
    r = run_cli("check-gcr", stdin=build_doc("cr-control-r5"))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert not verdicts["involutive"]["pass"]
    assert verdicts["j_square"]["pass"] and verdicts["orthogonal"]["pass"]


def test_check_jacobi_embedded_and_overrides():
    r = run_cli("check-jacobi", stdin=build_doc("contact-r3"))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert verdicts["square"]["pass"] and verdicts["e_compat"]["pass"]
    assert rep["details"]["nondegenerate"] is True

    # overriding e with zero breaks the square identity
    r = run_cli(
        "check-jacobi",
        "--lambda",
        '{"degree":2,"terms":{"1,2":{"0":"1"},"2,3":{"0":"-y"}}}',
        "--e",
        '{"degree":1,"terms":{}}',
        "--restrict",
        stdin=build_doc("contact-r3"),
    )
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    verdicts = {v["name"]: v for v in rep["verdicts"]}
    assert not verdicts["square"]["pass"]
    assert verdicts["square"]["residual"] is not None


def test_check_jacobi_residuals_equal_the_termwise_oracle(tmp_path):
    # on drawn pairs that are not Jacobi, the report's square residual is
    # [lam,lam] + 2 lam ^ e and its e_compat residual is [lam,e], both summed
    # term by term by the oracle
    rng = SplitMix(113)
    algebroids = [catalog.load("e1m-r3")["algebroid"], random_presentation(55, 3, rank_v=1).alg]
    failed = {"square": 0, "e_compat": 0}
    for n, alg in enumerate(algebroids):
        defs = tmp_path / f"alg{n}.json"
        defs.write_text(json.dumps(io.definition_to_json({"algebroid": alg})))
        for _ in range(4):
            lam, e = mixed_multivector(rng, alg, 2), mixed_multivector(rng, alg, 1)
            lam_doc, e_doc = (json.dumps(io.multivector_to_json(M)) for M in (lam, e))
            code, out, err = _main("check-jacobi", "--defs", defs, "--lambda", lam_doc, "--e", e_doc)
            assert err == ""
            verdicts = {v["name"]: v for v in json.loads(out)["verdicts"]}
            square, e_compat = termwise_jacobi_residuals(alg, lam, e)
            for name, want in (("square", square), ("e_compat", e_compat)):
                residual = None if want.is_zero() else io.multivector_to_json(want)
                assert verdicts[name]["residual"] == residual, name
                assert verdicts[name]["pass"] is want.is_zero()
                failed[name] += not want.is_zero()
            assert code == (0 if square.is_zero() and e_compat.is_zero() else 1)
    assert min(failed.values()) >= 6


def test_bracket_golden():
    doc = build_doc("symplectic-r2")
    r = run_cli(
        "bracket",
        "--e1",
        '{"x":["1","0"]}',
        "--e2",
        '{"x":["0","1"],"xi":{"degree":1,"terms":{"2":["x*y"]}}}',
        stdin=doc,
    )
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["result"]["x"] == ["0", "0"]
    assert rep["result"]["xi"]["terms"] == {"2": ["y"]}
    assert rep["pairing"] == ["0"]


def test_out_flag_writes_file_and_silences_stdout(tmp_path):
    doc = build_doc("tangent-r3")
    out = tmp_path / "report.json"
    r = run_cli("validate", "--out", str(out), stdin=doc)
    assert r.returncode == 0
    assert r.stdout == ""
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["command"] == "validate"


def test_inputs_digest_tracks_document():
    doc = build_doc("tangent-r3")
    a = json.loads(run_cli("validate", stdin=doc).stdout)
    b = json.loads(run_cli("validate", stdin=build_doc("e1m-r2")).stdout)
    assert a["inputs"] != b["inputs"]
    assert len(a["inputs"]) == 64


def test_cohomology_requires_exactly_one_source():
    r = run_cli(
        "cohomology", "--algebra", "sl2", "--defs", "-", "--k", "1",
        stdin=build_doc("point-sl2"),
    )
    assert r.returncode == 2
    r = run_cli("cohomology", "--k", "1", stdin="")
    assert r.returncode == 2


def test_negative_sample_count_exits_2():
    doc = build_doc("tangent-r2")
    r = run_cli("check-axioms", "--samples", "-5", stdin=doc)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error:")
    assert "(at $)" in r.stderr
    r = run_cli("check-axioms", "--samples", "0", stdin=doc)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["samples"]["requested"] == 0


def test_negative_cohomology_degree_exits_2():
    r = run_cli("cohomology", "--algebra", "sl2", "--k", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == "error: --k must not be negative (at $)"


def _bare_point_doc(rank):
    return json.dumps({
        "name": f"point-{rank}",
        "ring": {"coords": [], "mode": "rational"},
        "rankA": rank,
        "anchor": [[] for _ in range(rank)],
        "module": {"rankV": 1},
    })


def test_oversized_cohomology_query_exits_2_fast():
    # degree 3 at rankA 24 needs C(24, 4) = 10626 degree-4 cochains
    started = time.monotonic()
    r = run_cli("cohomology", "--defs", "-", "--k", "3", stdin=_bare_point_doc(24))
    assert time.monotonic() - started < 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error:")
    assert "(at $.rankA)" in r.stderr
    r = run_cli("cohomology", "--defs", "-", "--k", "3", stdin=_bare_point_doc(12))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == '{"dim":220}'


def test_oversized_axiom_sweep_exits_2_fast():
    # rankA 10 with rankV 1 has a full frame of 20 sections, over MAX_FRAME = 10
    started = time.monotonic()
    r = run_cli("check-axioms", "--defs", "-", "--samples", "0", stdin=_bare_point_doc(10))
    assert time.monotonic() - started < 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        "error: the frame sweep needs 20 sections, over the limit of 10 (at $.rankA)"
    )
    r = run_cli("check-axioms", "--defs", "-", "--samples", "0", stdin=_bare_point_doc(5))
    assert r.returncode == 0, r.stderr
    doc = build_doc("tangent-r2")
    r = run_cli("check-axioms", "--samples", "101", stdin=doc)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == "error: 101 samples requested, over the limit of 100 (at $)"


def test_oversized_validate_exits_2_fast():
    # the Jacobi sweep alone would take C(24, 3) = 2024 frame triples
    started = time.monotonic()
    r = run_cli("validate", "--defs", "-", stdin=_bare_point_doc(24))
    assert time.monotonic() - started < 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        "error: validation at rankA 24 is over the limit of 12 (at $.rankA)"
    )
    r = run_cli("validate", "--defs", "-", stdin=_bare_point_doc(12))
    assert r.returncode == 0, r.stderr


def test_huge_exponential_rate_exits_2_fast():
    doc = {
        "name": "huge-rate",
        "ring": {"coords": ["x"], "mode": "rational", "exps": [{"name": "E", "row": ["1e30000000"]}]},
        "rankA": 1,
        "anchor": [["1"]],
    }
    started = time.monotonic()
    r = run_cli("validate", stdin=json.dumps(doc))
    assert time.monotonic() - started < 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        "error: rational has more than 4300 digits (at $.ring.exps[0].row[0])"
    )


def test_check_gcr_structure_file_matches_embedded_block(tmp_path):
    doc = json.loads(build_doc("symplectic-r2"))
    embedded = run_cli("check-gcr", stdin=json.dumps(doc))
    assert embedded.returncode == 0, embedded.stderr
    gfile = tmp_path / "gcr.json"
    gfile.write_text(json.dumps(doc.pop("gcr")))
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps(doc))
    r = run_cli("check-gcr", "--defs", str(defs), "--gcr", str(gfile))
    assert r.returncode == 0, r.stderr
    want, got = json.loads(embedded.stdout), json.loads(r.stdout)
    assert got["verdicts"] == want["verdicts"]
    assert got["details"] == want["details"]
    gfile.write_text(json.dumps({"h": 1, "frame": [["1", "0"], ["0", "1"]], "j": "oops"}))
    r = run_cli("check-gcr", "--defs", str(defs), "--gcr", str(gfile))
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "(at $.gcr" in r.stderr


def test_check_dirac_excluded_covers_every_verdict():
    # the rank of the form columns G_xi on the non-closed graph excludes z: at
    # z = 0 the form vanishes and the generic rank changes, so the report must
    # say so; intersect_A is the rank anchor_intersection builds a basis for
    r = run_cli("check-dirac", stdin=build_doc("dirac-nonclosed-r3"))
    assert r.returncode == 1
    details = json.loads(r.stdout)["details"]["graph"]
    excluded = details["excluded"]
    assert "z" in excluded
    p = catalog.load("dirac-nonclosed-r3")
    C, gens = p["courant"], p["subbundles"]["graph"]
    forms = [g.coordinates()[C.alg.rank :] for g in gens]
    xi_excluded = linalg.rank(C.alg.sig, forms)[1]
    assert "z" in xi_excluded
    assert set(xi_excluded) <= set(excluded)
    assert anchor_intersection(C, gens)[0] == details["intersect_A"] == 1
    assert set(projection_closure(C, gens)["excluded"]) <= set(excluded)


def _counting(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_check_gcr_structure_file_builds_only_that_block(tmp_path, monkeypatch):
    doc = io.definition_to_json(catalog.load("symplectic-r2"))
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps(doc))  # keeps its own gcr block
    gfile = tmp_path / "gcr.json"
    gfile.write_text(json.dumps(doc["gcr"]))
    distributions = _counting(monkeypatch, io, "Distribution")
    generators = _counting(monkeypatch, gcr, "l_generators")
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check-gcr", "--defs", str(defs), "--gcr", str(gfile)])
    assert code == 0
    assert len(distributions) == 1
    assert len(generators) == 1
    rep = json.loads(out.getvalue())
    assert rep["inputs"] == io.digest(doc)
    assert rep["details"]["l_generators"]


@pytest.mark.parametrize(
    "entry,text,message",
    [
        ("tangent-r2", "(x+1)^3000", "exponent 3000 exceeds the limit of 64"),
        ("tangent-r3", "(x+y+z+1)^60", "expression exceeds the limit of 200 terms"),
    ],
)
def test_oversized_ring_expression_exits_2_quickly(entry, text, message):
    doc = json.loads(build_doc(entry))
    doc["anchor"][0][0] = text
    started = time.monotonic()
    r = run_cli("validate", stdin=json.dumps(doc))
    assert time.monotonic() - started < 5
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr
    assert r.stderr.strip().endswith("(at $.anchor[0][0])")


def test_deeply_nested_ring_expression_exits_2_at_its_path_and_position(tmp_path):
    from courantkit.ring import MAX_NESTING

    doc = json.loads(build_doc("tangent-r2"))
    doc["anchor"][0][0] = "(" * 400 + "x" + ")" * 400
    defs = tmp_path / "deep.json"
    defs.write_text(json.dumps(doc))
    r = run_cli("validate", "--defs", str(defs))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == (
        f"error: parentheses nest deeper than the limit of {MAX_NESTING}"
        f" (at position {MAX_NESTING}) (at $.anchor[0][0])"
    )


def test_deeply_nested_json_on_stdin_exits_2_at_the_root():
    r = run_cli("validate", stdin="[" * 200000)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == "error: invalid JSON: arrays and objects nest too deeply (at $)"


def test_deeply_nested_json_in_a_flag_exits_2_at_that_flag(tmp_path):
    defs = tmp_path / "contact-r3.json"
    defs.write_text(build_doc("contact-r3"))
    r = run_cli("check-jacobi", "--defs", str(defs), "--lambda", "[" * 20000, "--e", '{"degree":1}')
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == (
        "error: invalid JSON: arrays and objects nest too deeply (at $.lambda)"
    )


def test_oversized_module_rank_exits_2_fast():
    # without an action the constructor would build rankV x rankV zero matrices
    from courantkit.algebroid import MAX_MODULE_RANK

    doc = json.loads(_bare_point_doc(1))
    doc["module"]["rankV"] = 20000
    started = time.monotonic()
    r = run_cli("validate", stdin=json.dumps(doc))
    assert time.monotonic() - started < 2
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == (
        f"error: module rank 20000 is over the limit of {MAX_MODULE_RANK} (at $.module.rankV)"
    )
    doc["module"]["rankV"] = MAX_MODULE_RANK
    r = run_cli("validate", stdin=json.dumps(doc))
    assert r.returncode == 0, r.stderr


def test_successive_main_calls_share_no_state(tmp_path):
    # the parser is built once per process; what one call parses must not
    # reach the next, so each report equals the one from a fresh process
    defs = {}
    for name in ("tangent-r3", "standard-r3-twisted", "dirac-graph-r2"):
        defs[name] = tmp_path / f"{name}.json"
        defs[name].write_text(build_doc(name))
    report = tmp_path / "report.json"
    calls = [
        ["check-axioms", "--defs", defs["tangent-r3"], "--samples", "3", "--seed", "5",
         "--timing", "--out", report],
        ["check-axioms", "--defs", defs["tangent-r3"], "--samples", "2"],
        ["validate", "--defs", defs["standard-r3-twisted"], "--timing"],
        ["validate", "--defs", defs["standard-r3-twisted"]],
        ["check-dirac", "--defs", defs["dirac-graph-r2"]],
        ["catalog", "list"],
        ["check-axioms", "--defs", defs["standard-r3-twisted"], "--samples", "1"],
    ]

    def outcome(code, stdout, argv):
        if "--out" in argv:
            assert stdout == ""
            stdout = report.read_text()
            report.unlink()
        rep = json.loads(stdout)
        if isinstance(rep, dict):
            timing = rep.pop("timing")
            assert (timing is not None) == ("--timing" in argv)
        return code, rep

    for argv in calls:
        argv = [str(a) for a in argv]
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        mine = outcome(code, out.getvalue(), argv)
        fresh = run_cli(*argv)
        assert mine == outcome(fresh.returncode, fresh.stdout, argv), argv
    rep = mine[1]
    assert rep["seed"] == 0 and rep["samples"]["requested"] == 1
    assert cli._parsers() is cli._parsers()


def _main(*argv):
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _exit_outcome(call, argv):
    """(exit code, stdout, stderr) of call(argv), an argparse exit included."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


TOP_USAGE = "usage: courantkit [-h]"


@pytest.mark.parametrize(
    "argv, code, stdout_starts, stderr_starts, stderr_has",
    [
        (
            ["check-jacobi", "--bogus"], 2, "", TOP_USAGE,
            "\ncourantkit: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["check-jacobi", "--lambda"], 2, "", "usage: courantkit check-jacobi [-h]",
            "\ncourantkit check-jacobi: error: argument --lambda: expected one argument\n",
        ),
        (["check-dirac", "-h"], 0, "usage: courantkit check-dirac [-h]", "", ""),
        (
            ["no-such-command"], 2, "", TOP_USAGE,
            "\ncourantkit: error: argument command: invalid choice: 'no-such-command'",
        ),
        (["--help"], 0, TOP_USAGE, "", ""),
        ([], 2, "", TOP_USAGE, "\ncourantkit: error: the following arguments are required: command\n"),
    ],
    ids=["unknown-flag", "flag-without-value", "command-help", "unknown-command", "help", "empty"],
)
def test_argv_errors_and_help_are_the_top_level_parsers(
    argv, code, stdout_starts, stderr_starts, stderr_has
):
    # main hands argv to the command's parser; whatever it prints or exits
    # with is what the top-level parser gives for the same argv
    got = _exit_outcome(cli.main, argv)
    assert got == _exit_outcome(cli._parsers()[0].parse_args, argv)
    got_code, out, err = got
    assert got_code == code
    assert out.startswith(stdout_starts) and (out == "") == (stdout_starts == "")
    assert err.startswith(stderr_starts) and (err == "") == (stderr_starts == "")
    assert stderr_has in err


def test_index_keys_have_one_spelling(tmp_path):
    # "1" and "01" name the same index; accepting both would let the later
    # one silently win, so only the canonical decimal spelling parses
    defs = tmp_path / "tangent-r2.json"
    defs.write_text(build_doc("tangent-r2"))
    e1 = '{"x":["1","0"],"xi":{"degree":1,"terms":{"1":["x"],"01":["y"]}}}'
    code, out, err = _main("bracket", "--defs", defs, "--e1", e1, "--e2", '{"x":["0","1"]}')
    assert (code, out) == (2, "")
    assert err.strip() == "error: bad index '01' (at $.e1.xi.terms['01'])"
    doc = json.loads(build_doc("point-sl2"))
    doc["structure"][" 1,2"] = doc["structure"].pop("1,2")
    r = run_cli("validate", stdin=json.dumps(doc))
    assert r.returncode == 2
    assert r.stderr.strip() == "error: bad index ' 1' (at $.structure[' 1,2'])"


def test_grades_have_one_spelling(tmp_path):
    defs = tmp_path / "contact-r3.json"
    defs.write_text(build_doc("contact-r3"))
    lam = '{"degree":2,"terms":{"1,2":{"0":"1","00":"y"}}}'
    code, out, err = _main(
        "check-jacobi", "--defs", defs, "--lambda", lam, "--e", '{"degree":1}', "--restrict"
    )
    assert (code, out) == (2, "")
    assert err.strip() == "error: bad grade '00' (at $.lambda.terms['1,2'])"
    sig = catalog.load("contact-r3")["algebroid"].sig
    assert sorted(io.fscalar_from_json(sig, {"-1": "x", "2": "1"}, "$").parts) == [-1, 2]


@pytest.mark.parametrize("flag", ["--e1", "--e2", "--lambda", "--e", "--subbundle", "--gcr"])
def test_invalid_json_in_an_argument_names_that_argument(tmp_path, flag):
    entry, command, args = {
        "--e1": ("tangent-r2", "bracket", {"--e1": None, "--e2": '{"x":["0","1"]}'}),
        "--e2": ("tangent-r2", "bracket", {"--e1": '{"x":["1","0"]}', "--e2": None}),
        "--lambda": ("contact-r3", "check-jacobi", {"--lambda": None, "--e": '{"degree":1}'}),
        "--e": ("contact-r3", "check-jacobi", {"--lambda": '{"degree":2}', "--e": None}),
        "--subbundle": ("dirac-graph-r2", "check-dirac", {"--subbundle": None}),
        "--gcr": ("symplectic-r2", "check-gcr", {"--gcr": None}),
    }[flag]
    defs = tmp_path / f"{entry}.json"
    defs.write_text(build_doc(entry))
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    argv = [command, "--defs", defs]
    for name, value in args.items():
        if value is None:
            value = bad if name in ("--subbundle", "--gcr") else "{bad"
        argv += [name, value]
    code, out, err = _main(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ")
    assert err.strip().endswith(f"(at $.{flag.lstrip('-')})")


@pytest.mark.parametrize(
    "flag,entry,command,at",
    [
        ("--defs", "tangent-r2", "validate", "$"),
        ("--subbundle", "dirac-graph-r2", "check-dirac", "$.subbundle"),
        ("--gcr", "symplectic-r2", "check-gcr", "$.gcr"),
    ],
)
def test_unreadable_file_names_its_argument(tmp_path, flag, entry, command, at):
    defs = tmp_path / f"{entry}.json"
    defs.write_text(build_doc(entry))
    missing = tmp_path / "missing.json"
    argv = [command, "--defs", missing if flag == "--defs" else defs]
    if flag != "--defs":
        argv += [flag, missing]
    code, out, err = _main(*argv)
    assert (code, out) == (2, "")
    assert err.strip() == (
        f"error: cannot read '{missing}': No such file or directory (at {at})"
    )


@pytest.mark.parametrize(
    "flag,entry,command,at",
    [
        ("--defs", "tangent-r2", "validate", "$"),
        ("--subbundle", "dirac-graph-r2", "check-dirac", "$.subbundle"),
        ("--gcr", "symplectic-r2", "check-gcr", "$.gcr"),
    ],
)
def test_file_that_is_not_utf8_exits_2_at_its_argument(tmp_path, flag, entry, command, at):
    defs = tmp_path / f"{entry}.json"
    defs.write_text(build_doc(entry))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"\xff": 1}')
    argv = [command, "--defs", bad if flag == "--defs" else defs]
    if flag != "--defs":
        argv += [flag, bad]
    code, out, err = _main(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read '{bad}': not UTF-8 at byte 2 (at {at})\n"


def test_out_into_a_missing_directory_exits_2_at_the_root(tmp_path):
    defs = tmp_path / "tangent-r2.json"
    defs.write_text(build_doc("tangent-r2"))
    target = tmp_path / "missing" / "r.json"
    code, out, err = _main("validate", "--defs", defs, "--out", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write '{target}': No such file or directory (at $)\n"
    assert not target.parent.exists()


def _entry_file(tmp_path, entry, edit=None):
    """A catalog entry written to a file, after edit(doc) if given."""
    doc = json.loads(build_doc(entry))
    if edit is not None:
        edit(doc)
    path = tmp_path / f"{entry}.json"
    path.write_text(json.dumps(doc))
    return path


def test_cohomology_off_a_point_exits_2_at_the_ring():
    r = run_cli("cohomology", "--defs", "-", "--k", "1", stdin=build_doc("tangent-r2"))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: cohomology requires a presentation over a point (at $.ring)\n"


def test_check_dirac_on_a_rank_two_module_exits_2_at_its_rank(tmp_path, monkeypatch):
    def edit(doc):
        doc["module"] = {"rankV": 2}
        doc["subbundles"] = {"line": [{"x": ["1", "0"]}]}

    defs = _entry_file(tmp_path, "tangent-r2", edit)
    rrefs = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda sig, M: rrefs.append(1) or real(sig, M))
    code, out, err = _main("check-dirac", "--defs", defs)
    assert (code, out) == (2, "")
    assert err == "error: maximal-isotropy test requires a rank-one module (at $.module.rankV)\n"
    # the module is refused before the generators are eliminated
    assert rrefs == []


def test_check_jacobi_on_a_rank_two_module_exits_2_at_its_rank(tmp_path):
    defs = _entry_file(tmp_path, "tangent-r2", lambda doc: doc.update(module={"rankV": 2}))
    code, out, err = _main(
        "check-jacobi", "--defs", defs,
        "--lambda", '{"degree":2,"terms":{"1,2":{"0":"1"}}}', "--e", '{"degree":1}',
    )
    assert (code, out) == (2, "")
    assert err == "error: graded bracket requires a rank-one module (at $.module.rankV)\n"
    # the same pair from the document's own jacobi block
    def edit(doc):
        doc["module"] = {"rankV": 2}
        doc["jacobi"]["restrict"] = False
        for key in ("gcr", "subbundles", "two_form"):
            del doc[key]

    code, out, err = _main("check-jacobi", "--defs", _entry_file(tmp_path, "contact-r3", edit))
    assert (code, out) == (2, "")
    assert err == "error: graded bracket requires a rank-one module (at $.module.rankV)\n"


def test_check_jacobi_restrict_without_a_central_direction_exits_2_at_the_root(tmp_path):
    code, out, err = _main(
        "check-jacobi", "--defs", _entry_file(tmp_path, "tangent-r2"), "--restrict",
        "--lambda", '{"degree":2}', "--e", '{"degree":1}',
    )
    assert (code, out) == (2, "")
    assert err == "error: final frame direction is not anchor-central (at $)\n"


def test_check_jacobi_restrict_without_a_pair_exits_2_at_the_root(tmp_path):
    # the document's own pair is read unrestricted, so --restrict alone would
    # be ignored; it is refused instead
    defs = _entry_file(tmp_path, "contact-r3", lambda doc: doc["jacobi"].update(restrict=False))
    assert _main("check-jacobi", "--defs", defs)[0] == 0
    code, out, err = _main("check-jacobi", "--defs", defs, "--restrict")
    assert (code, out) == (2, "")
    assert err == "error: --restrict needs --lambda and --e (at $)\n"


@pytest.mark.parametrize(
    "lam,evec,line",
    [
        ('{"degree":1}', '{"degree":1}', "error: expected a bivector (at $.lambda.degree)"),
        ('{"degree":2}', '{"degree":2}', "error: expected a vector (at $.e.degree)"),
    ],
)
def test_check_jacobi_flag_of_the_wrong_degree_exits_2_at_its_degree(tmp_path, lam, evec, line):
    defs = _entry_file(tmp_path, "contact-r3")
    code, out, err = _main("check-jacobi", "--defs", defs, "--restrict", "--lambda", lam, "--e", evec)
    assert (code, out) == (2, "")
    assert err == line + "\n"
    # the same pair as the document's own jacobi block: the same message under $.jacobi
    pair = {"lambda": json.loads(lam), "e": json.loads(evec)}
    defs = _entry_file(tmp_path, "contact-r3", lambda doc: doc["jacobi"].update(pair))
    line = line.replace("(at $", "(at $.jacobi")
    assert _main("check-jacobi", "--defs", defs) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "block,value,message",
    [
        (
            "jacobi",
            {"lambda": {"degree": 2, "terms": {"1,2": {"00": "1"}}}, "e": {"degree": 1}},
            "bad grade '00' (at {}.lambda.terms['1,2'])",
        ),
        ("subbundle", {}, "expected a list of sections (at {})"),
        (
            "subbundle",
            [{"x": ["1", "0"]}, {"x": ["0", "1"], "xi": {"degree": 2}}],
            "section form part must have degree 1 (at {}[1].xi.degree)",
        ),
    ],
)
def test_a_flag_and_the_document_refuse_a_block_alike(tmp_path, block, value, message):
    # one reader serves both: only the root of the $-path tells them apart
    if block == "jacobi":
        documented = _main(
            "check-jacobi", "--defs",
            _entry_file(tmp_path, "contact-r3", lambda doc: doc["jacobi"].update(value)),
        )
        flagged = _main(
            "check-jacobi", "--defs", _entry_file(tmp_path, "contact-r3"), "--restrict",
            "--lambda", json.dumps(value["lambda"]), "--e", json.dumps(value["e"]),
        )
        roots = ("$.jacobi", "$")
    else:
        documented = _main(
            "check-dirac", "--defs",
            _entry_file(tmp_path, "dirac-graph-r2", lambda doc: doc["subbundles"].update(g=value)),
        )
        sub = tmp_path / "g.json"
        sub.write_text(json.dumps(value))
        flagged = _main(
            "check-dirac", "--defs", _entry_file(tmp_path, "dirac-graph-r2"), "--subbundle", sub
        )
        roots = ("$.subbundles['g']", "$.subbundle")
    assert documented == (2, "", f"error: {message.format(roots[0])}\n")
    assert flagged == (2, "", f"error: {message.format(roots[1])}\n")


@pytest.mark.parametrize("entry", ["contact-r3", "dirac-graph-r2"])
def test_a_block_moved_into_its_flag_gives_the_same_report(tmp_path, entry):
    doc = json.loads(build_doc(entry))
    if entry == "contact-r3":
        block = doc.pop("jacobi")
        assert block["restrict"] is True
        argv = ["check-jacobi", "--restrict", "--lambda", json.dumps(block["lambda"])]
        argv += ["--e", json.dumps(block["e"])]
    else:
        sub = tmp_path / "graph.json"
        sub.write_text(json.dumps(doc.pop("subbundles")["graph"]))
        argv = ["check-dirac", "--subbundle", sub]
    embedded = _main(argv[0], "--defs", _entry_file(tmp_path, entry))
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps(doc))
    code, out, err = _main(*argv, "--defs", defs)
    assert (code, err) == (embedded[0], "") == (0, "")
    want, got = json.loads(embedded[1]), json.loads(out)
    assert got["verdicts"] == want["verdicts"]
    assert got["details"] == want["details"]


@pytest.mark.parametrize(
    "entry", ["contact-r3", "cr-complex-r2", "cr-control-r5", "cr-levi-flat-r3", "symplectic-r2"]
)
def test_check_gcr_over_a_rational_ring_exits_2_at_its_mode(tmp_path, entry):
    # J passes J^2 = -1 and orthogonality, but its +i eigenspace needs i in the ring
    defs = _entry_file(tmp_path, entry, lambda doc: doc["ring"].update(mode="rational"))
    code, out, err = _main("check-gcr", "--defs", defs)
    assert (code, out) == (2, "")
    assert err == "error: eigenspace construction needs gaussian coefficients (at $.ring.mode)\n"


def test_check_gcr_over_a_rational_ring_still_reports_a_failing_j(tmp_path):
    def edit(doc):
        doc["ring"]["mode"] = "rational"
        doc["gcr"]["j"][0][3] = "1"

    code, out, err = _main("check-gcr", "--defs", _entry_file(tmp_path, "symplectic-r2", edit))
    rep = json.loads(out)
    assert (code, err) == (1, "")
    assert {v["name"]: v["pass"] for v in rep["verdicts"]} == {"j_square": False, "orthogonal": False}
    assert rep["verdicts"][0]["witness"] == {"entry": [0, 0], "value": "2"}


@pytest.mark.parametrize("entry", ["contact-r3", "dirac-graph-r2", "dirac-nonclosed-r3"])
def test_check_dirac_reads_the_projection_off_the_courant_brackets(entry, monkeypatch):
    # pi[[g_i, g_j]] = [x_i, x_j]: the projection closure reuses the brackets
    # the involutivity check made, so no anchor bracket is computed
    from courantkit.algebroid import Algebroid

    doc = build_doc(entry)
    calls = _counting(monkeypatch, Algebroid, "bracket")
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), monkeypatch.context() as m:
        m.setattr(sys, "stdin", _stdio.StringIO(doc))
        code = cli.main(["check-dirac"])
    assert code in (0, 1)
    assert json.loads(out.getvalue())["verdicts"]
    assert calls == []


@pytest.mark.parametrize("entry", ["symplectic-r2", "cr-control-r5"])
def test_check_gcr_lifts_the_eigenvectors_on_one_basis(entry, monkeypatch):
    doc = build_doc(entry)
    calls = _counting(monkeypatch, gcr.HBundle, "basis_sections")
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), monkeypatch.context() as m:
        m.setattr(sys, "stdin", _stdio.StringIO(doc))
        code = cli.main(["check-gcr"])
    assert code in (0, 1)
    assert json.loads(out.getvalue())["verdicts"]
    assert len(calls) == 1


def test_check_dirac_projection_of_a_list_that_is_not_isotropic(tmp_path, monkeypatch):
    # the closure brackets both orders of each pair here, and the projection
    # verdict must still be the one projection_closure gives on the i < j pairs
    sdoc = [
        {"x": ["1", "0", "0"], "xi": {"degree": 1, "terms": {"1": ["1"]}}},
        {"x": ["0", "x", "x^2"], "xi": {"degree": 1, "terms": {"3": ["y"]}}},
        {"x": ["0", "0", "0"], "xi": {"degree": 1, "terms": {"2": ["1"]}}},
    ]
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(sdoc))
    doc = build_doc("tangent-r3")
    C = io.loads_definition(doc)["courant"]
    gens = [io.csection_from_json(C.alg, s, "$") for s in sdoc]
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), monkeypatch.context() as m:
        m.setattr(sys, "stdin", _stdio.StringIO(doc))
        code = cli.main(["check-dirac", "--subbundle", str(sub)])
    assert code == 1
    rep = json.loads(out.getvalue())
    v = {x["name"]: x for x in rep["verdicts"]}
    assert v["sub.lagrangian"]["witness"]["pair"] == [0, 0]
    want = projection_closure(C, gens)
    assert not want["closed"] and want["witness"]["pair"] == [0, 1]
    assert v["sub.projection_closed"]["pass"] is False
    assert v["sub.projection_closed"]["witness"] == want["witness"]
    assert set(want["excluded"]) <= set(rep["details"]["sub"]["excluded"])
