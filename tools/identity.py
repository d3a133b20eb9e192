"""Every report the program writes, fingerprinted, to show a change leaves them byte-identical or list what it changes.

    python3 tools/identity.py --write FILE
    python3 tools/identity.py --diff A B
    python3 tools/identity.py --golden tests/golden/identity.json
    python3 tools/identity.py --check tests/golden/identity.json

Run from the root of a source checkout; the program is imported from ``src/``
and the benchmark's inputs from ``perfbench/workloads.py``, which this script
only reads.  ``--write`` runs, in one process:

* ``catalog list``, and for every catalog entry ``catalog build``,
  ``validate``, ``check-axioms``, ``check-dirac``, ``check-gcr``,
  ``check-jacobi`` and ``cohomology`` at k = 0..3, each on the built document;
* every verdict of the three benchmark workloads at seeds 0, 3 and 7, on the
  inputs the benchmark generates for that seed.

It writes one JSON object mapping a key per output to that output's exit
code, stdout and stderr, beside the sha256 of the three; an `axiom-sweep`
verdict is a library call, so its report is recorded as JSON with exit code 0.
Inputs are written to a temporary directory and named by relative paths, so no
text depends on where it lies.  ``--diff A B`` prints each key whose hash
differs, with a unified diff of its old and new text, and each key that one
file lacks; it exits 1 when there is any, 0 when the two files agree.

``--golden FILE`` writes the checked-in form: one line per key, mapping it to
its exit code and sha256 alone.  ``--check FILE`` runs every output again and prints each
key whose exit code or hash differs from FILE's, or that only one side has;
it exits 1 when there is any.  A change that alters reports on purpose
rewrites tests/golden/identity.json with ``--golden``, so that the file's own
diff names every changed key; tests/test_golden_identity.py checks the catalog
keys and the seed-0 benchmark keys against it.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io as _stdio
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from courantkit import catalog, cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 3, 7)
COMMANDS = ("validate", "check-axioms", "check-dirac", "check-gcr", "check-jacobi")
COHOMOLOGY_DEGREES = range(4)


def _fingerprint(code, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _cli(argv) -> tuple:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def catalog_outputs():
    """(key, exit code, stdout, stderr) of every command on every catalog entry."""
    yield ("catalog list",) + _cli(["catalog", "list"])
    for name in catalog.names():
        code, doc, err = _cli(["catalog", "build", name])
        yield (f"catalog/{name}/catalog build", code, doc, err)
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        for command in COMMANDS:
            yield (f"catalog/{name}/{command}",) + _cli([command, "--defs", path])
        for k in COHOMOLOGY_DEGREES:
            yield (f"catalog/{name}/cohomology --k {k}",) + _cli(["cohomology", "--defs", path, "--k", str(k)])


def benchmark_outputs(seeds=SEEDS):
    """(key, exit code, stdout, stderr) of every benchmark verdict at each seed."""
    for workload, build in workloads.BUILDERS.items():
        for seed in seeds:
            cases = build(random.Random(f"{workload}:{seed}"), ".")
            for case in cases:
                key = f"bench/{workload}/{seed}/{case.name}"
                try:
                    out = workloads.run_case(case)
                except Exception as ex:  # a raising verdict is recorded, not fatal
                    yield key, "raised", "", f"{type(ex).__name__}: {ex}"
                    continue
                if case.argv is None:
                    yield key, 0, json.dumps(out), ""
                else:
                    yield (key,) + out


def outputs(seeds=SEEDS) -> dict:
    """Every catalog output and every benchmark verdict at the given seeds,
    key -> {code, sha256, stderr, stdout}, run in a temporary directory."""
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for gen in (catalog_outputs(), benchmark_outputs(seeds)):
                for key, code, stdout, stderr in gen:
                    out[key] = {
                        "code": code,
                        "sha256": _fingerprint(code, stdout, stderr),
                        "stderr": stderr,
                        "stdout": stdout,
                    }
        finally:
            os.chdir(here)
    return out


def write(path: str) -> int:
    got = outputs()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(got)} outputs recorded in {path}")
    return 0


def write_golden(path: str) -> int:
    """One line per key, "key": [exit code, sha256], in key order."""
    got = outputs()
    lines = [f"{json.dumps(k)}: {json.dumps([got[k]['code'], got[k]['sha256']])}" for k in sorted(got)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(got)} outputs recorded in {path}")
    return 0


def _seed(key: str):
    """The seed of a benchmark key, None for a catalog key."""
    return int(key.split("/")[2]) if key.startswith("bench/") else None


def compare(golden: dict, got: dict, seeds=SEEDS) -> list:
    """The keys whose exit code or hash in got differs from the golden
    file's, as lines, over the catalog keys and the benchmark keys at the
    given seeds; a key that only one side has is a line too."""
    problems = []
    for key in sorted(got.keys() | golden.keys()):
        if key not in got:
            if _seed(key) is None or _seed(key) in seeds:
                problems.append(f"only in the golden file: {key}")
        elif key not in golden:
            problems.append(f"not in the golden file: {key}")
        elif [got[key]["code"], got[key]["sha256"]] != golden[key]:
            problems.append(f"changed: {key} (exit code {golden[key][0]} -> {got[key]['code']})")
    return problems


def _lines(output: dict) -> list:
    """The exit code, stdout and stderr of one recorded output, as lines to diff."""
    return (
        [f"exit code: {output['code']}"]
        + output["stdout"].splitlines()
        + [f"stderr: {line}" for line in output["stderr"].splitlines()]
    )


def diff(a: str, b: str) -> int:
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        old, new = json.load(fa), json.load(fb)
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"only in {a}: {key}")
        elif key not in old:
            print(f"only in {b}: {key}")
        elif old[key]["sha256"] != new[key]["sha256"]:
            print(f"changed: {key}")
            for line in difflib.unified_diff(
                _lines(old[key]), _lines(new[key]), f"{a} {key}", f"{b} {key}", lineterm=""
            ):
                print(line)
        else:
            continue
        changed += 1
    print(f"{changed} of {len(old.keys() | new.keys())} keys differ", file=sys.stderr)
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE", help="record every output and its hash in FILE")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="diff the outputs whose hashes differ")
    group.add_argument("--golden", metavar="FILE", help="record every output's exit code and hash in FILE")
    group.add_argument("--check", metavar="FILE", help="compare every output with the hashes in FILE")
    args = ap.parse_args(argv)
    if args.write:
        return write(args.write)
    if args.golden:
        return write_golden(args.golden)
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            problems = compare(json.load(fh), outputs())
        for line in problems:
            print(line)
        print(f"{len(problems)} keys differ from {args.check}", file=sys.stderr)
        return 1 if problems else 0
    return diff(*args.diff)


if __name__ == "__main__":
    sys.exit(main())
