"""Every report the program writes, fingerprinted, to show a change leaves them byte-identical or list what it changes.

    python3 tools/identity.py --write FILE
    python3 tools/identity.py --diff A B

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


def benchmark_outputs():
    """(key, exit code, stdout, stderr) of every benchmark verdict at each seed."""
    for workload, build in workloads.BUILDERS.items():
        for seed in SEEDS:
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


def write(path: str) -> int:
    path = os.path.abspath(path)
    outputs = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for gen in (catalog_outputs(), benchmark_outputs()):
                for key, code, out, err in gen:
                    outputs[key] = {
                        "code": code,
                        "sha256": _fingerprint(code, out, err),
                        "stderr": err,
                        "stdout": out,
                    }
        finally:
            os.chdir(here)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(outputs)} outputs recorded in {path}")
    return 0


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
    args = ap.parse_args(argv)
    return write(args.write) if args.write else diff(*args.diff)


if __name__ == "__main__":
    sys.exit(main())
