"""Deterministic command-line checks over JSON definition files.

Every command reads a definition (file or stdin), runs exact verdicts, and
emits a JSON report with a canonical field order.  Identical inputs and seed
produce byte-identical output: verdicts are sorted by name, sampled sections
are embedded in the report, and the timing field stays null unless explicitly
requested.

Exit codes: 0 all verdicts pass, 1 at least one verdict failed, 2 malformed
input (JSON syntax, schema violation, unbuildable object, unknown name).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import catalog, io
from .algebroid import AlgebroidError, CochainLimitError, RankLimitError
from .courant import MAX_SAMPLES, SweepLimitError
from .dirac import DiracError, _check_dirac
from .gcr import (
    GCRError,
    decompose_jacobi,
    extract_bivector,
    tangent_restriction,
    validate_gcr,
)
from .io import SchemaError
from .schouten import SchoutenError, check_jacobi_pair

_ALGEBRA_ALIASES = {
    "sl2": "point-sl2",
    "abelian2": "point-abelian2",
    "heisenberg": "point-heisenberg",
    "heisenberg-mod": "point-heisenberg-mod",
}


def _read_text(path: str | None, at: str = "$") -> str:
    """The text of a file ('-' or None: stdin); a file that cannot be read or
    is not UTF-8 is reported at the $-path `at`."""
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise SchemaError(f"cannot read {path!r}: {ex.strerror}", at) from None
    except UnicodeDecodeError as ex:
        raise SchemaError(f"cannot read {path!r}: not UTF-8 at byte {ex.start}", at) from None


def _load_defs(args) -> tuple:
    doc = io.loads_json(_read_text(getattr(args, "defs", None)))
    built = doc
    if getattr(args, "gcr", None) and isinstance(doc, dict):
        # the --gcr file replaces the embedded block, so that block is not built
        built = {k: v for k, v in doc.items() if k != "gcr"}
    return doc, io.definition_from_json(built)


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            raise SchemaError(f"cannot write {out!r}: {ex.strerror}", "$") from None
    else:
        sys.stdout.write(text)


def _emit(args, report: dict, started: float) -> int:
    report["timing"] = (
        {"seconds": round(time.monotonic() - started, 6)}
        if getattr(args, "timing", False)
        else None
    )
    report["verdicts"] = sorted(report.get("verdicts", []), key=lambda v: v["name"])
    report["ok"] = all(v["pass"] for v in report["verdicts"])
    _write(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["ok"] else 1


def _verdict(name: str, ok: bool, witness=None, residual=None) -> dict:
    return {"name": name, "pass": bool(ok), "witness": witness, "residual": residual}


def _reporting(body):
    """A command that loads the definition and reports what body(args, doc, payload) returns."""

    def command(args) -> int:
        started = time.monotonic()
        doc, payload = _load_defs(args)
        report = {"command": args.command, "inputs": io.digest(doc)}
        report.update(body(args, doc, payload))
        return _emit(args, report, started)

    return command


# -- commands ------------------------------------------------------------------


@_reporting
def _cmd_validate(args, doc, payload) -> dict:
    try:
        v = payload["algebroid"].validate()
    except RankLimitError as ex:
        raise SchemaError(str(ex), "$.rankA") from None
    verdicts = [
        _verdict("anchor_morphism", v["anchor_ok"], residual=v["anchor_defects"][:4] or None),
        _verdict("flat_module", v["flat_ok"], residual=v["curvature_defects"][:4] or None),
        _verdict("jacobi", v["jacobi_ok"], residual=v["jacobi_defects"][:4] or None),
    ]
    C = payload.get("courant")
    if C is not None and not C.twist.is_zero():
        verdicts.append(_verdict("closed_twist", C.closed_twist))
    return {"verdicts": verdicts}


def _cmd_cohomology(args) -> int:
    if args.k < 0:
        raise SchemaError("--k must not be negative", "$")
    if (args.algebra is None) == (args.defs is None):
        raise SchemaError("pass exactly one of --algebra or --defs", "$")
    if args.algebra is not None:
        name = _ALGEBRA_ALIASES.get(args.algebra, args.algebra)
        try:
            payload = catalog.load(name)
        except catalog.CatalogError as ex:
            raise SchemaError(str(ex), "$.algebra") from None
    else:
        _, payload = _load_defs(args)
    try:
        dim = payload["algebroid"].cohomology_dim(args.k)
    except CochainLimitError as ex:
        raise SchemaError(str(ex), "$.rankA") from None
    except AlgebroidError as ex:  # a presentation that is not over a point
        raise SchemaError(str(ex), "$.ring") from None
    _write(args, io.canonical_dumps({"dim": dim}) + "\n")
    return 0


@_reporting
def _cmd_bracket(args, doc, payload) -> dict:
    C = payload["courant"]
    e1 = io.csection_from_json(C.alg, io.loads_json(args.e1, "$.e1"), "$.e1")
    e2 = io.csection_from_json(C.alg, io.loads_json(args.e2, "$.e2"), "$.e2")
    return {
        "result": io.csection_to_json(C.bracket(e1, e2)),
        "pairing": [c.to_str() for c in C.pairing(e1, e2)],
        "verdicts": [],
    }


@_reporting
def _cmd_check_axioms(args, doc, payload) -> dict:
    if args.samples < 0:
        raise SchemaError("--samples must not be negative", "$")
    C = payload["courant"]
    try:
        rep = C.verify(seed=args.seed, samples=args.samples, frame_sweep=True)
    except SweepLimitError as ex:
        raise SchemaError(str(ex), "$" if args.samples > MAX_SAMPLES else "$.rankA") from None
    ax = rep["axioms"]
    alg_ok = rep["algebroid"]
    verdicts = [
        _verdict(
            "algebroid_valid",
            alg_ok["jacobi_ok"] and alg_ok["anchor_ok"] and alg_ok["flat_ok"],
        ),
        _verdict("closed_twist", rep["closed_twist"]),
        _verdict("leibniz_insertion", ax["leibniz"]["defect_matches_insertion"]),
    ]
    for name, axiom in ax.items():
        bad = axiom["violations"]
        witness = bad[0] if name == "leibniz" and bad else None
        verdicts.append(_verdict(name, axiom["holds"], witness=witness, residual=bad or None))
    return {
        "seed": args.seed,
        "samples": {
            "requested": args.samples,
            "sections": rep["samples"],
            "leibniz_triples": ax["leibniz"]["random_triples"],
        },
        "checked": {k: ax[k]["checked"] for k in sorted(ax)},
        "verdicts": verdicts,
    }


@_reporting
def _cmd_check_dirac(args, doc, payload) -> dict:
    C = payload["courant"]
    bundles = dict(payload.get("subbundles", {}))
    if args.subbundle:
        name = os.path.splitext(os.path.basename(args.subbundle))[0]
        if name in bundles:
            raise SchemaError(f"subbundle {name!r} is already defined", "$.subbundle")
        sdoc = io.loads_json(_read_text(args.subbundle, "$.subbundle"), "$.subbundle")
        bundles[name] = io.sections_from_json(C.alg, sdoc, "$.subbundle")
    if not bundles:
        raise SchemaError("no subbundles to check", "$.subbundles")
    verdicts = []
    details = {}
    for name in sorted(bundles):
        gens = bundles[name]
        try:
            rep, proj, rank_a, excluded = _check_dirac(C, gens)
        except DiracError as ex:  # the Lagrangian test needs a rank-one module
            raise SchemaError(str(ex), "$.module.rankV") from None
        verdicts += [
            _verdict(
                f"{name}.lagrangian",
                rep["lagrangian"],
                witness=rep.get("pairing_witness"),
                residual={"rank": rep["rank"], "expected_rank": rep["expected_rank"]},
            ),
            _verdict(f"{name}.involutive", rep["involutive"], witness=rep["involutive_witness"]),
            _verdict(f"{name}.projection_closed", proj["closed"], witness=proj.get("witness")),
        ]
        details[name] = {
            "generators": len(gens),
            "intersect_A": rank_a,
            "excluded": excluded,
        }
    return {"details": details, "verdicts": verdicts}


@_reporting
def _cmd_check_gcr(args, doc, payload) -> dict:
    C = payload["courant"]
    S = payload.get("gcr")
    if args.gcr:
        S = io.gcr_from_json(C, io.loads_json(_read_text(args.gcr, "$.gcr"), "$.gcr"), "$.gcr")
    if S is None:
        raise SchemaError("no gcr block to check", "$.gcr")
    try:
        rep = validate_gcr(S)
    except GCRError as ex:  # only the eigenspace step refuses: it needs i in the ring
        raise SchemaError(str(ex), "$.ring.mode") from None
    verdicts = [
        _verdict("j_square", rep["j_square_ok"], witness=rep.get("j_square_witness")),
        _verdict("orthogonal", rep["orthogonal_ok"], witness=rep.get("orthogonal_witness")),
    ]
    if not rep.get("dirac_skipped"):
        span = {"span_rank": rep["conjugate_span_rank"]}
        witness = rep["dirac_report"]["involutive_witness"]
        verdicts += [
            _verdict("lagrangian", rep["lagrangian_ok"]),
            _verdict("involutive", rep["involutive_ok"], witness=witness),
            _verdict("conjugate_intersection", rep["intersection_ok"], residual=span),
        ]
    details = {"excluded": rep.get("excluded", [])}
    if rep["ok"]:
        details["l_generators"] = [io.csection_to_json(g) for g in rep["l_generators"]]
        # validate_gcr found J^2 = -1 and J^T G J = G, so G J is antisymmetric and
        # so is the block that extract_bivector reads: it cannot refuse here
        P = extract_bivector(S)
        details["bivector"] = io.multivector_to_json(P)
        try:
            dec = decompose_jacobi(C.alg, P)
            details["jacobi_pair"] = {
                "lambda": io.multivector_to_json(dec["lambda"]),
                "e": io.multivector_to_json(dec["e"]),
            }
        except GCRError:
            details["jacobi_pair"] = None
    return {"details": details, "verdicts": verdicts}


@_reporting
def _cmd_check_jacobi(args, doc, payload) -> dict:
    alg = payload["algebroid"]
    if args.restrict and not (args.lam or args.evec):
        raise SchemaError("--restrict needs --lambda and --e", "$")
    if args.lam or args.evec:
        if not (args.lam and args.evec):
            raise SchemaError("pass both --lambda and --e", "$")
        try:
            tangent = tangent_restriction(alg) if args.restrict else alg
        except GCRError as ex:
            raise SchemaError(str(ex), "$") from None
        lam_doc, e_doc = io.loads_json(args.lam, "$.lambda"), io.loads_json(args.evec, "$.e")
        lam, evec = io.jacobi_pair_from_json(tangent, {"lambda": lam_doc, "e": e_doc}, "$")
    elif payload.get("jacobi") is not None:
        jj = payload["jacobi"]
        tangent, lam, evec = jj["algebroid"], jj["lambda"], jj["e"]
    else:
        raise SchemaError("no jacobi pair to check", "$.jacobi")
    try:
        rep = check_jacobi_pair(tangent, lam, evec)
    except SchoutenError as ex:  # the graded bracket needs a rank-one module
        raise SchemaError(str(ex), "$.module.rankV") from None
    verdicts = [
        _verdict(
            "square",
            rep["square_ok"],
            residual=None if rep["square_ok"] else io.multivector_to_json(rep["square_residual"]),
        ),
        _verdict(
            "e_compat",
            rep["e_ok"],
            residual=None if rep["e_ok"] else io.multivector_to_json(rep["e_residual"]),
        ),
    ]
    return {"details": {"nondegenerate": rep["nondegenerate"]}, "verdicts": verdicts}


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _write(args, json.dumps(catalog.names(), indent=2) + "\n")
        return 0
    if not args.entry:
        raise SchemaError("catalog build requires an entry name", "$")
    try:
        payload = catalog.load(args.entry)
    except catalog.CatalogError as ex:
        raise SchemaError(str(ex), "$") from None
    doc = io.definition_to_json(payload)
    _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# -- argument parsing ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple:
    """The top-level parser and its command parsers by name, built on first use and kept.

    Parsing does not change them.
    """
    top = argparse.ArgumentParser(
        prog="courantkit",
        description="exact checks for bracket presentations and their structures",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--defs", default=None, help="definition file ('-' or omit for stdin)")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=int, default=25)

    p = sub.add_parser("validate", help="algebroid axioms and module flatness")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cohomology", help="cochain complex dimension at one degree")
    p.add_argument("--algebra", default=None, help="catalog algebra name")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--defs", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("bracket", help="bracket and pairing of two sections")
    common(p)
    p.add_argument("--e1", required=True, help="section as JSON")
    p.add_argument("--e2", required=True, help="section as JSON")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("check-axioms", help="full axiom sweep with random sections")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("check-dirac", help="isotropy, rank and involutivity of subbundles")
    common(p)
    p.add_argument("--subbundle", default=None, help="extra subbundle file (JSON list)")
    p.set_defaults(func=_cmd_check_dirac)

    p = sub.add_parser("check-gcr", help="orthogonal structure checks and derived data")
    common(p)
    p.add_argument("--gcr", default=None, help="structure file with h, frame, j")
    p.set_defaults(func=_cmd_check_gcr)

    p = sub.add_parser("check-jacobi", help="bivector-vector pair compatibility")
    common(p)
    p.add_argument("--lambda", dest="lam", default=None, help="bivector as JSON")
    p.add_argument("--e", dest="evec", default=None, help="vector as JSON")
    p.add_argument(
        "--restrict",
        action="store_true",
        help="interpret the pair on the split-off tangent part",
    )
    p.set_defaults(func=_cmd_check_jacobi)

    p = sub.add_parser("catalog", help="list or emit built-in definitions")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("entry", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)
    return top, sub.choices


def main(argv=None) -> int:
    # The top-level parser only names the command and hands every other
    # argument to that command's parser, so argv goes there directly and is
    # read once.  An empty argv, an unknown command or arguments the command's
    # parser leaves over go through the top-level parser, so that every usage,
    # help and error text stays argparse's own.
    if argv is None:
        argv = sys.argv[1:]
    top, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command is not None else (None, None)
    if args is None or rest:
        args = top.parse_args(argv)
    else:
        args.command = argv[0]
    try:
        return args.func(args)
    except ValueError as ex:  # schema, parse and construction errors alike
        sys.stderr.write(f"error: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
