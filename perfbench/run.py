"""courantkit benchmark: known-answer verdicts, timed end to end, traced per layer.

    python3 perfbench/run.py --workload axiom-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a fixed, seeded list of verdicts (one round).  A
run repeats whole rounds until ``--seconds`` of verdict time have passed,
checks every verdict against its known answer, and prints one JSON object as
the last line of standard output.  Every time it reports is scaled to a fixed
machine speed, measured by a yardstick that runs between verdicts (see
``Yardstick``).  With ``--trace 1`` the run ends with every
third case of the list run once more under ``cProfile``, and prints the
per-layer metrics instead of the end-to-end ones.  Without ``--workload`` all
three workloads run in turn.

Exit codes: 0 every verdict matched its known answer, 1 some verdict failed,
2 the program could not be imported or a workload could not be set up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import fractions  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "work")
SETUP_REPEATS = 3  # at least this many input generations per run,
SETUP_MIN_S = 1.0  # and at least this much generation time, for a steady median
TRACE_STRIDE = 3

WORKLOADS = ("axiom-sweep", "subbundle-elimination", "graded-brackets")

# Calls counted in the traced round: metric -> (module, attribute path).
COUNTED = {
    "ring.mul_calls": ("ring", "RingElem.__mul__"),
    "ring.add_calls": ("ring", "RingElem.__add__"),
    "ring.elem_inits": ("ring", "RingElem.__init__"),
    "ring.partial_calls": ("ring", "RingElem.partial"),
    "ring.exact_div_calls": ("ring", "RingElem.exact_div"),
    "ring.parse_calls": ("ring", "RingSignature.parse"),
    "exterior.contract_calls": ("exterior", "contract"),
    "exterior.wedge_calls": ("exterior", "wedge"),
    "exterior.iota_calls": ("exterior", "iota"),
    "exterior.breve_contract_calls": ("exterior", "breve_contract"),
    "algebroid.d_calls": ("algebroid", "Algebroid.d"),
    "algebroid.d_graded_calls": ("algebroid", "Algebroid.d_graded"),
    "algebroid.lie_calls": ("algebroid", "Algebroid.lie"),
    "algebroid.bracket_calls": ("algebroid", "Algebroid.bracket"),
    "algebroid.anchor_vector_calls": ("algebroid", "Algebroid.anchor_vector"),
    "algebroid.validate_calls": ("algebroid", "Algebroid.validate"),
    "courant.bracket_calls": ("courant", "CourantPresentation.bracket"),
    "courant.jacobiator_calls": ("courant", "CourantPresentation.jacobiator"),
    "schouten.schouten_calls": ("schouten", "schouten"),
    "linalg.rref_calls": ("linalg", "rref"),
}
# Self time per verdict of every function defined in the module's file.
SELF_TIMED = ("ring", "io", "exterior", "algebroid", "courant", "schouten", "linalg", "dirac", "gcr")


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import courantkit
    except ImportError as ex:
        sys.stderr.write(f"error: cannot import courantkit from {SRC}: {ex}\n")
        sys.exit(2)
    pkg = os.path.dirname(os.path.abspath(courantkit.__file__))
    if os.path.dirname(pkg) != SRC:
        sys.stderr.write(f"error: courantkit was imported from {pkg}, not from {SRC}\n")
        sys.exit(2)
    from courantkit import cli, io  # noqa: F401  (the commands the verdicts call)

    return pkg


PKG_DIR = _import_program()
IMPORT_S = time.perf_counter() - _T0

import oracle  # noqa: E402
import workloads  # noqa: E402


# -- the yardstick ----------------------------------------------------------------


class Yardstick:
    """A fixed piece of stdlib polynomial arithmetic that runs between verdicts.

    On a shared host the same work can take 1.7 times as long from one second
    to the next, and CPU time tracks wall time, so neither shows the program's
    own cost.  The yardstick calls nothing of the program and does the same
    work on every run, so its time tracks the machine alone.  A verdict's time
    is scaled by YARD_MS over the median of the two yardsticks before it and
    the two after it: reported times are those of a machine on which one
    yardstick takes YARD_MS.  The window is short because the host's speed
    moves within a second.
    """

    YARD_MS = 2.5

    def __init__(self):
        ring = oracle.Ring(("x", "y", "z"))
        rng = random.Random("yardstick")
        self.poly = oracle.Poly(ring, {
            (a, b, 0): oracle.GQ(fractions.Fraction(rng.choice((-7, -3, 2, 5, 9)), rng.randint(1, 5)))
            for a in range(3) for b in range(3)
        })

    def measure(self) -> float:
        """Seconds taken by one yardstick."""
        p = self.poly
        t = time.perf_counter()
        (p * p).partial(0) + p
        return time.perf_counter() - t

    def scale(self, yards: list) -> list:
        """Factors from raw to reported time for the verdicts run between the yardsticks.

        Verdict i ran between yards[i] and yards[i + 1].
        """
        return [
            self.YARD_MS / 1e3 / statistics.median(yards[max(0, i - 1):i + 3])
            for i in range(len(yards) - 1)
        ]


YARD = Yardstick()


# -- one run --------------------------------------------------------------------


def _setup(name: str, seed: int, workdir: str):
    """Generate and write the inputs SETUP_REPEATS times or more; the last set is used.

    Returns the cases and the set-up time in seconds at the yardstick's speed:
    import time plus the median generation time, each generation scaled by the
    median of the yardsticks run before and after it.
    """
    yards = [YARD.measure() for _ in range(3)]
    times = []
    cases = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t = time.perf_counter()
        cases = workloads.BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
        times.append(time.perf_counter() - t)
        yards.extend(YARD.measure() for _ in range(3))
    scaled = [
        t * YARD.YARD_MS / 1e3 / statistics.median(yards[3 * i:3 * i + 6]) for i, t in enumerate(times)
    ]
    import_s = IMPORT_S * YARD.YARD_MS / 1e3 / statistics.median(yards[:3])
    return cases, import_s + statistics.median(scaled), IMPORT_S + statistics.median(times)


def _round(cases, probe=None):
    """Run every case once between yardsticks; returns (outputs, spans, wall seconds).

    Each span is (name, kind, start, raw duration, scaled duration), in seconds.
    """
    outputs = []
    spans = []
    yards = []
    start = time.perf_counter()
    for case in cases:
        if probe is not None:
            probe.pause()
        yards.append(YARD.measure())
        if probe is not None:
            probe.next_verdict()
        t = time.perf_counter()
        try:
            out = workloads.run_case(case)
        except (Exception, SystemExit) as ex:  # a raising verdict is a failed verdict
            out = ex
            sys.stderr.write(f"{case.name}: raised\n{traceback.format_exc()}")
        spans.append((case.name, case.kind, t - start, time.perf_counter() - t))
        outputs.append(out)
    if probe is not None:
        probe.pause()
    yards.append(YARD.measure())
    spans = [s + (s[3] * f,) for s, f in zip(spans, YARD.scale(yards))]
    return outputs, spans, time.perf_counter() - start


def _check(name, cases, outputs, rng, failures):
    for case, out in zip(cases, outputs):
        if isinstance(out, BaseException):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = workloads.check_case(name, case, out, rng)
            except Exception as ex:  # unreadable output is a failed verdict
                reason = f"output could not be checked: {type(ex).__name__}: {ex}"
        if reason:
            failures.append({"case": case.name, "reason": reason})
            sys.stderr.write(f"FAILED {case.name}: {reason}\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    try:
        cases, setup_s, setup_raw_s = _setup(name, seed, workdir)
        check_rng = random.Random(f"check:{name}:{seed}")
        failures = []
        durations = []
        raw = []
        round_walls = []
        while not round_walls or sum(round_walls) < seconds:
            outputs, spans, wall = _round(cases)
            round_walls.append(wall)
            durations.extend(s[4] for s in spans)
            raw.extend(s[3] for s in spans)
            _check(name, cases, outputs, check_rng, failures)
        attempted = len(cases) * len(round_walls)
        traced = None
        if trace:
            # every third case of the shuffled list: the same mix at a third of the profiling cost
            subset = cases[::TRACE_STRIDE]
            traced = _traced_round(name, subset, check_rng, failures)
            attempted += len(subset)
            untraced = sum(durations[:len(cases)][::TRACE_STRIDE])
            traced["metrics"]["trace.overhead_ratio"] = (traced["scaled_s"] / untraced, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdicts_per_s": (len(durations) / sum(durations), "1/s"),
            "verdict_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "verdict_p90_ms": (_p90(durations) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = traced["metrics"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # the same figures in plain wall time, unscaled, for reading the host's drift
    wall_time = {
        "setup_s": setup_raw_s,
        "verdicts_per_s": len(raw) / sum(raw),
        "verdict_p50_ms": statistics.median(raw) * 1e3,
        "verdict_p90_ms": _p90(raw) * 1e3,
    }
    detail = dict(result, workload=name, seed=seed, round_walls_s=round_walls, wall_time=wall_time,
                  verdicts_per_round=len(cases), failures=failures[:20])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if traced is not None:
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json"), "w") as fh:
            json.dump({"spans": traced["spans"], "modules": traced["modules"]}, fh, indent=1)
    return result


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- the traced round ----------------------------------------------------------------


class RrefProbe:
    """Wraps linalg.rref to count distinct input matrices per verdict and entry sizes.

    It reads only slot attributes, so it calls no function of the program and
    leaves the profiled counts unchanged.
    """

    def __init__(self, linalg):
        self.linalg = linalg
        self.orig = linalg.rref
        self.calls = 0
        self.distinct = 0
        self.max_terms = 0
        self.seen = set()

    def next_verdict(self):
        self.seen = set()

    @staticmethod
    def _entry(e):
        terms = getattr(e, "terms", None)
        if terms is None:
            return repr(e)
        return tuple(sorted(
            (k, c.re._numerator, c.re._denominator, c.im._numerator, c.im._denominator)
            for k, c in terms.items()
        ))

    def __call__(self, sig, M):
        key = tuple(tuple(self._entry(e) for e in row) for row in M)
        self.calls += 1
        if key not in self.seen:
            self.seen.add(key)
            self.distinct += 1
        ech = self.orig(sig, M)
        for row in list(M) + list(ech.rows):
            for e in row:
                n = len(getattr(e, "terms", ()))
                if n > self.max_terms:
                    self.max_terms = n
        return ech

    def __enter__(self):
        self.linalg.rref = self
        return self

    def __exit__(self, *exc):
        self.linalg.rref = self.orig


class TraceHooks:
    """Profiles the verdicts of a round and leaves its yardsticks out."""

    def __init__(self, profiler, probe):
        self.profiler = profiler
        self.probe = probe

    def pause(self):
        self.profiler.disable()

    def next_verdict(self):
        self.probe.next_verdict()
        self.profiler.enable()


def _code_key(module: str, path: str):
    obj = __import__(f"courantkit.{module}", fromlist=["_"])
    for part in path.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    if code is None:
        sys.stderr.write(f"warning: courantkit.{module}.{path} not found; its count reads 0\n")
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _module_of(filename: str):
    if os.path.dirname(os.path.abspath(filename)) == PKG_DIR:
        return os.path.splitext(os.path.basename(filename))[0]
    if filename == fractions.__file__:
        return "fractions"
    return None


def _traced_round(name, cases, check_rng, failures) -> dict:
    from courantkit import linalg

    profiler = cProfile.Profile()
    with RrefProbe(linalg) as probe:
        try:
            outputs, spans, _ = _round(cases, TraceHooks(profiler, probe))
        finally:
            profiler.disable()
    _check(name, cases, outputs, check_rng, failures)
    stats = pstats.Stats(profiler).stats
    n = len(cases)

    modules = {}
    for (filename, _, _), (_, nc, tt, _, _) in stats.items():
        mod = _module_of(filename)
        if mod is not None:
            agg = modules.setdefault(mod, {"self_ms": 0.0, "calls": 0})
            agg["self_ms"] += tt * 1e3
            agg["calls"] += nc

    def entry_ms(module, wanted, caller_ok):
        """Cumulative ms of calls into the module's functions named by `wanted`."""
        total = 0.0
        for (filename, _, func), (_, _, _, _, callers) in stats.items():
            if _module_of(filename) != module or not wanted(func):
                continue
            for (cfile, _, _), edge in callers.items():
                if caller_ok(_module_of(cfile)):
                    total += edge[3]
        return total * 1e3

    metrics = {}
    for metric, (module, path) in COUNTED.items():
        key = _code_key(module, path)
        calls = stats[key][1] if key in stats else 0
        metrics[metric] = (calls / n, "count")
    metrics["linalg.rref_distinct_ratio"] = (probe.distinct / probe.calls if probe.calls else 0.0, "ratio")
    metrics["linalg.max_entry_terms"] = (probe.max_terms, "count")
    for mod in SELF_TIMED:
        metrics[f"{mod}.self_ms"] = (modules.get(mod, {}).get("self_ms", 0.0) / n, "ms")
    metrics["ring.fractions_self_ms"] = (modules.get("fractions", {}).get("self_ms", 0.0) / n, "ms")
    parses = entry_ms("io", lambda f: f.endswith("_from_json") or f == "loads_definition",
                      lambda caller: caller != "io")
    metrics["io.parse_ms"] = (parses / n, "ms")
    emit = entry_ms("cli", lambda f: f == "_emit", lambda caller: True)
    dumps = entry_ms("io", lambda f: f.endswith("_to_json") or f == "digest", lambda caller: caller == "cli")
    metrics["cli.report_ms"] = ((emit + dumps) / n, "ms")
    return {
        "metrics": metrics,
        "scaled_s": sum(s[4] for s in spans),
        "spans": [
            {"verdict": s[0], "kind": s[1], "start_ms": s[2] * 1e3, "dur_ms": s[3] * 1e3, "scaled_ms": s[4] * 1e3}
            for s in spans
        ],
        "modules": modules,
    }


# -- command line --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="verdict time to fill with whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    failed = False
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except workloads.oracle.OracleError as ex:
            sys.stderr.write(f"error: {name}: input generation failed: {ex}\n")
            return 2
        failed = failed or result["failed"] > 0
        if not args.workload:
            print(f"# {name}")
        print(json.dumps(result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
