"""Fast tests of the benchmark's oracle and of its failure accounting.

    python3 -m pytest -q perfbench
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import GQ, Ring  # noqa: E402

R3E = Ring(("x", "y", "z"), [("E", [2, 0, Fraction(-1, 3)])])


def test_gaussian_rationals():
    a = GQ(Fraction(1, 2), 3)
    assert a * a.inverse() == GQ(1)
    assert a + a.conj() == GQ(1)
    assert not (a - a)


def test_partials_follow_the_exponential_rule():
    x, E = R3E.var("x"), R3E.var("E")
    p = x * x * R3E.var("E", -1)
    assert p.partial(0) == 2 * x * R3E.var("E", -1) - 2 * x * x * R3E.var("E", -1)
    assert E.partial(2) == E * Fraction(-1, 3)
    assert E.partial(1).is_zero()


def test_printing_and_reading_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = workloads.rand_poly(workloads.Draw(rng, rng), R3E, range(3), (3, 2, 1, 0)) * R3E.var("E", rng.choice((-2, 1)))
        p = p + workloads.rand_poly(workloads.Draw(rng, rng), R3E, range(3), (2, 1)) * GQ(Fraction(1, 2), -3)
        assert R3E.parse(p.to_str()) == p


def test_reads_what_the_program_prints():
    from courantkit.ring import ExpGen, RingSignature

    sig = RingSignature(("x", "y", "z"), (ExpGen("E", (Fraction(2), Fraction(0), Fraction(-1, 3))),))
    rng = random.Random(5)
    for _ in range(30):
        p = workloads.rand_poly(workloads.Draw(rng, rng), R3E, range(3), (3, 1, 0)) * GQ(1, rng.choice((0, 2)))
        q = p * R3E.var("E", -1)
        elem = sig.parse(q.to_str())
        assert R3E.parse(elem.to_str()) == q


def test_closedness_and_exactness():
    r3 = Ring(("x", "y", "z"))
    rng = random.Random(7)
    alpha = {(k,): workloads.rand_poly(workloads.Draw(rng, rng), r3, range(3), (3, 2, 1)) for k in range(3)}
    omega = oracle.d_form(r3, alpha, 1)
    assert omega and oracle.is_closed(r3, omega, 2)
    omega[(0, 1)] = omega.get((0, 1), r3.zero()) + r3.var("z")
    assert not oracle.is_closed(r3, omega, 2)
    r4 = Ring(("x", "y", "z", "w"))
    free = {(0, 1, 2): r4.var("x") * r4.var("y"), (1, 2, 3): r4.var("w") ** 2}
    assert oracle.is_closed(r4, free, 3)
    assert not oracle.is_closed(r4, {(0, 1, 2): r4.var("w")}, 3)
    assert oracle.is_closed(r3, {(0, 1, 2): r3.var("x")}, 3, rank=3)


def test_helicity_separates_poisson_from_controls():
    h = R3E.var("E") * (R3E.var("x") + 2)
    C = R3E.var("x") * R3E.var("y") + R3E.var("z") ** 2
    assert oracle.helicity(R3E, [h * C.partial(k) for k in range(3)]).is_zero()
    g2 = h * h
    control = [-g2 * R3E.var("y"), g2 * R3E.var("x"), g2]
    assert oracle.helicity(R3E, control) == 2 * g2 * g2


def test_rank_and_triangular_inverse():
    assert oracle.rank([[1, 2, 3], [2, 4, 6], [0, 1, GQ(0, 1)]]) == 2
    assert oracle.rank([[GQ(0, 1), 1], [1, GQ(0, -1)]]) == 1
    r2 = Ring(("x", "y"))
    L = [[r2.const(1), r2.zero()], [r2.var("x") ** 2 + 3, r2.const(1)]]
    inv = oracle.unipotent_lower_inverse(r2, L)
    prod = oracle.mat_mul(r2, L, inv)
    assert all(prod[i][j] == r2.const(int(i == j)) for i in range(2) for j in range(2))


def test_a_mislabelled_input_is_a_failed_verdict(tmp_path, monkeypatch):
    import run

    def mislabelled(rng, workdir):
        cases = workloads.build_graded_brackets(rng, workdir)
        poisson = next(c for c in cases if c.kind == "poisson")
        poisson.expect = {"code": 1, "verdicts": {"square": False, "e_compat": True}}
        return cases

    monkeypatch.setattr(workloads, "GRADED_MIX", {"poisson": 1, "control": 1, "contact-gauge": 1})
    monkeypatch.setitem(workloads.BUILDERS, "graded-brackets", mislabelled)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    result = run.run_workload("graded-brackets", 0, 0.0, False)
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert result["correct"] is False


def test_yardstick_scales_by_the_local_median():
    import run

    y = run.Yardstick()
    assert y.measure() > 0
    unit = y.YARD_MS / 1e3
    # a machine twice as slow for the second half: each verdict is scaled by its own neighbourhood
    yards = [unit] * 20 + [2 * unit] * 20
    factors = y.scale(yards)
    assert len(factors) == 39
    assert factors[0] == 1.0 and factors[17] == 1.0 and factors[-1] == 0.5
    # one stray yardstick does not move the median of its window
    yards[5] = 10 * unit
    assert y.scale(yards)[4] == y.scale(yards)[5] == 1.0


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    import json

    import run

    monkeypatch.setattr(workloads, "GRADED_MIX", {"poisson": 1, "control": 1, "contact-gauge": 1})
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    result = run.run_workload("graded-brackets", 0, 0.0, True)
    assert result["correct"] and result["attempted"] == 4
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["schouten.schouten_calls"]["value"] == 2
    assert result["metrics"]["linalg.rref_calls"]["value"] == 0
