"""Every pivot of an echelon is nonzero off that echelon's own excluded locus.

Echelon.reduce scales by the final pivots and records none of their factors:
the linalg module docstring shows that a final pivot times the constants and
monomials the steps stripped from its row equals its chosen pivot times the
pivots chosen after it, and rref records every chosen pivot.  Here the claim
is checked at points, with no elimination: each final pivot must be nonzero
at two seeded points off ech.excluded (point_oracle), and at points where a
factor of a final pivot vanishes some listed factor must vanish too.

The echelons are those of the seeded matrices of
tests/test_linalg.py::test_rref_and_reduce_match_the_ringelem_reference, and
every echelon that check-dirac and check-gcr build on the catalog and on the
seed-0 subbundle-elimination verdicts (G's echelon, its tangent view and the
echelons of E_xi and R among them), captured as they are made.  The
benchmark's inputs are generated through tools/identity.py, as for the golden
identity test; nothing from perfbench/ is imported here.
"""

import random
from fractions import Fraction

import pytest

from courantkit import catalog, cli, io, linalg
from courantkit.ring import canonical_factors
from courantkit.sampling import SplitMix
from identity_outputs import tool
from point_oracle import points, value
from test_linalg import GSIG, reference_cases


def _gaussian_value(elem, point) -> tuple:
    """(re, im) of a ring element at a point of Gaussian rationals, each
    given as (re, im), summed term by term."""
    re = im = Fraction(0)
    for key, c in elem.terms.items():
        mr, mi = Fraction(1), Fraction(0)
        for (pr, pi), k in zip(point, key):
            if k < 0:
                n = pr * pr + pi * pi
                pr, pi, k = pr / n, -pi / n, -k
            for _ in range(k):
                mr, mi = mr * pr - mi * pi, mr * pi + mi * pr
        re += c.re * mr - c.im * mi
        im += c.re * mi + c.im * mr
    return re, im


def _zeros(f, rng, count: int = 2) -> list:
    """Points of Gaussian rationals at which f vanishes, found by drawing
    every other generator and solving for a coordinate of degree one in f;
    none when no coordinate has degree one."""
    sig = f.sig
    linear = [j for j in range(sig.ncoords) if max(k[j] for k in f.terms) == 1]
    out = []
    while linear and len(out) < count:
        j = rng.choice(linear)
        pt = [(Fraction(rng.randint(-40, 40), rng.randint(1, 7)), Fraction(0)) for _ in range(sig.ncoords)]
        pt += [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 7)), Fraction(0)) for _ in sig.exps]
        # f = a x_j + b with a and b free of x_j, so x_j = -b / a where a != 0
        pt[j] = (Fraction(0), Fraction(0))
        br, bi = _gaussian_value(f, pt)
        pt[j] = (Fraction(1), Fraction(0))
        ar, ai = _gaussian_value(f, pt)
        ar, ai = ar - br, ai - bi
        n = ar * ar + ai * ai
        if n:
            pt[j] = (-(br * ar + bi * ai) / n, -(bi * ar - br * ai) / n)
            out.append(pt)
    return out


def _check(ech, seed: int) -> tuple:
    """(pivots checked at points off the locus, zeros of pivot factors
    found on the locus) for one echelon."""
    sig = ech.sig
    pivots = [p for p in (row[c] for row, c in zip(ech.rows, ech.pivots)) if not p.is_constant()]
    for pt in points(sig, ech.excluded, seed):
        for p in pivots:
            assert value(p, pt) != (0, 0), (ech.excluded, p.to_str(), pt)
    listed = [sig.parse(t) for t in ech.excluded]
    rng = SplitMix(seed)
    zeros = 0
    for p in pivots:
        for f in canonical_factors(p):
            for pt in _zeros(f, rng):
                assert _gaussian_value(f, pt) == (0, 0)
                assert any(_gaussian_value(g, pt) == (0, 0) for g in listed), (ech.excluded, f.to_str(), pt)
                zeros += 1
    return len(pivots), zeros


def test_pivots_of_the_seeded_matrices_vanish_only_on_the_locus():
    checked = zeros = 0
    for seed, (M, _) in enumerate(reference_cases()):
        c, z = _check(linalg.rref(GSIG, M), seed)
        checked, zeros = checked + c, zeros + z
    assert checked >= 50 and zeros >= 60, (checked, zeros)


def _catalog_runs(tmp_path) -> None:
    for name in catalog.names():
        path = tmp_path / f"{name}.json"
        path.write_text(io.canonical_dumps(io.definition_to_json(catalog.load(name))))
        for command in ("check-dirac", "check-gcr"):
            cli.main([command, "--defs", str(path)])


def _benchmark_runs(tmp_path) -> None:
    workloads = tool().workloads
    build = workloads.BUILDERS["subbundle-elimination"]
    for case in build(random.Random("subbundle-elimination:0"), str(tmp_path)):
        workloads.run_case(case)


# per input set, at least this many echelons, nonconstant final pivots and
# zeros of their factors: the catalog's eliminations pivot on constants nearly
# everywhere, the benchmark's graphs and symplectic structures do not
FLOORS = {"catalog": (30, 2, 2), "benchmark": (600, 250, 500)}


@pytest.mark.parametrize("inputs", sorted(FLOORS))
def test_pivots_of_every_dirac_and_gcr_echelon_vanish_only_on_the_locus(tmp_path, monkeypatch, inputs):
    made = []
    real = linalg.Echelon.__init__

    def capture(self, *args):
        real(self, *args)
        made.append(self)

    monkeypatch.setattr(linalg.Echelon, "__init__", capture)
    (_catalog_runs if inputs == "catalog" else _benchmark_runs)(tmp_path)
    monkeypatch.undo()
    checked = zeros = 0
    for seed, ech in enumerate(made):
        c, z = _check(ech, seed)
        checked, zeros = checked + c, zeros + z
    got = (len(made), checked, zeros)
    assert all(n >= floor for n, floor in zip(got, FLOORS[inputs])), got
