"""`verify`'s anchor, symmetric-part and invariance entries against a full sweep.

`CourantPresentation.verify` reports the symmetric-part and invariance sweeps,
and every anchor pair of a section with itself, as holding without computing
them; the `courant` module docstring proves that these defects vanish in every
presentation.  The oracle here computes every one of them with
`anchor_defect`, `symmetric_defect` and `invariance_defect`, diagonal anchor
pairs included, over the same frame and the sections the report lists, and
builds the three report entries from the results.
"""

import pytest

from cartan_oracle import random_presentation
from courantkit import catalog
from courantkit.algebroid import Algebroid
from courantkit.courant import MAX_FRAME, CourantError, CourantPresentation, CSection, _shown
from courantkit.exterior import AForm

# (frame_sweep, samples, seed): every setting at seeds 0-2; with no samples the seed is unused
SETTINGS = [(fs, 0, 0) for fs in (True, False)] + [
    (fs, samples, seed) for fs in (True, False) for samples in (1, 3) for seed in (0, 1, 2)
]

PERTURBATIONS = (
    "anchor entry", "structure function", "theta entry", "twist",
    "scaled anchor row", "scaled structure pair",
)


def _presentation(name):
    entry = catalog.load(name)
    return entry.get("courant") or CourantPresentation(entry["algebroid"])


def _sample(alg, shown):
    """The section a report's `samples` entry describes."""
    coords = [alg.sig.parse(c) for c in shown["x"]]
    legs = [[alg.sig.zero()] * alg.rank_v for _ in range(alg.rank)]
    for i, vec in shown["xi"].items():
        legs[int(i) - 1] = [alg.sig.parse(c) for c in vec]
    e = CSection.from_coordinates(alg, coords + [c for vec in legs for c in vec])
    assert e.describe() == shown
    return e


def _entry(cases, defect):
    bad = [shown for shown in (_shown(defect(*case)) for case in cases) if shown is not None]
    return {"checked": len(cases), "holds": not bad, "violations": bad[:4]}


def full_sweep(C, report, frame_sweep):
    """The anchor, symmetric_part and invariance entries with every defect computed."""
    frame = C.full_frame() if frame_sweep else []
    pool = frame + [_sample(C.alg, s) for s in report["samples"]]
    n = len(frame)
    short = pool[: max(6, n)]
    brackets = {}

    def br(a, b):
        # each defect reads its brackets from here; pool sections live as long as this table
        key = (id(a), id(b))
        if key not in brackets:
            brackets[key] = C.bracket(a, b)
        return brackets[key]

    return {
        "anchor": _entry(
            [(a, b) for a in pool for b in pool[: max(4, n)]],
            lambda a, b: C.anchor_defect(a, b, br),
        ),
        "symmetric_part": _entry([(e,) for e in pool], lambda e: C.symmetric_defect(e, br)),
        "invariance": _entry(
            [(a, b, c) for a in short for b in short[:4] for c in short[:4]],
            lambda a, b, c: C.invariance_defect(a, b, c, br),
        ),
    }


def perturbed(C, kind):
    """C with one kind of change that may break its axioms, or None where the kind cannot apply."""
    alg, sig = C.alg, C.alg.sig
    r, s = alg.rank, alg.rank_v
    if not sig.coords and kind in ("anchor entry", "scaled anchor row"):
        return None
    # a function of every coordinate, so a changed anchor row fails to commute
    f = sum((sig.coord(x) for x in sig.coords), sig.one())
    anchor = [list(row) for row in alg.anchor]
    structure = {key: list(vec) for key, vec in alg.structure.items()}
    theta = [[list(row) for row in mat] for mat in alg.theta]
    twist = C.twist
    if kind == "anchor entry":
        anchor[0][-1] = anchor[0][-1] + f
    elif kind == "structure function":
        vec = structure.setdefault((0, r - 1), [sig.zero()] * r)
        vec[0] = vec[0] + f
    elif kind == "theta entry":
        theta[-1][0][s - 1] = theta[-1][0][s - 1] + f
    elif kind == "twist":
        if r < 3:
            return None
        twist = twist + AForm(sig, r, s, 3, {(0, 1, r - 1): (f,) * s})
    elif kind == "scaled anchor row":
        anchor[-1] = [a * f for a in anchor[-1]]
    elif not structure:
        return None
    else:
        key = min(structure)
        structure[key] = [c * f for c in structure[key]]
    alg = Algebroid(sig, r, s, anchor, structure, theta)
    return CourantPresentation(alg, twist, allow_nonclosed=True)


def catalog_inputs():
    return [(name, _presentation(name)) for name in catalog.names()]


def perturbed_inputs():
    return [
        (f"{name} / {kind}", P)
        for name, C in catalog_inputs()
        for kind in PERTURBATIONS
        if (P := perturbed(C, kind)) is not None
    ]


def random_inputs():
    """Seeds 1-8 at rank 2-3 and module rank 1-2; every draw breaks the anchor axiom."""
    return [
        (f"random {seed}", random_presentation(seed, 2 + seed % 2, 1 + seed // 2 % 2))
        for seed in range(1, 9)
    ]


def _rotated(k):
    """Input k's settings: one frame sweep and samples 0, 1 and 3 without, at one seed.

    Over inputs k, k+1 and k+2 the frame sweep runs with 3, 1 and 0 samples.
    """
    seed = k // 3 % 3
    return [(True, (3, 1, 0)[k % 3], seed)] + [(False, samples, seed) for samples in (0, 1, 3)]


def _agree(inputs, settings):
    """Assert verify agrees with the full sweep on every input; count the anchor failures."""
    anchor_fails = 0
    for k, (name, C) in enumerate(inputs):
        n = C.alg.rank * (1 + C.alg.rank_v)
        for frame_sweep, samples, seed in settings(k):
            if frame_sweep and n > MAX_FRAME:
                continue
            rep = C.verify(seed=seed, samples=samples, frame_sweep=frame_sweep)
            want = full_sweep(C, rep, frame_sweep)
            got = {key: rep["axioms"][key] for key in want}
            assert got == want, (name, frame_sweep, samples, seed)
            anchor_fails += not got["anchor"]["holds"]
    return anchor_fails


def test_counted_sweeps_equal_the_full_sweep_on_the_catalog():
    _agree(catalog_inputs(), lambda k: SETTINGS)


def test_counted_sweeps_equal_the_full_sweep_on_perturbed_presentations():
    inputs = perturbed_inputs()
    assert len(inputs) >= 80
    # off-diagonal anchor pairs fail, and still agree with the oracle
    assert _agree(inputs, _rotated) >= 60


def test_counted_sweeps_equal_the_full_sweep_on_random_presentations():
    assert _agree(random_inputs(), _rotated) >= 16


def test_verify_refuses_a_negative_sample_count_before_any_work(monkeypatch):
    C = catalog.load("standard-r3-twisted")["courant"]
    for owner, name in ((CourantPresentation, "full_frame"), (Algebroid, "validate")):
        monkeypatch.setattr(owner, name, lambda self: pytest.fail("did work"))
    for frame_sweep in (True, False):
        with pytest.raises(CourantError, match="must not be negative"):
            C.verify(samples=-3, frame_sweep=frame_sweep)
