"""The standing byte-identity gate: outputs against tests/golden/identity.json.

The golden file maps each output that tools/identity.py records (every
command on every catalog entry, and every benchmark verdict at seeds 0, 3 and
7) to its exit code and the sha256 of its exit code, stdout and stderr.  Here
the catalog outputs and the seed-0 benchmark verdicts are run again and
compared with it; CI compares all of them with `tools/identity.py --check`.
A change that alters reports on purpose rewrites the file with
`tools/identity.py --golden`, so the file's diff names every changed key.
"""

import json

from identity_outputs import GOLDEN, SEEDS, outputs, tool


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_catalog_and_seed_zero_outputs_match_the_golden_file():
    got = outputs()
    assert tool().compare(_golden(), got, SEEDS) == []
    # every workload and the catalog were run
    assert {key.split("/")[1] for key in got if key.startswith("bench/")} == {
        "axiom-sweep", "graded-brackets", "subbundle-elimination"
    }
    assert sum(key.startswith("catalog/") for key in got) >= 190


def test_the_golden_file_covers_every_seed_alike():
    # each benchmark key is present at each of the harness's seeds
    golden = _golden()
    per_seed = {}
    for key in golden:
        if key.startswith("bench/"):
            _, workload, seed, name = key.split("/")
            per_seed.setdefault(int(seed), set()).add((workload, name))
    assert sorted(per_seed) == list(tool().SEEDS)
    assert len({frozenset(v) for v in per_seed.values()}) == 1
    assert all(len(v) == 2 and isinstance(v[0], (int, str)) for v in golden.values())
