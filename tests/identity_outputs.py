"""tools/identity.py's outputs of the catalog and of the seed-0 benchmark,
computed once per test session.

The script imports the program from src/ and the benchmark's inputs from
perfbench/workloads.py.  Each output is keyed as in
tests/golden/identity.json and maps to its exit code, sha256, stdout and
stderr.
"""

import functools
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "identity.json")
SEEDS = (0,)


@functools.lru_cache(maxsize=None)
def tool():
    spec = importlib.util.spec_from_file_location("identity", os.path.join(ROOT, "tools", "identity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def outputs() -> dict:
    return tool().outputs(SEEDS)
