"""The names that ``scripts/bench_duality.py`` wraps resolve in the library.

The script times a layer at the first name of its ``LAYERS`` entry that a
tree defines, and counts through ``COUNTED`` and ``FAMILY``.  A renamed
function would silently move a layer to its fallback, or make a count read 0,
so the innermost names must exist in ``src``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_duality.py"


_SPEC = importlib.util.spec_from_file_location("bench_duality", SCRIPT)
BENCH = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(BENCH)
NAMES = sorted(
    {names[0] for names in BENCH.LAYERS.values()}
    | {name for name, _ in BENCH.COUNTED.values()}
    | {BENCH.FAMILY}
)


@pytest.mark.parametrize("name", NAMES)
def test_bench_duality_names_resolve(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"coarse_menger.{module}"), attr, None))
