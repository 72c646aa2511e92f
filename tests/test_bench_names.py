"""The names that the ``scripts/bench_*.py`` timers wrap resolve in the
library.

``bench_duality.py`` times a layer at the first name of its ``LAYERS`` entry
that a tree defines and at the names of its ``ALSO`` entry, and counts
through ``COUNTED`` and ``FAMILY``.
``bench_rooted_oracle.py`` wraps the names in its ``WRAPPED`` and counts the
oracle's nested ``SEARCHES`` and its ``MEMO`` local.  ``bench_rooted_grid.py``
counts the boundary DP's states through the names in its ``WRAPPED``.  A
renamed function would silently move a layer to its fallback, or make a
count read 0, so the innermost names must exist in ``src``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load("bench_duality")
NAMES = sorted(
    {names[0] for names in BENCH.LAYERS.values()}
    | {name for names in BENCH.ALSO.values() for name in names}
    | {name for name, _ in BENCH.COUNTED.values()}
    | {BENCH.FAMILY}
)
ORACLE_BENCH = _load("bench_rooted_oracle")
GRID_BENCH = _load("bench_rooted_grid")


def _resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"coarse_menger.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


@pytest.mark.parametrize("name", NAMES)
def test_bench_duality_names_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", ORACLE_BENCH.WRAPPED)
def test_bench_rooted_oracle_names_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", GRID_BENCH.WRAPPED)
def test_bench_rooted_grid_names_resolve(name):
    assert callable(_resolve(name))


def test_bench_rooted_oracle_counts_the_oracle_own_searches_and_memo():
    code = _resolve(ORACLE_BENCH.WRAPPED[0]).__code__
    nested = set()
    stack = [code]
    while stack:
        for const in stack.pop().co_consts:
            if hasattr(const, "co_name"):
                nested.add(const.co_name)
                stack.append(const)
    assert set(ORACLE_BENCH.SEARCHES) <= nested
    assert ORACLE_BENCH.MEMO in code.co_varnames + code.co_cellvars
