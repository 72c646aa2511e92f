"""The names that ``scripts/bench.py`` wraps or reads resolve in the library.

``WRAPPED`` lists them all; a tree that lacks one fails the script, so the
names must exist in ``src``.  The rooted-oracle topic also counts the
oracle's nested ``SEARCHES`` and reads its ``MEMO`` local.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
BENCH = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(BENCH)


#: the topic that wraps a module's names; the duality topic wraps the rest
TOPIC = {"trees": "rooted_grid", "acceptance": "rooted_oracle"}


def _topic(topic):
    """``topic``'s share of ``WRAPPED``; the shares split it."""
    return [name for name in BENCH.WRAPPED
            if TOPIC.get(name.split(".")[0], "duality") == topic]


def _resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"coarse_menger.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


@pytest.mark.parametrize("name", _topic("duality"))
def test_bench_duality_names_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", _topic("rooted_oracle"))
def test_bench_rooted_oracle_names_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", _topic("rooted_grid"))
def test_bench_rooted_grid_names_resolve(name):
    assert callable(_resolve(name))


def test_bench_rooted_oracle_counts_the_oracle_own_searches_and_memo():
    code = _resolve("acceptance.exhaustive_two_disjoint_supports").__code__
    nested = set()
    stack = [code]
    while stack:
        for const in stack.pop().co_consts:
            if hasattr(const, "co_name"):
                nested.add(const.co_name)
                stack.append(const)
    assert set(BENCH.SEARCHES) <= nested
    assert BENCH.MEMO in code.co_varnames + code.co_cellvars
