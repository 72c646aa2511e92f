"""End-to-end acceptance gate: every shipped guarantee, one line each."""

import json

import pytest

from coarse_menger.acceptance import CRITERIA, run_acceptance, run_criterion

CRITERION_KEYS = list(CRITERIA)


def test_every_criterion_is_covered():
    assert set(CRITERION_KEYS) == {
        "menger", "gallai", "grid", "weak-duality", "tree-helly",
        "easy-tree", "rooted-p3", "transfer-pinning", "pullback",
        "scaling", "tangle", "determinism",
    }


@pytest.mark.parametrize("key", CRITERION_KEYS)
def test_criterion(key, capsys):
    result = run_criterion(key)
    with capsys.disabled():
        print(f"{'PASS' if result.passed else 'FAIL'}: {key} "
              f"({result.seconds * 1000:.0f} ms)")
    assert result.passed, result.detail


def test_report_shape_and_json():
    report = run_acceptance(only=["transfer-pinning", "grid"])
    doc = report.to_json_dict()
    json.dumps(doc)
    assert doc["passed"] is True
    assert {c["key"] for c in doc["criteria"]} == {"transfer-pinning", "grid"}
