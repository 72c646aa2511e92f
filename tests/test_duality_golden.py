"""The duality sweep, its packing paths and its cover centers on a fixed host
family are exactly those recorded in ``tests/data/duality_golden.json``
(see ``tests/duality_golden.py``): a speed-up must not change an answer or
a tie-break."""

import json

from duality_golden import GOLDEN_PATH, golden_reports


def test_duality_golden():
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh)
    got = golden_reports()
    assert sorted(got) == sorted(expected)
    for host_id in expected:
        assert got[host_id] == expected[host_id], host_id
