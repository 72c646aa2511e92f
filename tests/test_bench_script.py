"""``scripts/bench.py`` measures each topic on ``src``: its document has the
keys of the committed BENCH file, its time-free values equal that file's
``change`` tree, and every measured quantity has its line on stderr."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"
SPEC = importlib.util.spec_from_file_location("bench", SCRIPT)
BENCH = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(BENCH)
#: topic -> (committed BENCH file, extra options, the keys that hold times)
TOPICS = {
    "duality": ("BENCH_duality.json", [], {"seconds"}),
    "rooted-grid": ("BENCH_rooted_grid.json", ["--widths", "3"],
                    {"dp_s", "blocker_s", "dp_peak_mb"}),
    "rooted-oracle": ("BENCH_rooted_oracle.json", ["--widths", "3"],
                      {"oracle_s", "peak_rss_mb"}),
}


@pytest.mark.parametrize("topic", TOPICS)
def test_bench_topic_matches_the_committed_change_tree(topic):
    name, options, timed = TOPICS[topic]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), topic, "change=src", "--runs", "1", *options],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    got = json.loads(done.stdout)
    want = json.loads((ROOT / name).read_text())
    assert list(got) == list(want)
    got, want = got["trees"]["change"], want["trees"]["change"]
    at = ""
    if topic != "duality":  # one row, w = 3, as the committed first row
        assert len(got) == 1
        got, want, at = got[0], want[0], " w=3"
    assert list(got) == list(want)
    assert {k: v for k, v in got.items() if k not in timed} \
        == {k: v for k, v in want.items() if k not in timed}
    assert done.stderr.splitlines() == [
        f"change {topic}{at} {key}: {value}" for key, value in BENCH._quantities(got)
    ]


def test_bench_duality_rejects_widths():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "duality", "change=src", "--widths", "3"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "--widths does not apply to duality" in done.stderr
