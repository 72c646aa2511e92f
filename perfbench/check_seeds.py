#!/usr/bin/env python3
"""Seed check: every workload verifies on two seeds, not only the one it
was tuned on.

Run from the root of a checkout:

    python3 perfbench/check_seeds.py [SEED_A SEED_B]

Each workload runs one short pass per seed through ``run.py``.  The check
fails unless every op verifies, except refusals of the known above-cap
duality grids (ROADMAP item 5); once those are fixed they must verify too.
It also checks the output digest: the same seed gives the same digest in a
second process, a seed-independent workload gives the same digest on both
seeds, and a relabelled one gives different digests.  Takes about two
minutes, most of it the acceptance run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

KNOWN_REFUSALS = {"duality": {"grid-3x6", "grid-4x5"}}
#: whether the workload's inputs depend on the seed
SEEDED = {"duality": True, "rooted-grid": False, "acceptance": True}
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace0.json")) as fh:
        return json.load(fh)


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 2]
    if len(seeds) != 2 or seeds[0] == seeds[1]:
        raise SystemExit("give two different seeds")
    problems = []
    for workload in SEEDED:
        results = [run_once(workload, s) for s in seeds]
        repeat = run_once(workload, seeds[0])
        for seed, res in zip(seeds, results):
            refused = {c["op"] for c in res["causes"] if c["outcome"] == "refused"}
            unexpected = refused - KNOWN_REFUSALS.get(workload, set())
            if not res["correct"] or res["failed"] or unexpected:
                problems.append(f"{workload} seed {seed}: correct={res['correct']} "
                                f"failed={res['failed']} unexpected refusals={sorted(unexpected)}")
            print(f"{workload} seed {seed}: {res['attempted']} ops, "
                  f"{res['failed']} failed, refused {sorted(refused)}, "
                  f"digest {res['digests'][0][:16]}")
        digests = [r["digests"][0] for r in results]
        if repeat["digests"][0] != digests[0]:
            problems.append(f"{workload}: seed {seeds[0]} gave two digests")
        if (digests[0] != digests[1]) != SEEDED[workload]:
            problems.append(f"{workload}: digests across seeds "
                            f"{'differ' if digests[0] != digests[1] else 'agree'}")
    for p in problems:
        print(f"FAIL {p}")
    print("seed check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
