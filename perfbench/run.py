#!/usr/bin/env python3
"""coarse-menger benchmark: three verified workloads, end-to-end metrics and
an outside-in per-layer trace.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload duality --seed 1 --seconds 20 --trace 0

A pass runs the workload's fixed op list once, on inputs generated afresh
from the seed (so per-graph distance caches start cold, as in a user's run).
Only the calls into the program are timed; every op's output is then
checked by the benchmark's own code (``workloads.py``).

Times are reported in *ref* units as well as seconds.  On a shared host the
same pass takes up to twice as long at one moment as at the next, so the
timed passes run under ``speedprobe.SpeedProbe``, which samples a fixed
pure-Python kernel every few milliseconds.  An op's ref cost is its seconds
divided by the kernel's mean time over the same pass: the work it does,
measured against the core's speed while it did it.  The gated metrics are
ref costs; the seconds are printed beside them.

``--trace 0`` runs passes until ``--seconds`` of op time have been measured
and prints the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics; the
difference of their op times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Tables for humans go
above it.  Per-op causes, the output digest and the spans are written to
``.perfbench-out/`` in the checkout.

An op fails when it raises or its output fails a check.  A typed
``CapacityError`` from an op on a host above the library's documented exact
cap is a refusal: it is recorded by cause and lowers ``answered_ratio``, but
it is not a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import List

from speedprobe import SpeedProbe
from tracing import LAYERS, Tracer
from workloads import ACCEPTANCE_CRITERIA, WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: fresh-process set-up probes per run; setup_s is their median
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import coarse_menger and its layer modules from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "coarse_menger", "__init__.py")):
        _fail(f"no program to measure: {SRC}/coarse_menger is missing")
    sys.path.insert(0, SRC)
    import importlib

    import coarse_menger

    if not os.path.abspath(coarse_menger.__file__).startswith(SRC + os.sep):
        _fail(f"imported coarse_menger from {coarse_menger.__file__}, not {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"coarse_menger.{layer}")
    return coarse_menger


def setup_probe(workload: str, seed: int):
    """Child side of the set-up measurement: a fresh-process import of the
    program plus input generation.  Prints its seconds (the speed probe's
    own time left out) and its ref cost."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        cm = _import_program()
        WORKLOADS[workload](cm, seed, OUT)
        seconds = time.perf_counter() - start - probe.spent
    print(json.dumps({"s": seconds, "ref": seconds / probe.around(0, len(probe.samples))}))


def measure_setup(workload: str, seed: int) -> List[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes


class Run:
    """Outcomes of all passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.pass_s: List[float] = []
        #: op id -> seconds, and ref cost, in each pass; weighted op ids
        self.op_s: dict = {}
        self.op_ref: dict = {}
        self.weighted_ops: set = set()
        self.causes: List[dict] = []
        self.digests: List[str] = []
        self.notes: dict = {}


def run_pass(build, cm, seed: int, run: Run, tracer=None, probe=None) -> float:
    """Build fresh inputs, time each op, then check every output.  With a
    speed probe, the probe's time is taken out of each op's seconds and the
    ops' ref costs are recorded too."""
    if tracer is not None:
        tracer.op = "setup"
    ops = build(cm, seed, OUT)
    timed = []
    gc.collect()  # the previous pass's garbage, outside the timed interval
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        if probe is not None:
            first, spent = len(probe.samples), probe.spent
        start = time.perf_counter()
        try:
            value, exc = op.call(), None
        except Exception as e:  # the op's failure is recorded, not raised
            value, exc = None, e
        seconds = time.perf_counter() - start
        window = None
        if probe is not None:
            seconds -= probe.spent - spent
            window = (first, len(probe.samples))
        timed.append((op, value, exc, seconds, window))
    if tracer is not None:
        tracer.op = "check"

    canonical = []
    for op, value, exc, seconds, window in timed:
        run.attempted += 1
        run.op_s.setdefault(op.id, []).append(seconds)
        if probe is not None:
            run.op_ref.setdefault(op.id, []).append(seconds / probe.around(*window))
        if op.weighted:
            run.weighted_ops.add(op.id)
        cause = None
        if exc is None:
            try:
                canonical.append(op.check(value))
            except CheckFailed as e:
                cause = ("failed", "CheckFailed", str(e))
        elif op.may_refuse and isinstance(exc, cm.errors.CapacityError):
            cause = ("refused", type(exc).__name__, str(exc))
        else:
            cause = ("failed", type(exc).__name__, str(exc))
        if cause is not None:
            kind, exc_type, message = cause
            run.causes.append({"op": op.id, "outcome": kind, "type": exc_type,
                               "message": message})
            canonical.append({"op": op.id, "outcome": kind, "type": exc_type})
            if kind == "failed":
                run.failed += 1
            else:
                run.refused += 1
        run.notes.update(op.notes)
    blob = json.dumps(canonical, sort_keys=True, default=str).encode()
    run.digests.append(hashlib.sha256(blob).hexdigest())
    total = sum(t[3] for t in timed)
    run.pass_s.append(total)
    return total


def op_medians(per_op: dict, run: Run, weighted_only: bool = False) -> List[float]:
    """Each op's median over the passes (``per_op`` is ``run.op_s`` or
    ``run.op_ref``).  Sums and percentiles are taken over these, so that an
    odd pass moves them less than whole-pass figures would."""
    return [statistics.median(values) for op_id, values in per_op.items()
            if not weighted_only or op_id in run.weighted_ops]


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99); a single sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# output


def _unique_causes(run: Run) -> List[dict]:
    seen, out = set(), []
    for c in run.causes:
        key = tuple(sorted(c.items()))
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def print_causes(workload: str, run: Run):
    print(f"# {workload}: attempted {run.attempted}, failed {run.failed}, "
          f"refused {run.refused}, fail_ratio "
          f"{(run.failed + run.refused) / run.attempted:.4f} (refusals included)")
    for c in _unique_causes(run):
        print(f"#   {c['outcome']:7s} {workload} op={c['op']} {c['type']}: {c['message']}")
    digests = sorted(set(run.digests))
    print(f"# output digest sha256: {' '.join(digests)}")


def print_table(title: str, rows):
    print(f"# {title}")
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"#   {name:48s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    cm = _import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    build = WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    run = Run()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        measured = 0.0
        with SpeedProbe() as probe:
            while measured < args.seconds or not run.pass_s:
                measured += run_pass(build, cm, args.seed, run, probe=probe)
        refs, secs = op_medians(run.op_ref, run), op_medians(run.op_s, run)
        fastest = min(probe.samples)
        values = {
            "wall_ref": sum(refs),
            # seconds at the fastest speed the probe saw in this run
            "setup_s": statistics.median(s["ref"] for s in setup) * fastest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_p50_ref": statistics.median(refs),
            "op_p90_ref": percentile(refs, 90),
            "answered_ratio": (run.attempted - run.failed - run.refused) / run.attempted,
        }
        wanted = spec["end_to_end"]
        extra = [("wall_s", sum(secs), "s"),
                 ("op_p50_ms", statistics.median(secs) * 1000, "ms"),
                 ("op_p90_ms", percentile(secs, 90) * 1000, "ms"),
                 ("weighted_ref", sum(op_medians(run.op_ref, run, weighted_only=True)), "ref"),
                 ("weighted_s", sum(op_medians(run.op_s, run, weighted_only=True)), "s"),
                 ("setup_ref", statistics.median(s["ref"] for s in setup), "ref"),
                 ("setup wall seconds", statistics.median(s["s"] for s in setup), "s"),
                 ("probe kernel, mean", statistics.fmean(probe.samples) * 1e6, "us"),
                 ("probe kernel, fastest", fastest * 1e6, "us"),
                 ("probe share of op time", probe.spent / (measured + probe.spent), "ratio"),
                 ("passes", len(run.pass_s), "count"),
                 ("ops (latency samples)", len(run.op_s), "count")]
    else:
        untraced = run_pass(build, cm, args.seed, run)
        # the report's own per-criterion seconds, from the untraced pass
        notes = dict(run.notes)
        tracer = Tracer()
        tracer.install(cm)
        traced = run_pass(build, cm, args.seed, run, tracer)
        values = tracer.metrics()
        values.update({f"acceptance.criterion.{key}.s": 0.0 for key in ACCEPTANCE_CRITERIA})
        values.update(notes)
        values["trace.overhead_s"] = traced - untraced
        values["covering.duality_sweep.weighted_s"] = sum(
            run.op_s[op_id][0] for op_id in run.weighted_ops)
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"), {
            "workload": args.workload, "seed": args.seed,
            "untraced_s": untraced, "traced_s": traced,
        })
        wanted = spec["per_layer"]
        extra = [("untraced wall_s", untraced, "s"), ("traced wall_s", traced, "s")]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print_table(f"{args.workload}: metrics (seed {args.seed})",
                [(k, v["value"], v["unit"]) for k, v in metrics.items()] + extra)
    print_causes(args.workload, run)
    correct = run.failed == 0 and len(set(run.digests)) == 1
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "correct": correct, "attempted": run.attempted,
                   "failed": run.failed, "refused": run.refused,
                   "causes": _unique_causes(run), "digests": run.digests,
                   "pass_s": run.pass_s, "setup": setup, "metrics": metrics},
                  fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
