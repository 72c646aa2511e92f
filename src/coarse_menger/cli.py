"""Command-line experiment driver.

Commands: run-duality, run-acceptance, run-tangle-lab, run-transfer, gen.
Long flags only; reports are JSON (and CSV where tabular) embedding the
library version and the fully resolved configuration.  Exit codes: 0 success,
1 malformed configuration, 2 invariant violation, 3 capacity exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from .acceptance import CRITERIA, check_tangle_trichotomy, run_acceptance
from .covering import duality_sweep
from .errors import (
    CapacityError,
    CoarseMengerError,
    InputError,
    InternalInconsistencyError,
)
from .generators import (
    grid,
    menger_lower_bound_instance,
    random_instances,
    rooted_p3_grid,
)
from .graph import from_json_dict as graph_from_json_dict
from .transfer import c_h_ledger, constant_witness, transfer_chain, transfer_constants
from .version import REPORT_SCHEMA, __version__

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_CAPACITY = 3

#: hard ceiling for the COARSE_MENGER_CAP override
HARD_VERTEX_CAP = 16


def _env_cap(default: int) -> int:
    raw = os.environ.get("COARSE_MENGER_CAP")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"COARSE_MENGER_CAP must be an integer, got {raw!r}")
    if value < 1:
        raise InputError("COARSE_MENGER_CAP must be positive")
    return min(value, HARD_VERTEX_CAP)


def _num_list(text: str) -> List:
    """Comma-separated numbers: ``int`` where integral in form, else an exact
    ``Fraction`` ("0.5" and "1/2" alike); nan and inf are refused."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(int(piece))
        except ValueError:
            try:
                out.append(Fraction(piece))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"not a finite number: {piece!r}")
    if not out:
        raise InputError("empty number list")
    return out


def _parse_grid(text: str):
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise InputError(f"--grid expects RxC, got {text!r}")


def _report_shell(command: str, config: Dict) -> Dict:
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "timestamp": time.time(),
    }


def _emit(doc: Dict, out: Optional[str], csv_text: Optional[str] = None):
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if out:
        with open(out if out.endswith(".json") else out + ".json", "w") as fh:
            fh.write(text + "\n")
        if csv_text is not None:
            base = out[:-5] if out.endswith(".json") else out
            with open(base + ".csv", "w") as fh:
                fh.write(csv_text)
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def _load_instances(args) -> List[Dict]:
    """Resolve the instance source to a list of {graph, x, y, label} dicts."""
    cap = _env_cap(12)
    out = []
    if args.grid:
        rows, cols = _parse_grid(args.grid)
        g = grid(rows, cols)
        x = frozenset(i * cols for i in range(rows))
        y = frozenset(i * cols + cols - 1 for i in range(rows))
        out.append({"graph": g, "x": x, "y": y, "label": f"grid-{rows}x{cols}"})
    elif args.file:
        with open(args.file) as fh:
            doc = json.load(fh)
        docs = doc if isinstance(doc, list) else [doc]
        for i, d in enumerate(docs):
            try:
                g = graph_from_json_dict(d["graph"])
                x = frozenset(d["x"])
                y = frozenset(d["y"])
            except KeyError as exc:
                raise InputError(f"instance {i}: missing field {exc}") from None
            except TypeError as exc:
                raise InputError(f"instance {i}: malformed field: {exc}") from None
            except InputError as exc:
                raise InputError(f"instance {i}: {exc}") from None
            out.append({"graph": g, "x": x, "y": y,
                        "label": d.get("label", f"file-{i}")})
    else:
        specs = random_instances(args.seed, args.count, {"max_vertices": cap})
        for spec in specs:
            out.append({"graph": spec.graph, "x": spec.x, "y": spec.y,
                        "label": f"random-{spec.params['index']}"})
    return out


def cmd_run_duality(args) -> int:
    instances = _load_instances(args)
    r_values = _num_list(args.r)
    beta_values = _num_list(args.beta)

    reports = [duality_sweep(inst["graph"], inst["x"], inst["y"], args.l,
                             r_values, beta_values) for inst in instances]

    paired = sorted(zip(instances, reports), key=lambda p: p[1].fingerprint)
    violations = []
    flagged = False
    rows = ["fingerprint,kind,threshold,value,exact,flag"]
    body = []
    for inst, rep in paired:
        for v in rep.check_weak_duality():
            violations.append({"instance": inst["label"], "cell": v})
        doc = rep.to_json_dict()
        doc["label"] = inst["label"]
        body.append(doc)
        for line in rep.to_csv().splitlines()[1:]:
            rows.append(f"{rep.fingerprint},{line}")
        for cell in list(rep.packing_by_r.values()) + list(rep.cover_by_radius.values()):
            if cell.flag:
                flagged = True

    shell = _report_shell("run-duality", {
        "grid": args.grid, "file": args.file, "seed": args.seed,
        "count": args.count, "r": r_values, "beta": beta_values, "l": args.l,
        "strict": args.strict,
    })
    shell["instances"] = body
    shell["violations"] = violations
    _emit(shell, args.out, "\n".join(rows) + "\n")
    if violations:
        return EXIT_INVARIANT
    if flagged and args.strict:
        return EXIT_CAPACITY
    return EXIT_OK


def cmd_run_acceptance(args) -> int:
    only = None
    if args.only:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [k for k in only if k not in CRITERIA]
        if unknown:
            raise InputError(f"unknown criteria: {unknown}")
    report = run_acceptance(only=only, seed=args.seed)
    doc = report.to_json_dict()
    doc.update(_report_shell("run-acceptance",
                             {"seed": args.seed, "only": only}))
    _emit(doc, args.out)
    for r in report.results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.key} ({r.seconds * 1000:.0f} ms)",
              file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def cmd_run_tangle_lab(args) -> int:
    result = check_tangle_trichotomy(args.seed)
    shell = _report_shell("run-tangle-lab", {"seed": args.seed})
    shell["result"] = result.to_json_dict()
    _emit(shell, args.out)
    return EXIT_OK if result.passed else EXIT_INVARIANT


def cmd_run_transfer(args) -> int:
    c1, c2 = transfer_constants(args.m, args.a)
    w = constant_witness(args.count_bound, args.radius_bound)
    chain = transfer_chain(args.m, args.a, w, args.k, args.r, args.l)
    shell = _report_shell("run-transfer", {
        "m": args.m, "a": args.a, "k": args.k, "r": args.r, "l": args.l,
        "count_bound": args.count_bound, "radius_bound": args.radius_bound,
    })
    shell["constants"] = {"c1": c1, "c2": c2}
    shell["chain"] = chain
    if args.ledger:
        shell["c_h_ledger"] = {
            "finite_planar": c_h_ledger({"finite": True, "planar": True}).to_json_dict(),
            "finite_apex": c_h_ledger({"finite": True, "apex": True}).to_json_dict(),
            "finite_genus_0": c_h_ledger({"finite": True, "genus_bound": 0}).to_json_dict(),
            "locally_finite_genus_0": c_h_ledger({"finite": False, "genus_bound": 0}).to_json_dict(),
            "linkless": c_h_ledger({"special": "linkless"}).to_json_dict(),
            "knotless": c_h_ledger({"special": "knotless"}).to_json_dict(),
        }
    _emit(shell, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.grid:
        rows, cols = _parse_grid(args.grid)
        spec = menger_lower_bound_instance(rows, cols)
        specs = [spec]
    elif args.rooted_p3 is not None:
        specs = [rooted_p3_grid(args.rooted_p3)]
    else:
        cap = _env_cap(12)
        specs = random_instances(args.seed, args.count,
                                 {"max_vertices": cap}, family=args.family)
    shell = _report_shell("gen", {
        "grid": args.grid, "rooted_p3": args.rooted_p3, "seed": args.seed,
        "count": args.count, "family": args.family,
    })
    shell["instances"] = [s.to_json_dict() for s in specs]
    _emit(shell, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarse-menger",
        description="coarse packing-covering duality experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-duality", help="packing/cover sweeps")
    p.add_argument("--grid", default=None, metavar="RxC")
    p.add_argument("--file", default=None, metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--r", default="1,2", help="comma list of far thresholds")
    p.add_argument("--beta", default="0,1", help="comma list of ball radii")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run_duality)

    p = sub.add_parser("run-acceptance", help="the acceptance suite")
    p.add_argument("--only", default=None, help="comma list of criterion keys")
    p.add_argument("--seed", type=int, default=20240824)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run_acceptance)

    p = sub.add_parser("run-tangle-lab", help="trichotomy stress run")
    p.add_argument("--seed", type=int, default=20240824)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run_tangle_lab)

    p = sub.add_parser("run-transfer", help="constants and witness chains")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--count-bound", type=int, default=1)
    p.add_argument("--radius-bound", type=int, default=1)
    p.add_argument("--ledger", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run_transfer)

    p = sub.add_parser("gen", help="emit instance specifications")
    p.add_argument("--grid", default=None, metavar="RxC",
                   help="grid lower-bound instance")
    p.add_argument("--rooted-p3", type=int, default=None, metavar="W")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--family", default="general")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInconsistencyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CapacityError as exc:
        print(f"capacity exhausted: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CoarseMengerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
