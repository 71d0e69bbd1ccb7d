"""Command line of the ledger.

Two front ends over :mod:`benchmarks.ledger.harness`:

* the **contract form** the benchmark driver calls — ``--workload NAME
  --seed N --seconds S --trace 0|1`` — runs one workload once and prints
  one JSON object as the last line of stdout (end-to-end metrics with
  ``--trace 0``, per-layer metrics with ``--trace 1``);
* the **subcommands** for people: ``run`` (every workload: end-to-end
  table, then the per-layer table from the traced pass; ``--repeat`` and
  ``--out`` make the files ``compare`` reads), ``trace`` (the traced
  pass only) and ``compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.ledger import compare, harness
from benchmarks.ledger.workloads import WORKLOADS


def _print_result(result: dict) -> None:
    samples = result.get("samples", {})
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"ops={result['attempted']}  failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}{count}")
    if "info" in result:
        info = result["info"]
        print(
            f"  (not bounded: op_p90_ms {info['op_p90_ms']:.6g}; before host-speed "
            f"normalisation op_p50_ms {info['op_p50_ms_as_measured']:.6g}, host "
            f"ran {info['host_slowdown']:.3f}x the reference time)"
        )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def _print_header(seed: int) -> dict:
    head = harness.header(seed)
    print("# " + "  ".join(f"{k}={v}" for k, v in head.items()))
    return head


def contract(args) -> int:
    """One workload, one run, one JSON line (the driver's protocol)."""
    _print_header(args.seed)
    if args.trace:
        result = harness.trace(args.workload, args.seed, smoke=args.smoke)
    else:
        result = harness.measure(
            args.workload, args.seed, args.seconds, smoke=args.smoke,
            regen_golden=args.regen_golden,
        )
    _print_result(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


def run(args) -> int:
    """Every workload: end-to-end runs, then (optionally) the traced pass."""
    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = min(seconds, 1)
    names = args.workloads or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    doc = {
        "header": _print_header(args.seed),
        "end_to_end": {},
        "info": {},
        "per_layer": {},
        "exact": {},
        "runs": [],
    }
    ok = True
    if args.command == "run":
        for name in names:
            series = doc["end_to_end"].setdefault(name, {})
            for seed in range(args.seed, args.seed + args.repeat):
                result = harness.measure(
                    name, seed, seconds, smoke=args.smoke,
                    regen_golden=args.regen_golden,
                )
                _print_result(result)
                ok &= result["correct"]
                doc["runs"].append(result)
                for metric, value in result["metrics"].items():
                    series.setdefault(metric, []).append(value["value"])
                for key, value in result["info"].items():
                    doc["info"].setdefault(name, {}).setdefault(key, []).append(value)
                doc["exact"][f"{name}@{seed}/golden"] = result["golden_digest"]
                doc["exact"][f"{name}@{seed}/sim"] = result["sim"]
    if args.command == "trace" or not args.no_trace:
        for name in names:
            result = harness.trace(
                name, args.seed, smoke=args.smoke, spans=args.spans
            )
            _print_result(result)
            ok &= result["correct"]
            doc["per_layer"][name] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="op counts / 10, one set-up repeat, 1 s phases (a self-check, "
        "not a measurement)",
    )
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="record the python-oracle digests of the seeds run in goldens.json",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("workloads", nargs="*", help="default: all five")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--smoke", action="store_true")
        p.add_argument("--regen-golden", action="store_true")
        p.add_argument("--out", help="write the results as JSON (for compare)")
        p.add_argument("--spans", help="write the traced pass's raw spans here")
        if name == "run":
            p.add_argument(
                "--repeat", type=int, default=1,
                help="runs per workload, seeds SEED..SEED+REPEAT-1",
            )
            p.add_argument("--no-trace", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return compare.main(args.a, args.b, harness.load_spec())
    if args.command in ("run", "trace"):
        return run(args)
    if args.workload is None:
        build_parser().error("give --workload (contract form) or a subcommand")
    if args.seconds is None:
        args.seconds = harness.load_spec()["run_seconds"]
    return contract(args)


if __name__ == "__main__":
    sys.exit(main())
