#!/usr/bin/env python3
"""Run every workload and print all its metrics with units and check verdicts.

    python3 perfbench/report.py [--seed 11] [--seconds 50] [--trace]

Each workload runs in its own process through run.py, so set-up time and peak
memory are that workload's own. The table holds the ten end-to-end metrics;
"-" marks one that does not apply to a workload. With --trace the traced runs
follow and their per-layer metrics, including the tracing overhead against
the untraced ops of the same process, are printed too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "sweep", "infer")
END_TO_END = (
    "setup_s", "op_p50_s", "op_tail_s", "train_pairs_per_s", "encode_frames_per_s",
    "infer_frames_per_s", "peak_rss_mb", "fail_ratio", "final_loss", "bd_rate_pct",
)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def table(title: str, names, records: dict, key: str) -> None:
    print(f"\n{title}\n{'':44s}" + "".join(f"{w:>16s}" for w in records))
    for name in names:
        cells, unit = [], ""
        for rec in records.values():
            metric = rec[key].get(name)
            cells.append(f"{metric['value']:16.6g}" if metric else f"{'-':>16s}")
            unit = unit or (metric or {}).get("unit", "")
        print(f"  {name:33s} {unit:8s}" + "".join(cells))


def verdicts(records: dict) -> None:
    for w, rec in records.items():
        checks = rec["checks"]
        verdict = "PASS" if rec["correct"] else "FAIL"
        print(f"  {w:6s} {verdict}: {rec['ops']} ops (tail = p{rec['op_tail_pct']}), "
              f"{len(checks['failed_ops'])} failed, reference {checks['reference'] or 'none'}, "
              f"canary {checks['canary']}")
        for op, why in list(checks["failed_ops"].items())[:3]:
            print(f"         op {op}: {why}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = parser.parse_args()

    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    print(f"seed {args.seed}, {args.seconds:g} s per run, env {json.dumps(plain['train']['env'])}")
    table("end-to-end", END_TO_END, plain, "metrics")
    verdicts(plain)
    if args.trace:
        traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
        names = list(traced["train"]["per_layer"])
        table("per layer, per op (computed: " + ", ".join(traced["train"]["computed_counts"]) + ")",
              names, traced, "per_layer")
        verdicts(traced)
    return 0 if all(r["correct"] for r in plain.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
