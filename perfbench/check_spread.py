"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

Usage, from the root of a checkout:

    python3 perfbench/check_spread.py --seeds 1-10 [--workload NAME ...]

Runs the benchmark once per workload and seed with tracing off, then
prints, per metric, the median and the spread: the distance between the
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median. A spread under a third of the metric's bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT_FILE = "BENCHMARK.json"


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    spec = json.loads(Path(ROOT_FILE).read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {}
    for name in names:
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            runs.setdefault(name, []).append(
                {"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    worst_ok = True
    for name, rows in runs.items():
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in rows]
            s = spread(values) if len(values) >= 2 else 0.0
            steady = s < metric["bound"] / 3
            worst_ok &= steady or metric["name"] == "setup_s"
            print(f"   {metric['name']:16s} median {statistics.median(values):10.4f} "
                  f"spread {s:.4f}  bound {metric['bound']}  {'ok' if steady else 'WIDE'}")
    return 0 if worst_ok else 3


if __name__ == "__main__":
    sys.exit(main())
