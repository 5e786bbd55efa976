"""Record every metric of every workload on two seeds into baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py

Seed 0 is the default seed; 4242 is held out, never used while the
benchmark or a change to the program is being tuned. Each workload runs
once untraced (end-to-end metrics) and once traced (per-layer metrics).
"""

from __future__ import annotations

import json
from pathlib import Path

from run import WORKLOADS, git_commit, metrics_of, run_workload

SEEDS = (0, 4242)
OUT = Path("perfbench/baseline.json")


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    root = Path.cwd()
    record = {"commit": git_commit(root), "run_seconds": seconds, "results": {}}
    for workload in WORKLOADS:
        for seed in SEEDS:
            entry = {}
            for trace in (0, 1):
                result = run_workload(workload, seed, seconds, trace, root)
                key = "per_layer" if trace else "end_to_end"
                entry[key] = {k: v["value"] for k, v in metrics_of(result, trace).items()}
                if not trace:
                    entry["error_rate"] = result["failed"] / result["attempted"]
                    entry["attempted"] = result["attempted"]
                    entry["tail"] = f"p{result['tail_percentile']} of {result['samples']} requests"
                    entry["inputs"] = result["inputs"]
                    record["environment"] = result["env"]
            record["results"].setdefault(workload, {})[str(seed)] = entry
            print(f"{workload} seed {seed}: {entry['end_to_end']}", flush=True)
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
