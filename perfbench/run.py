"""interfsort benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design-scan --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads: design-scan, acquisition, cli-cold (see README.md
next to this file). Each runs in a fresh worker process as one client in
a closed loop, with the BLAS thread count pinned to 1. `--trace 0` reports
the end-to-end metrics; `--trace 1` reports the per-layer metrics from
spans around the benchmark's calls into the program, plus import times
from `python -X importtime`. Every output is checked against independent
references; the last line of stdout is a JSON summary with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("design-scan", "acquisition", "cli-cold")
SETUP_SAMPLES = 3        # fresh processes timed per run; setup_s is their median
IMPORT_SAMPLES = 3
BASELINE_SAMPLES = 5
WORKER_TIMEOUT_S = 150
IMPORT_MODULES = ("gates", "design", "leakage", "spectrum", "cli")
HERE = Path(__file__).resolve().parent


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(workload: str, env: dict, extra: list[str]):
    """Start a worker and time it from spawn to READY (import + warm-up)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} failed during set-up")
    return proc, ready


def import_times(env: dict) -> dict:
    """Cumulative import time of each interfsort module, median over runs, ms."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import interfsort.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("interfsort."):
                module = parts[2].split(".", 1)[1]
                if module in samples:
                    samples[module].append(int(parts[1]) / 1e3)
    return {f"{m}.import_ms": statistics.median(v) for m, v in samples.items()}


def python_baseline_ms(env: dict) -> float:
    times = []
    for _ in range(BASELINE_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    env = bench_env(root)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(workload, env, ["--setup-only"])
        proc.communicate(timeout=60)
        setups.append(ready)
    workdir = root / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
    try:
        proc, ready = start_worker(workload, env, [
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)])
        setups.append(ready)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker for {workload} ran past {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    if trace:
        result["layers"].update(import_times(env))
        result["layers"]["cli.python_baseline_ms"] = python_baseline_ms(env)
    return result


END_TO_END = (("setup_s", "s"), ("throughput_rps", "req/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MiB"))


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if ".us_per_matrix." in name:
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith((".calls", ".errors", ".samples", ".matrices")):
        return "count"
    if name.endswith(".percentile"):
        return "percentile"
    if name.endswith(".max_ref_dev"):
        return "prob"
    return "share"


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    return {k: {"value": result[k], "unit": unit} for k, unit in END_TO_END}


def report(workload: str, seed: int, trace: int, result: dict, commit: str) -> None:
    env, inputs = result["env"], result["inputs"]
    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"({result['attempted']} requests in {result['timed_s']:.2f} s, {result['passes']} passes)")
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, blas threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"commit {commit}")
    print(f"   inputs: {inputs['requests']} requests, N histogram {inputs['n_hist']}, "
          f"infeasible {inputs['infeasible_share']:.3f}, "
          f"matrices/request {inputs['matrices_per_request']:.1f}, "
          f"NNLS {inputs['nnls_share']:.3f}, zero-count {inputs['zero_count_share']:.3f}")
    print(f"   setup_s          {result['setup_s']:.4f} s")
    print(f"   throughput_rps   {result['throughput_rps']:.4f} req/s")
    print(f"   latency_p50_ms   {result['latency_p50_ms']:.4f} ms")
    print(f"   latency_tail_ms  {result['latency_tail_ms']:.4f} ms  "
          f"(p{result['tail_percentile']} of {result['samples']} requests)")
    print(f"   error_rate       {result['failed'] / result['attempted']:.4f} failed/attempted  "
          f"({result['failed']} of {result['attempted']})")
    print(f"   peak_rss_mb      {result['peak_rss_mb']:.2f} MiB")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    if trace:
        for name, value in result["layers"].items():
            print(f"   {name:40s} {value:.6g} {layer_unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "interfsort" / "__init__.py").is_file():
        print(f"error: no interfsort sources under {root / 'src'}; "
              "run from the root of an interfsort checkout", file=sys.stderr)
        return 2
    commit = git_commit(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, args.trace, result, commit)
        summary["correct"] = summary["correct"] and result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        metrics = metrics_of(result, args.trace)
        if len(names) > 1:
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        summary["metrics"].update(metrics)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
