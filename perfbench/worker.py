"""One workload in one fresh process: set up, replay requests, check, report.

Run by `run.py`, never imported. Until it prints READY the process does
only what `setup_s` measures: import `interfsort` and `interfsort.cli` and
make one warm-up call. Input generation, the timed closed loop (one client,
each request starts when the previous one ends) and the checks follow.
The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def warm_up(workload: str) -> None:
    import interfsort.cli
    from interfsort import spectrum
    from interfsort.design import Species, solve_n_path

    if workload == "design-scan":
        solve_n_path([Species(f"c{a}", a * 1.66053906660e-27) for a in (12, 13, 14)], 100.0)
    elif workload == "acquisition":
        spectrum.run_experiment({
            "species": [{"name": "a", "mass_u": 12}, {"name": "b", "mass_u": 13}],
            "velocity_mps": 10.0, "abundances": [0.5, 0.5], "total_particles": 1000,
            "seed": 0, "errors": {"delta_phi_rad": [0.1]}})
    else:
        interfsort.cli.build_parser().parse_args(["verify", "design.json"])


def environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail_percentile(count: int) -> int:
    """Highest integer percentile (nearest rank) with at least ten of `count` above it."""
    for p in range(99, 0, -1):
        if count - nearest_rank(p, count) >= 10:
            return p
    return 100


def nearest_rank(p: int, count: int) -> int:
    return max(1, -(-p * count // 100))


def replay(workload, slots, seconds: float, traced: bool, tracer):
    """Closed loop over the slots, pass after pass, until `seconds` of requests.

    Checks run between passes, off the clock. With tracing, every slot runs
    twice in a row, once traced and once not, alternating which goes first,
    so the pair gives the tracing overhead on identical input.
    """
    from statistics import median

    plain = [[] for _ in slots]
    traced_lat = [[] for _ in slots]
    facts: dict[int, dict] = {}
    ref_dev = 0.0
    timed = 0.0
    attempted = failed = 0
    failures: list[str] = []
    rounds = 0
    while timed < seconds:
        done = []
        for i, slot in enumerate(slots):
            modes = ((True, False) if (i + rounds) % 2 == 0 else (False, True)) if traced else (False,)
            for on in modes:
                tracer.enabled = on
                tracer.begin_request(attempted)
                start = time.perf_counter()
                try:
                    out, error = workload.run(slot, tracer), None
                except Exception as exc:  # a failed request is counted, the loop goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                tracer.end_request()
                tracer.enabled = False
                timed += elapsed
                attempted += 1
                (traced_lat if on else plain)[i].append(elapsed)
                done.append((i, workload.collect(slot, out) if error is None else None, error))
            if timed >= seconds:
                break
        for i, out, error in done:
            if error is None:
                try:
                    error, slot_facts = workload.check(slots[i], out)
                except Exception as exc:
                    error, slot_facts = f"check raised {type(exc).__name__}: {exc}", {}
                ref_dev = max(ref_dev, slot_facts.get("ref_dev", 0.0))
                if error is None:
                    facts.setdefault(i, slot_facts)
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(error)
        rounds += 1

    # A slot's latency is its best over the complete passes: other tenants
    # slow the machine down for stretches of seconds, and the best execution
    # is the one that escaped them. A partial last pass would give only some
    # slots one more try, so it is left out.
    k = max(1, min(len(v) for v in plain))
    per_slot = sorted(min(v[:k]) for v in plain if v)
    p = tail_percentile(len(slots))
    result = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "timed_s": timed, "passes": rounds,
        "throughput_rps": len(per_slot) / sum(per_slot),
        "latency_p50_ms": 1e3 * median(per_slot),
        "latency_tail_ms": 1e3 * per_slot[nearest_rank(p, len(per_slot)) - 1],
        "tail_percentile": p, "samples": len(per_slot),
        "facts": facts, "ref_dev": ref_dev,
    }
    if traced:
        pairs = [(min(a), min(b)) for a, b in zip(traced_lat, plain) if a and b]
        base = sum(b for _, b in pairs)
        result["overhead_pct"] = 100.0 * (sum(a for a, _ in pairs) - base) / base if base else 0.0
    return result


def share(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def input_properties(slots, facts) -> dict:
    hist: dict[int, int] = {}
    for slot in slots:
        hist[slot["n"]] = hist.get(slot["n"], 0) + 1
    checked = [facts[i] for i in sorted(facts)]
    return {
        "requests": len(slots),
        "n_hist": {str(n): hist[n] for n in sorted(hist)},
        "infeasible_share": share(slot.get("feasible") is False for slot in slots),
        "matrices_per_request": share(slot["matrices"] for slot in slots),
        "nnls_share": share(f["nnls"] for f in checked if "nnls" in f),
        "zero_count_share": share(f["zero_count"] for f in checked if "zero_count" in f),
        "pull_coverage": share(f["covered"] for f in checked if "covered" in f),
        "zero_sigma_share": share(f["zero_sigma"] for f in checked if "zero_sigma" in f),
    }


LAYERS = ("design", "leakage", "spectrum", "cli")
CLI_COMMANDS = ("design", "verify", "sweep", "montecarlo", "simulate", "ams-compare")
N_SIZES = (2, 3, 4, 5, 6, 7, 8, 16, 32)


def layer_metrics(tracer, props: dict, result: dict) -> dict:
    """Per-layer figures from the traced requests; busy times are per request."""
    from statistics import median

    spans = tracer.spans
    own = tracer.self_times()
    reqs = max(tracer.requests(), 1)
    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        out[f"{layer}.calls"] = len(mine) / reqs
        out[f"{layer}.busy_ms"] = 1e3 * sum(own[i] for i in mine) / reqs
        out[f"{layer}.errors"] = sum(1 for i in mine if spans[i].error) / reqs

    def busy(name):
        return 1e3 * sum(own[i] for i, s in enumerate(spans) if s.name == name) / reqs

    def p50(name, pred=lambda s: True):
        times = [s.duration for s in spans if s.name == name and pred(s)]
        return 1e3 * median(times) if times else 0.0

    out["design.solve_n_path.feasible_p50_ms"] = p50("design.solve_n_path", lambda s: s.error is None)
    out["design.solve_n_path.infeasible_p50_ms"] = p50(
        "design.solve_n_path", lambda s: s.error == "InfeasibleDesignError")
    out["design.verify_design.busy_ms"] = busy("design.verify_design")
    out["design.infeasible_share"] = props["infeasible_share"]

    kernels = ("leakage.simulate_leakage", "leakage.design_leakage")
    for n in (3, 8, 16, 32):
        picked = [s for s in spans if s.name in kernels and s.attrs.get("n") == n]
        count = sum(s.attrs["matrices"] for s in picked)
        out[f"leakage.us_per_matrix.n{n}"] = 1e6 * sum(s.duration for s in picked) / count if count else 0.0
    out["leakage.design_leakage.busy_ms"] = busy("leakage.design_leakage")
    out["leakage.matrices"] = props["matrices_per_request"]
    out["leakage.max_ref_dev"] = result["ref_dev"]

    for name in ("simulate_counts", "reconstruct_spectrum"):
        out[f"spectrum.{name}.busy_ms"] = busy(f"spectrum.{name}")
    for key in ("nnls_share", "zero_count_share", "pull_coverage", "zero_sigma_share"):
        out[f"spectrum.{key}"] = props[key]

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.cold_ms"] = p50(f"cli.{cmd}")
    for n in N_SIZES:
        out[f"input.n_share.n{n}"] = props["n_hist"].get(str(n), 0) / props["requests"]
    out["latency_tail.percentile"] = result["tail_percentile"]
    out["latency_tail.samples"] = result["samples"]
    out["trace.overhead_pct"] = result["overhead_pct"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    warm_up(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import resource
    from pathlib import Path

    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    slots = workload.generate(args.seed, Path(args.workdir))
    tracer = Tracer()
    result = replay(workload, slots, args.seconds, bool(args.trace), tracer)
    props = input_properties(slots, result.pop("facts"))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["inputs"] = props
    result["env"] = environment()
    if args.trace:
        result["layers"] = layer_metrics(tracer, props, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
