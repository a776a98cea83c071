"""archlab benchmark: runs a workload, checks its outputs and prints its
metrics.

    python3 bench/run.py --workload linear-recovery --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/run.py --self-test             # every check on tiny inputs

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
the run is traced and the metrics are the per-layer ones. The line before
it holds the run's environment and the workload's own figures. Both are
also written to bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# set-ups per run: at least this many and at least this long, since one
# set-up takes milliseconds; setup_s is their median
SETUPS, SETUP_SECONDS = 7, 1.0



def cap_threads():
    """Cap BLAS threads at the core count; must run before NumPy loads.
    archlab's own ARCHLAB_THREADS is left at its default of 1. CLI child
    processes inherit the settings."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = min(int(os.environ.get(var, NPROC)), NPROC)
        except ValueError:
            threads = NPROC
        os.environ[var] = str(max(threads, 1))
    os.environ.pop("ARCHLAB_THREADS", None)


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from
    BENCHMARK.json, the one place the metrics are named."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_program():
    """Import archlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import archlab
    except ImportError as exc:
        sys.exit(f"bench: cannot import archlab from {ROOT}/src: {exc}")
    where = os.path.realpath(archlab.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        sys.exit(f"bench: archlab was imported from {where}, not from this checkout")


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ARCHLAB_THREADS": os.environ.get("ARCHLAB_THREADS", "unset (default 1)"),
        "nproc": NPROC,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def timing_summary(samples) -> dict:
    """Median and sample count; a tail percentile only when at least ten
    samples lie beyond it, and only from 40 samples on."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 40:
        q = 100 * (1 - 10 / len(samples))
        out[f"p{int(q)}"] = statistics.quantiles(samples, n=100)[int(q) - 1]
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(name, seed, seconds, trace, scale):
    import workloads
    from checks import CheckFailed

    setup, run_round = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_times = []
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
        started = time.perf_counter()
        if tracer:
            with tracer.span("bench.setup"):
                inputs = setup(seed, scale)
        else:
            inputs = setup(seed, scale)
        setup_times.append(time.perf_counter() - started)

    rounds, correct, problem = [], True, None
    started = time.perf_counter()
    try:
        while True:
            rounds.append(workloads.Round())
            if tracer:
                with tracer.span("bench.round"):
                    run_round(inputs, scale, rounds[-1], tracer)
            else:
                run_round(inputs, scale, rounds[-1])
            elapsed = time.perf_counter() - started
            # whole rounds only: stop before a round that would end past the limit
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    except CheckFailed as exc:
        correct, problem = False, str(exc)
    finally:
        if tracer:
            tracer.uninstall()
    return setup_times, rounds, correct, problem, tracer


def result_for(name, seed, seconds, trace, scale):
    setup_times, rounds, correct, problem, tracer = run_workload(
        name, seed, seconds, trace, scale)
    ops = [t for r in rounds for t in r.op_seconds]
    mse_over_noise = [q for r in rounds for q in r.mse_over_noise]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not ops:  # the first round failed before timing its first operation
        ops, attempted = [float("nan")], max(attempted, 1)
    if trace:
        from tracing import layer_metrics

        values = layer_metrics(tracer.spans, len(setup_times), len(rounds))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(ops),
            "mse_over_noise": statistics.median(mse_over_noise) if mse_over_noise else float("nan"),
            "peak_rss_mb": peak_rss_mb(),
        }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "environment": environment(),
        "setup_s": timing_summary(setup_times), "op_s": timing_summary(ops),
        "workload_figures": [r.details for r in rounds],
    }
    if problem:
        details["check_failed"] = problem
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} "
                         "differ from those BENCHMARK.json declares")
    result = {
        "correct": bool(correct and all(math.isfinite(v) for v in values.values())),
        "attempted": int(attempted),
        "failed": int(failed),
        # a value that could not be measured is null, never NaN (not JSON)
        "metrics": {m: {"value": float(v) if math.isfinite(v) else None, "unit": units[m]}
                    for m, v in values.items()},
    }
    if tracer:
        os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
        tracer.dump(os.path.join(BENCH_DIR, "results", f"trace-{name}-{seed}.json"))
    return details, result


def emit(details, result):
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "results",
                        f"{details['workload']}-{details['seed']}-t{details['trace']}.json")
    with open(path, "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, default=str)
    print(json.dumps(details, default=str))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every check on tiny inputs and on corrupted outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    cap_threads()
    load_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r} (choose from {sorted(workloads.WORKLOADS)} or all)")
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            details, result = result_for(name, args.seed, args.seconds, args.trace,
                                         workloads.FULL)
            if len(names) > 1:
                emit(details, result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}" if len(names) > 1 else metric] = value
        if len(names) == 1:
            emit(details, combined)
        else:
            print(json.dumps(combined), flush=True)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workloads.WORK_DIR))
        except OSError:  # another run's files are still there
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
