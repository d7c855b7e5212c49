"""Benchmark for skillpack: pack a skill, sweep budgets, switch tasks.

    python3 perfbench/run.py --workload pack-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it record the environment and the SHA-256 of every pack
the run produced. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see README.md). A failed correctness check
prints the result with "correct": false and exits with code 1.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the single-threaded timings are both faster and steadier
# than two threads on the 2-CPU machine the reference figures come from.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH_DIR]

# Set-up repeats at least this often and for at least this long; its median is setup_s.
SETUP_REPS = 5
SETUP_MIN_S = 1.0


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found or {"OPENBLAS_NUM_THREADS": BLAS_THREADS}


def warm_up() -> None:
    """First LAPACK/BLAS calls of a process can stall; pay that before timing."""
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((96, 64))
    scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    np.linalg.svd(a, compute_uv=False)
    h = a.T @ a + np.eye(64)
    scipy.linalg.cho_solve((np.linalg.cholesky(h), True), np.eye(64))


def measure(workload, seconds: float, tracer):
    """Whole rounds until `seconds` have passed (at least one).

    Traced runs alternate untraced and traced rounds, starting untraced,
    with at least one of each; latencies come from the untraced rounds and
    the traced-over-untraced ratio of median round times is the overhead.
    """
    import statistics
    import time

    latencies, round_times = [], {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times[False]) > len(round_times[True])
        if traced:
            tracer.phase = "round"
            tracer.install()
        begin = time.perf_counter()
        try:
            ops, n_attempted, n_failed = workload.round()
        finally:
            if traced:
                tracer.uninstall()
        round_times[traced].append(time.perf_counter() - begin)
        if not traced:
            latencies += ops
        attempted += n_attempted
        failed += n_failed
        paired = len(round_times[False]) == len(round_times[True])
        if time.perf_counter() - start >= seconds and (tracer is None or paired):
            break
    overhead = 0.0
    if tracer is not None:
        overhead = 100.0 * (statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1.0)
    return latencies, attempted, failed, len(round_times[True]), overhead


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2**63  # seed sequences take non-negative integers

    if not os.path.isfile(os.path.join(SRC, "skillpack", "__init__.py")):
        print(f"error: no skillpack sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    import json
    import resource
    import shutil
    import statistics
    import time

    import skillpack

    if os.path.dirname(os.path.abspath(skillpack.__file__)) != os.path.join(SRC, "skillpack"):
        print(f"error: skillpack imported from {skillpack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out_dir = os.path.join(BENCH_DIR, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print(json.dumps({"environment": environment(args.seed), "workload": args.workload}), flush=True)
        workload = WORKLOADS[args.workload](workdir, args.seed)
        workload.prepare()
        warm_up()

        tracer = Tracer(args.workload) if args.trace else None
        setup_times = []
        correct = True
        try:
            if tracer is not None:
                tracer.install()
            while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
                begin = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - begin)
            if tracer is not None:
                tracer.phase = "prep"
            workload.after_setup()
            if tracer is not None:
                tracer.uninstall()

            latencies, attempted, failed, traced_rounds, overhead = measure(workload, args.seconds, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.install()
                tracer.memory_pass(workload.memory_body)
                tracer.uninstall()
            quality = workload.check()
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        print(json.dumps({"pack_sha256": workload.digests}), flush=True)
        if not correct:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
        if tracer is not None:
            metrics = tracer.per_layer(len(setup_times), traced_rounds, overhead)
            tracer.write_jsonl(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "op_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
                "pack_bytes": {"value": quality["pack_bytes"], "unit": "bytes"},
                "rel_err": {"value": quality["rel_err"], "unit": "ratio"},
            }
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
