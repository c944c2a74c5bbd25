"""Benchmark entry point.

    python3 benchmarks/run.py --workload train_base --seed 1 --seconds 30 --trace 0

Runs one workload (``train_base``, ``train_toy`` or ``predict_base``) on a
synthetic corpus drawn from ``--seed`` for about ``--seconds`` seconds of
measurement, checks the outputs, and prints one JSON object as the last
line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a traced run gives the per-layer ones and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``. The line before the result
describes the machine, the corpus and the sample counts. The exit code is 0
only if every output check passed.

The package is imported from ``src/`` next to this directory, never from an
installed copy; BLAS gets no more threads than the process may use cores.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("train_base", "train_toy", "predict_base")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Give BLAS the usable core count; call before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS how many threads it runs, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(np, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": threads,
        "blas_threads": blas_threads_in_use(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    package = ROOT / "src" / "slu" / "__init__.py"
    if not package.is_file():
        print(f"package source not found at {package.parent}", file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import slu
    import workloads

    if Path(slu.__file__).resolve() != package.resolve():
        print(f"imported slu from {slu.__file__}, not {package}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], ROOT, args.seed,
                               args.seconds, trace, OUT_DIR)
    except Exception:  # any failure is a failed run, reported in the result
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    tally = result.tally
    chosen = result.per_layer if trace else result.end_to_end
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(np, threads),
        "corpus": workloads.SHAPE.describe(),
        **result.info,
        "failures": tally.notes,
    }
    if trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"info": info, "metrics": metrics,
                                    "spans": result.spans}))
        info["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"info": info}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
