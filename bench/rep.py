"""One cold repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
the import and the memoized-table costs that a user pays on every run.  It
prints one JSON object as its last line of output.  Time stamps that the
parent compares with its own use ``time.monotonic``, which on Linux is the
system-wide CLOCK_MONOTONIC.

    PYTHONPATH=src python3 bench/rep.py --workload halfball --seed 3 [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import halfharm
from halfharm import blaschke, certificates, competitors, conformal, energy, jacobian, quadrature

import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_out"
MODULES = (quadrature, conformal, blaschke, certificates, energy, jacobian, competitors)


def warm_caches() -> list[str]:
    """Names of halfharm lru_cache functions that already hold entries
    (looking through the traced run's wrappers)."""
    warm = []
    for module in MODULES:
        for name, obj in vars(module).items():
            while not hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
                obj = obj.__wrapped__
            info = getattr(obj, "cache_info", None)
            if callable(info) and info().currsize > 0:
                warm.append(f"{module.__name__}.{name}")
    return warm


def describe() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(halfharm.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"halfharm imported from {source}, not from this checkout", file=sys.stderr)
        return 1

    inputs = workloads.make_inputs(args.workload, args.seed)
    t_ready = time.monotonic()
    result = {"pid": os.getpid(), "t_ready": t_ready, "warm": warm_caches()}
    if args.setup_only:
        result["describe"] = describe()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        layers.install(tracer)
        inputs = layers.count_map_points(tracer, inputs)

    result["warm"] = warm_caches()
    ledger = workloads.Ledger()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    workloads.RUNNERS[args.workload](inputs, ledger)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        wall_s=wall,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures[:20],
    )
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}.trace.npz"
        tracer.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        result["counters"] = tracer.counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
