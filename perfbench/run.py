"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload refresh_default --seed 1 \
        --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every layer wrapped and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The host fingerprint, the failed operations, the ladder probes, the
metrics and (traced) every span are written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time

# One BLAS thread: on a small host an idle OpenBLAS worker spin-waits
# next to the interpreter thread and slows it by a varying amount; the
# library's matrices are small enough that a second thread buys nothing
# (measured: same refresh time at 1 and 2 threads on 2 cores).  Set
# before numpy loads; the fingerprint records the count in effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("refresh_default", "refresh_catalog", "serve_zipf")


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _steal_seconds():
    """CPU time the hypervisor took from this host's vCPUs so far."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(kernels_mode: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels": kernels_mode,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of nominal traffic offered (virtual "
                             "clock, one drive per second, at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no library sources at %s" % SRC, file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import repro.pipeline  # noqa: F401  (timed: part of set-up)
    from repro.geometry import kernels
    import_s = time.perf_counter() - start

    import layers
    import workloads
    from tracer import Tracer

    steal = _steal_seconds()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = OUT / "work" / ("%s-%d" % (tag, os.getpid()))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    if args.trace:
        tracer.install(layers.targets())
    try:
        workdir.mkdir(parents=True)
        facts = workloads.run_workload(args.workload, args.seed,
                                       args.seconds, workdir, SRC, import_s,
                                       tracer)
        tally = facts["tally"]
        if args.trace:
            metrics = layers.derive(tracer, facts, tracer.call_cost())
            units = layers.PER_LAYER
            tracer.write(results / ("%s.spans.json" % tag))
            for root, name, total, calls in layers.table(tracer)[:30]:
                print("  %-8s %-22s %9.3fs %8d calls"
                      % (root, name, total, calls), file=sys.stderr)
        else:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = workloads.end_to_end(facts, peak_rss_mb)
            units = workloads.END_TO_END
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    host = fingerprint(kernels.get_mode())
    if steal is not None:
        host["steal_s_during_run"] = _steal_seconds() - steal
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "problems": tally.problems,
              "ladder": {str(k): v for k, v in facts["ladder"].items()},
              "generator_lateness_ms": 0.0,
              "metrics": metrics}
    with open(results / ("%s.json" % tag), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print("host: %s" % json.dumps(host, sort_keys=True))
    for problem in tally.problems:
        print("FAILED %s" % problem)
    for name, value in metrics.items():
        print("%-28s %14.6g %s" % (name, value, units[name][0]))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
