"""Run one benchmark workload against the auscult sources in ./src.

    python3 perfbench/run.py --workload stream_toy --seed 1 --seconds 25 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, timed by wrapping the program's functions.
A human-readable summary goes to standard error, and every figure with the
machine facts to perfbench/out/result-<workload>-<seed>-<trace>.json.

BLAS is pinned to one thread by default (--blas-threads). On a 2-core VM
one thread was faster than two on stream_toy and train_toy, whose work is
many small matrices and, for the stream, a second Python thread; see
perfbench/README.md.
"""

from __future__ import annotations

import time

# set-up is timed from here: the interpreter's start and any launcher in
# front of it are not the program's, and they varied by 0.1 s between runs
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_toy", "decode_rene_s", "train_toy", "emr_fusion")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.blas_threads < 1:
        p.error("--seed must be >= 0, --seconds and --blas-threads >= 1")
    return args


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def overrun():
    """A hung workload ends the process without a result."""
    print(f"perfbench: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr, flush=True)
    os._exit(4)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before NumPy loads OpenBLAS
        os.environ[var] = str(args.blas_threads)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "auscult" / "__init__.py").is_file():
        fail(f"no auscult sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    watchdog = threading.Timer(RUN_LIMIT_S, overrun)
    watchdog.daemon = True
    watchdog.start()

    import numpy as np

    import auscult
    from common import Run, median
    from inputs import out_dir
    from layers import missing_metrics, register, span_metrics
    from tracing import Tracer

    if not Path(auscult.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported auscult from {auscult.__file__}, not {ROOT / 'src'}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        register(tracer)
        tracer.install()

    run = Run(ROOT, args.seed, args.seconds, tracer, T_START)
    importlib.import_module(args.workload).run(run)
    if tracer is not None:
        tracer.uninstall()

    if not run.op_ms:
        fail("the workload completed no operation", 1)
    if args.trace:
        values = span_metrics(run.phase_stats, run.units, run.stats_setup)
        values.update(run.layer)
        listed = spec["per_layer"]
        skip = missing_metrics(tracer)
    else:
        values = {"setup_s": run.setup_s, "peak_rss_mb": run.peak_rss_mb,
                  "op_ms_p50": median(run.op_ms)}
        listed = spec["end_to_end"]
        skip = set()

    metrics, not_measured = {}, []
    for m in listed:
        name = m["name"]
        if name in skip:
            not_measured.append(name)
            continue
        value = float(values.get(name, 0.0))
        if not np.isfinite(value):
            not_measured.append(name)
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}

    result = {"correct": run.correct, "attempted": int(run.attempted),
              "failed": int(run.failed), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  checks=[{"name": n, "ok": ok, "detail": d}
                          for n, ok, d in run.checks],
                  not_measured=not_measured, details=run.details,
                  machine={"nproc": os.cpu_count(), "python": platform.python_version(),
                           "numpy": np.__version__, "blas_threads": args.blas_threads,
                           "platform": platform.platform()})
    (out_dir(ROOT) / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    for n, ok, d in run.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {n}" + (f" ({d})" if d and not ok else ""),
              file=sys.stderr)
    for name in not_measured:
        print(f"[----] {name}: not measured", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"blas_threads={args.blas_threads} details={json.dumps(run.details, default=float)}",
          file=sys.stderr)
    print(json.dumps(result), flush=True)
    watchdog.cancel()
    return 0


if __name__ == "__main__":
    sys.exit(main())
