"""Paper-scale benchmark of the SpikeDyn reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer --seed 1 --seconds 20 --trace 0

Workloads: ``continual``, ``infer``, ``serve``, ``events`` (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the full report: environment, every metric including the
workload-specific ones, per-run values and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads per process (the server and its shards inherit it): the
#: engine workloads run one Python thread, and pinning BLAS too keeps runs
#: on a shared machine comparable.
BLAS_THREADS = 1

#: End-to-end metrics every workload reports on its last line (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "energy_mj_per_sample": "mJ",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics in the full report line only: workload-specific ones,
#: ones that can read 0, and latencies, whose run-to-run spread on a shared
#: 2-core machine reaches the largest bound a gate may have (see README.md).
REPORT_ONLY = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "recent_acc": "fraction",
    "retained_acc": "fraction",
    "max_rps": "1/s",
    "error_rate": "fraction",
}

#: Per-layer metrics every workload reports with ``--trace 1`` (name ->
#: unit); a layer a workload bypasses reads 0.
PER_LAYER = {
    "datasets.generate_s": "s/sample",
    "encoding.encode_s": "s/sample",
    "encoding.input_spikes_per_sample": "count",
    "snn.run_sample_s": "s/sample",
    "snn.run_batch_s": "s/sample",
    "snn.run_events_s": "s/sample",
    "snn.propagate_s": "s/sample",
    "snn.integrate_s": "s/sample",
    "snn.loop_self_s": "s/sample",
    "snn.steps": "count",
    "snn.exc_spikes_per_sample": "count",
    "snn.counter_calls": "count",
    "snn.counter_s": "s/sample",
    "ops.synaptic_events": "count",
    "ops.neuron_updates": "count",
    "ops.exponential_ops": "count",
    "ops.trace_updates": "count",
    "ops.weight_updates": "count",
    "ops.spike_events": "count",
    "learning.step_s": "s/sample",
    "learning.sample_end_s": "s/sample",
    "learning.depress_window_share": "fraction",
    "evaluation.assign_s": "s/sample",
    "evaluation.predict_s": "s/sample",
    "events.skipped_ratio": "fraction",
    "events.events_processed": "count",
    "events.silence_check_s": "s/sample",
    "events.advance_s": "s/sample",
    "server.http_self_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.batch_size_mean": "count",
    "shards.rpc_self_ms": "ms",
    "serving.encode_ms": "ms",
    "serving.kernel_ms": "ms",
    "ledger.bytes_per_request": "bytes",
    "serving.rejected": "count",
    "shards.respawns": "count",
    "loadgen.lag_p90_ms": "ms",
    "trace.overhead_pct": "%",
}

WORKLOADS = ("continual", "infer", "serve", "events")


#: Where a traced run writes its spans, relative to the checkout.
TRACE_DIR = ".perfbench-out"


def save_spans(outcome, stem: Path) -> None:
    """Write the run's spans: the benchmark's own (name, start, end, parent
    arrays) and, for serve, the server's span records from its ledger."""
    stem.parent.mkdir(exist_ok=True)
    if outcome.spans is not None:
        outcome.spans.save(f"{stem}-spans.npz")
    if outcome.server_spans:
        with open(f"{stem}-server-spans.jsonl", "w") as out:
            for record in outcome.server_spans:
                out.write(json.dumps(record) + "\n")


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    # A terminated run still unwinds, so the serve workload stops its server
    # (which runs in its own session) before exiting; a second SIGTERM must
    # not cut that clean-up short.
    def terminate(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    # Before numpy is first imported, so its BLAS pool starts at this size.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "serve":
        import serve as module
        run = module.serve
    else:
        import engine as module
        run = getattr(module, args.workload)

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), workdir,
                      peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if outcome.spans is not None or outcome.server_spans:
        save_spans(outcome, ROOT / TRACE_DIR / f"{args.workload}-seed{args.seed}")

    tally = outcome.tally
    values = dict(outcome.e2e, error_rate=tally.error_rate)
    units = dict(END_TO_END, **REPORT_ONLY)
    report = {
        "environment": environment(args.workload, args.seed, args.seconds,
                                   bool(args.trace)),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "layers": outcome.layers,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "details": outcome.report,
    }
    print(json.dumps(report, default=float))
    chosen = PER_LAYER if args.trace else END_TO_END
    source = outcome.layers if args.trace else outcome.e2e
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(source[name]), "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
