"""The ``serve`` workload: open-loop HTTP load against ``repro serve``.

A 784x100 artifact is trained during set-up and served by ``repro serve
--shards 2`` with the ledger on (in the run's scratch directory) and tracing
off.  The generator sends from one process with at most
:data:`IN_FLIGHT` requests in flight, on a seeded Poisson schedule at each
rate of :data:`LADDER`, and times every request from when it was due.
The gated rate comes from a closed loop on one connection, run in
:data:`CLOSED_SEGMENTS` segments spread over the run; capacity on
:data:`IN_FLIGHT` connections is reported beside it.
Serving layers are read from the client side, from ``/v1/metrics.json``,
and, in the traced run, from the spans the server writes to its ledger.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import engine
from benchlib import (
    Rung,
    Tally,
    chunk_rates,
    closed_loop_rate,
    latency_summary,
    poisson_schedule,
    run_closed_loop,
    run_ladder,
    run_open_loop,
    self_times,
    supported_percentile,
    top_passing,
)
from repro.client import ServingClient, ServingClientError
from repro.core.config import SpikeDynConfig
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.models.spikedyn_model import SpikeDynModel
from repro.observability.ledger import RunLedger
from repro.observability.trace_view import build_trace_tree
from repro.serving.artifacts import load_artifact
from repro.serving.inference import offline_predictions

N_EXC = 100
SHARDS = 2
MODEL = "bench"
#: Requests in flight at most: one sender thread per core of the dev box.
IN_FLIGHT = 2
#: Offered rates (requests/s); the first is the light rate p50/p90 are read at.
LADDER = (15.0, 30.0, 40.0, 50.0, 60.0)
#: p90 latency limit (from due time) a rung must meet to pass.
LIMIT_MS = 150.0
#: Requests per rung at least: p90 then has 10 requests beyond it.
RUNG_REQUESTS = 100
#: Segments the gated closed loop is split into, one before the light rung,
#: the lock-step loop, the ladder and the end of the run each.
CLOSED_SEGMENTS = 4
#: Distinct (image, encoding seed) pairs the load phases draw from.
REQUEST_PAIRS = 200
TRAIN_PER_CLASS = 1
ASSIGN_PER_CLASS = 2
EVAL_PER_CLASS = 4
POOL_PER_CLASS = 6
SETUPS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
REQUEST_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def _default_sigint() -> None:
    """Let SIGINT reach the server even when this benchmark was started
    with it ignored (as a shell does for background jobs): the server
    drains and stops its shards on SIGINT only."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro serve`` process (its shards are its own children)."""

    def __init__(self, artifact: Path, ledger: Path, log: Path) -> None:
        self.artifact = artifact
        self.ledger = ledger
        self.log_path = log
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_TRACE", None)
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             f"{MODEL}={artifact}", "--port", "0", "--shards", str(SHARDS),
             "--ledger-dir", str(ledger)],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True, preexec_fn=_default_sigint,
        )
        self.url = self._wait_for_port()
        self.client = ServingClient(self.url, timeout=REQUEST_TIMEOUT_S, retries=0)
        self._wait_for_shards()

    def _wait_for_port(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return f"http://{match.group(1)}:{match.group(2)}"
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n{self.log_path.read_text()}")

    def _wait_for_shards(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                health = self.client.health(MODEL)
                if health.get("status") == "ok" and all(health.get("shard_pids") or [None]):
                    self.shard_pids = list(health["shard_pids"])
                    return
            except ServingClientError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve shards did not become healthy")

    def peak_rss_mb(self) -> float:
        """Largest peak RSS (VmHWM) of the server and its shard processes."""
        peaks = [0.0]
        for pid in [self.process.pid, *self.shard_pids]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                peaks.append(int(match.group(1)) / 1024.0)
        return max(peaks)

    def stop(self) -> None:
        """Ask the server to drain and exit; kill its process group if not."""
        if self._log.closed:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()


def ledger_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("*") if path.is_file())


def serving_layers(ledger: Path, trace_ids: Sequence[str]):
    """Per-request self times of the server's spans, rebuilt from its ledger.

    Each span's self time is its duration minus its children's; the values
    are means over the traced requests, in ms.  Returns the span records
    and the metrics.
    """
    wanted = set(trace_ids)
    by_trace: Dict[str, List[dict]] = {}
    for entry in RunLedger(ledger).entries(kind="span"):
        if entry.get("trace_id") in wanted:
            by_trace.setdefault(entry["trace_id"], []).append(entry)
    totals: Dict[str, float] = {}
    for records in by_trace.values():
        nodes = [node for root in build_trace_tree(records) for node in root.walk()]
        index = {id(node): i for i, node in enumerate(nodes)}
        parents = np.full(len(nodes), -1)
        for node in nodes:
            for child in node.children:
                parents[index[id(child)]] = index[id(node)]
        own = self_times([node.duration_ms for node in nodes], parents)
        for node, value in zip(nodes, own):
            totals[node.name] = totals.get(node.name, 0.0) + float(value)
    n = max(1, len(by_trace))
    records = [record for trace in by_trace.values() for record in trace]
    return records, {
        "traced_requests": len(by_trace),
        "server.http_self_ms": totals.get("http_request", 0.0) / n,
        "serving.queue_wait_ms": totals.get("queue_wait", 0.0) / n,
        "shards.rpc_self_ms": totals.get("shard_rpc", 0.0) / n,
        "serving.encode_ms": totals.get("encode", 0.0) / n,
        "serving.kernel_ms": totals.get("kernel", 0.0) / n,
    }


def serve(seed: int, seconds: float, trace: bool, workdir: Path,
          peak_rss_mb) -> engine.Outcome:
    config = SpikeDynConfig(n_exc=N_EXC, seed=engine.DATA_SEED)
    source = SyntheticDigits(28, seed=engine.DATA_SEED)
    data = np.random.default_rng([engine.DATA_SEED, 7])
    train, _ = engine.class_images(source, TRAIN_PER_CLASS, data)
    assign, assign_labels = engine.class_images(source, ASSIGN_PER_CLASS, data)
    eval_images, eval_labels = engine.class_images(source, EVAL_PER_CLASS, data)
    pool, _ = engine.class_images(source, POOL_PER_CLASS, data)

    # Requests: the fixed evaluation set with fixed encoding seeds (warm-up
    # and served accuracy), then pairs of a pool image and an encoding seed,
    # both drawn from the run seed.  Every phase draws from the same pairs,
    # so one offline reference run checks every served prediction.
    draws = np.random.default_rng([seed, 3])
    images = [*eval_images, *pool[draws.integers(len(pool), size=REQUEST_PAIRS)]]
    seeds = [*range(len(eval_images)),
             *(int(s) for s in draws.integers(1 << 31, size=REQUEST_PAIRS))]
    # Phase lengths follow --seconds: the gated closed loop takes half of
    # it (in CLOSED_SEGMENTS parts), the light rung a third and the
    # lock-step closed loop a sixth.
    light_requests = max(RUNG_REQUESTS, round(seconds * LADDER[0] / 3.0))

    servers: List[Server] = []

    def setup() -> Server:
        index = len(servers)
        trainer = SpikeDynModel(config)
        trainer.train_batch(list(train))
        trainer.assign_labels(list(assign), assign_labels)
        artifact = trainer.save(workdir / f"artifact-{index}")
        ledger = workdir / f"ledger-{index}"
        ledger.mkdir()
        servers.append(Server(artifact, ledger, workdir / f"serve-{index}.log"))
        return servers[-1]

    tally = Tally()
    served: List[tuple] = []  # (pair index, prediction)

    def phase(server: Server, pairs: Sequence[int], due: Optional[Sequence[float]] = None,
              closed_s: float = 0.0, trace_prefix: Optional[str] = None,
              connections: int = IN_FLIGHT):
        """Send request ``i`` for pair ``pairs[i]`` at ``due[i]`` (open loop),
        or else on a closed loop over ``connections`` for ``closed_s``
        seconds (pairs cycle); returns the records."""
        def send(i: int) -> int:
            trace_id = f"{trace_prefix}-{i}" if trace_prefix else None
            pair = int(pairs[i % len(pairs)])
            body = server.client.predict(images[pair].ravel(), seed=seeds[pair],
                                         model=MODEL, trace_id=trace_id)
            return int(body["prediction"])

        records = (run_open_loop(send, due, IN_FLIGHT) if due is not None
                   else run_closed_loop(send, connections, closed_s))
        tally.operations(len(records), [r.error for r in records if not r.ok])
        served.extend((int(pairs[r.index % len(pairs)]), r.result)
                      for r in records if r.ok)
        return records

    def drawn_pairs(n: int) -> np.ndarray:
        return len(eval_images) + draws.integers(REQUEST_PAIRS, size=n)

    def rung(server: Server, rate: float, n: int, trace_prefix=None) -> Rung:
        due = poisson_schedule(rate, n, draws)
        return Rung(rate=rate, records=phase(server, drawn_pairs(n), due,
                                             trace_prefix=trace_prefix),
                    limit_ms=LIMIT_MS)

    def batches_by_shard(server: Server) -> Dict[str, int]:
        shards = server.client.metrics_json()["models"][MODEL].get("shards", {})
        return shards.get("batches_by_shard", {})

    try:
        setups_s = []
        for _ in range(SETUPS):
            if servers:
                servers[-1].stop()
            started = time.perf_counter()
            server = setup()
            setups_s.append(time.perf_counter() - started)
        warm = phase(server, range(len(eval_images)), np.zeros(len(eval_images)))
        accuracy = float(np.mean([r.ok and r.result == label
                                  for r, label in zip(warm, eval_labels)]))
        # Gated rate: one sender sends its next request as soon as its
        # previous one is answered, so one process at a time does the work,
        # as in the engine workloads.  On more connections the client,
        # server and both shards compete for the cores, and the rate then
        # drops by a third whenever another tenant takes one of two cores.
        def closed_segment() -> list:
            return phase(server, drawn_pairs(REQUEST_PAIRS),
                         closed_s=seconds / 2.0 / CLOSED_SEGMENTS, connections=1)

        closed = [] if trace else [closed_segment()]
        before = ledger_bytes(server.ledger)
        light = rung(server, LADDER[0], light_requests)
        bytes_per_request = (ledger_bytes(server.ledger) - before) / len(light.records)
        if trace:
            traced = rung(server, LADDER[0], light_requests, f"pb{seed}")
        else:
            closed.append(closed_segment())
            # Capacity on IN_FLIGHT connections (report only).  The two
            # senders can lock in step: both answers of a micro-batch of 2
            # return together, both next requests join one micro-batch
            # again, and one shard runs it while the other idles.  This
            # server behaviour makes capacity bimodal.
            batches_before = batches_by_shard(server)
            lockstep = phase(server, drawn_pairs(REQUEST_PAIRS), closed_s=seconds / 6.0)
            batches_after = batches_by_shard(server)
            closed.append(closed_segment())
            ladder = [light] + (
                run_ladder(LADDER[1:], lambda r: rung(server, r, RUNG_REQUESTS).records,
                           LIMIT_MS) if light.passed else [])
            closed.append(closed_segment())
        metrics = server.client.metrics_json()["models"][MODEL]
        server_rss = server.peak_rss_mb()
    finally:
        for started in servers:
            started.stop()

    # Every served prediction must equal the offline reference for the same
    # (image, seed, artifact).  Its operation counts give the energy.
    # The fixed evaluation set alone gives the energy and ops.* figures.
    reference = load_artifact(servers[-1].artifact).build_model()
    n_eval = len(eval_images)
    expected_eval, fixed = engine.fixed_evaluation(
        reference, lambda model: offline_predictions(model, images[:n_eval],
                                                     seeds[:n_eval]))
    offline_probe = engine.Probe(traced=trace)
    with offline_probe.attached(reference):
        expected = [*expected_eval, *offline_predictions(
            reference, images[n_eval:], seeds[n_eval:],
            batch_size=IN_FLIGHT if trace else None)]
    for pair, got in served:
        tally.check(got == int(expected[pair]),
                    f"served {got}, offline {int(expected[pair])}")

    light_latency = latency_summary([r.latency_s for r in light.answered])
    batch_hist = metrics.get("batch_size_histogram", {})
    e2e = {
        "setup_s": statistics.median(setups_s),
        "p50_ms": light_latency["p50_ms"],
        "p90_ms": light_latency["p90_ms"],
        "energy_mj_per_sample": engine.energy_mj(fixed.ops, fixed.samples),
        "accuracy": accuracy,
        "peak_rss_mb": server_rss,
    }
    report = {
        "backend": metrics.get("backend"), "size": f"784x{N_EXC}",
        "t_sim": config.t_sim, "shards": SHARDS, "in_flight_max": IN_FLIGHT,
        "batch_size_max": max((int(size) for size in batch_hist), default=0),
        "batch_size_histogram": batch_hist,
        "note": f"at most {IN_FLIGHT} requests in flight, so micro-batches "
                f"hold at most {IN_FLIGHT}",
        "setup_runs_s": setups_s, "requests_served": len(served),
        "light_rate": LADDER[0], "light_latency": light_latency,
        "light_lag_p90_ms": supported_percentile(
            [1000.0 * r.lag_s for r in light.records], 90.0),
        "benchmark_peak_rss_mb": peak_rss_mb(),
    }
    layers: Dict[str, float] = {}
    if not trace:
        e2e["samples_per_s"] = closed_loop_rate(closed)
        top = top_passing(ladder)
        e2e["max_rps"] = top.rate if top else 0.0
        report.update({
            "closed_loop": {"requests": sum(map(len, closed)), "connections": 1,
                            "segments": CLOSED_SEGMENTS,
                            "samples_per_s": "median of the segments' rates over "
                                             "runs of 10 answers",
                            "unit_rates": [chunk_rates(records) for records in closed]},
            "lockstep_closed_loop": {
                "requests": len(lockstep), "connections": IN_FLIGHT,
                "samples_per_s": closed_loop_rate([lockstep]),
                "batches_by_shard": {shard: count - batches_before.get(shard, 0)
                                     for shard, count in batches_after.items()},
            },
            "limit_ms": LIMIT_MS, "requests_per_rung": RUNG_REQUESTS,
            "rungs": [{"rate": r.rate, "passed": r.passed, "p90_ms": r.p90_ms,
                       "backlog_growing": r.backlog_growing, "failed": r.failed,
                       "achieved_rps": r.achieved_rps,
                       "latency": latency_summary([x.latency_s for x in r.answered]),
                       "lag_p90_ms": supported_percentile(
                           [1000.0 * x.lag_s for x in r.records], 90.0)}
                      for r in ladder],
        })
    else:
        # Engine layers cannot be wrapped inside the shard processes; they
        # are read from the offline reference run at the served batch size.
        layers = engine.layer_metrics(offline_probe, fixed)
        server_spans, spans = serving_layers(
            server.ledger, [f"pb{seed}-{i}" for i in range(len(traced.records))])
        report["traced_requests"] = spans.pop("traced_requests")
        layers.update(spans)
        traced_latency = latency_summary([r.latency_s for r in traced.answered])
        layers.update({
            "serving.batch_size_mean": float(metrics.get("mean_batch_size", 0.0)),
            "ledger.bytes_per_request": bytes_per_request,
            "serving.rejected": float(metrics.get("rejected_total", 0)
                                      + metrics.get("shed_total", 0)
                                      + metrics.get("rate_limited_total", 0)),
            "shards.respawns": float(metrics.get("shards", {}).get("respawns_total", 0)),
            "loadgen.lag_p90_ms": report["light_lag_p90_ms"] or 0.0,
            "trace.overhead_pct": 100.0 * (traced_latency["p50_ms"]
                                           / light_latency["p50_ms"] - 1.0),
        })
    return engine.Outcome(e2e=e2e, layers=layers, tally=tally, report=report,
                          spans=offline_probe.spans,
                          server_spans=server_spans if trace else [])
