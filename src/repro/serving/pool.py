"""Serving pool: one micro-batching front half over per-worker executors.

:class:`ServingPool` owns what every pool does: the
:class:`~repro.serving.batcher.MicroBatcher` that ``submit`` feeds, request
validation, the lifecycle, one dispatch thread per executor, and the
per-batch bookkeeping (``queue_wait`` spans, futures, metrics, drift and the
``serving_batch`` entry, written through one ledger ``SpanBuffer`` per
batch).  Where a batch runs is the executor's business; two constructors
pick one:

* :class:`ReplicaPool` — in-thread executors, each owning an independent
  :class:`~repro.serving.inference.PredictionService` replica (own network,
  weights and adaptation state, so replicas never share mutable simulation
  state).  The batched hot path runs inside GIL-releasing numpy calls, so
  replicas overlap on multi-core hosts and degrade to a fair queue on one;
* :class:`~repro.serving.shards.ShardProcessPool` — supervised worker
  processes behind pipes (crash detection, respawn and one retry).
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.models.base import UnsupervisedDigitClassifier
from repro.observability.ledger import (
    KIND_SERVING_BATCH,
    RunLedger,
    SpanBuffer,
    artifact_lineage,
)
from repro.observability.structlog import get_struct_logger
from repro.observability.tracing import record_span
from repro.serving.artifacts import ModelArtifact
from repro.serving.batcher import MicroBatcher, PendingRequest
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import PredictionService, PredictRequest, PredictResult
from repro.serving.metrics import ServingMetrics
from repro.utils.validation import check_positive_int

_log = get_struct_logger("serving.pool")


class BatchExecutor:
    """Where one pool worker runs its micro-batches.  ``tags`` are stamped on
    its ``queue_wait`` spans, ``serving_batch`` entries and failure logs."""

    tags: Dict[str, int] = {}

    def start(self) -> None:
        """Begin bringing the executor up (may return before it is ready)."""

    def wait_ready(self) -> None:
        """Block until :meth:`run` can be called."""

    def stop(self) -> None:
        """Release whatever :meth:`start` acquired."""

    def run(self, batch: Sequence[PendingRequest],
            traced: Sequence[PendingRequest],
            spans: Optional[SpanBuffer]) -> List[PredictResult]:
        """Results for one micro-batch, in request order.

        The executor records its own spans for the ``traced`` requests into
        ``spans``, the batch's ledger buffer.  Raising fails the whole
        batch: ``ShardCrashedError`` is ledgered as ``crashed``, anything
        else as ``error``.
        """
        raise NotImplementedError


class ReplicaExecutor(BatchExecutor):
    """In-thread executor: batches run on its own model replica."""

    def __init__(self, service: PredictionService) -> None:
        self.service = service

    def run(self, batch, traced, spans):
        started = time.perf_counter()
        for pending in traced:
            # The serve phase gets its own span the encode/kernel spans
            # parent under.
            pending.request.trace = pending.trace.child()
        fields: Dict[str, object] = {"batch_size": len(batch)}
        previous_sink, self.service.span_sink = self.service.span_sink, spans
        try:
            return self.service.predict_batch([p.request for p in batch])
        except Exception as error:
            fields["error"] = str(error)
            raise
        finally:
            self.service.span_sink = previous_sink
            for pending in traced:
                record_span(spans, pending.request.trace, "serve_batch",
                            time.perf_counter() - started, **fields)


class ServingPool:
    """Micro-batching inference pool driving one executor per worker.

    Build one through :class:`ReplicaPool` (worker threads) or
    :class:`~repro.serving.shards.ShardProcessPool` (worker processes); the
    constructors document the knobs.  ``n_input``, ``model_name`` and
    ``backend_name`` describe the served model: the input size every
    request image must match, and the model and compute backend reported in
    ``/metrics`` and stamped on ledger entries.
    """

    def __init__(self, executors: Sequence[BatchExecutor], *, n_input: int,
                 model_name: str, backend_name: str, max_batch: int,
                 max_wait_ms: float, max_queue: int,
                 metrics: Optional[ServingMetrics],
                 drift_detector: Optional[SpikeCountDriftDetector],
                 ledger: Optional[RunLedger], lineage: dict) -> None:
        self.executors = list(executors)
        self.n_input = n_input
        self.model_name = model_name
        self.backend_name = backend_name
        self.batcher = MicroBatcher(max_batch=max_batch, max_wait_ms=max_wait_ms,
                                    max_queue=max_queue)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.drift_detector = drift_detector
        self.ledger = ledger
        self.lineage = lineage
        self._threads: List[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of executors (= concurrently served micro-batches)."""
        return len(self.executors)

    @property
    def queue_depth(self) -> int:
        return self.batcher.depth

    @property
    def running(self) -> bool:
        with self._lock:
            return self._started

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingPool":
        """Bring every executor up and start dispatching (idempotent while
        running).

        A stopped pool cannot be restarted: its queue is permanently
        closed, so a second ``start()`` would report healthy workers that
        all exit immediately.  Build a fresh pool instead.
        """
        if self.batcher.closed:
            raise RuntimeError(
                "this pool has been stopped and cannot be restarted; "
                f"build a new {type(self).__name__}"
            )
        with self._lock:
            if self._started:
                return self
            self._started = True
        # Start every executor before waiting on any, so expensive
        # start-ups (interpreter spawns) overlap instead of serializing.
        for executor in self.executors:
            executor.start()
        for executor in self.executors:
            executor.wait_ready()
        for index, executor in enumerate(self.executors):
            thread = threading.Thread(
                target=self._dispatch_loop, args=(executor,),
                name=f"repro-serve-worker-{index}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        _log.info("pool_started", pool=type(self).__name__,
                  workers=self.workers, model=self.model_name,
                  backend=self.backend_name, max_batch=self.batcher.max_batch)
        return self

    def stop(self, timeout: float = 10.0, cancel_pending: bool = False) -> None:
        """Close the queue, drain (or cancel) pending work, join the
        dispatchers, and stop every executor."""
        self.batcher.close(cancel_pending=cancel_pending)
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
        with self._lock:
            self._started = False
        for executor in self.executors:
            executor.stop()

    def __enter__(self) -> "ServingPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(self, image: np.ndarray, seed: Optional[int] = None) -> Future:
        """Enqueue one request; the future resolves to a ``PredictResult``.

        A malformed image (wrong size, non-finite or negative intensities)
        raises ``ValueError`` here, so the error stays with the offending
        request instead of failing a whole micro-batch in a worker.  Raises
        :class:`~repro.serving.batcher.QueueFullError` under backpressure
        and :class:`~repro.serving.batcher.QueueClosedError` after
        :meth:`stop`.  Every refusal is counted as rejected.
        """
        image = np.asarray(image, dtype=float)
        if image.size != self.n_input:
            raise self._rejected(f"image has {image.size} pixels but the model "
                                 f"expects {self.n_input}")
        if not np.all(np.isfinite(image)):
            raise self._rejected("image intensities must be finite")
        if np.any(image < 0):
            raise self._rejected("image intensities must be non-negative")
        try:
            future = self.batcher.submit(PredictRequest(image=image, seed=seed))
        except Exception:
            self.metrics.record_rejected()
            raise
        self.metrics.record_request()
        return future

    def _rejected(self, message: str) -> ValueError:
        self.metrics.record_rejected()
        return ValueError(message)

    def predict(self, image: np.ndarray, seed: Optional[int] = None,
                timeout: Optional[float] = None) -> PredictResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        On timeout the request is cancelled (best effort), so an abandoned
        caller does not keep consuming worker compute.
        """
        future = self.submit(image, seed=seed)
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def metrics_snapshot(self) -> dict:
        """Current metrics, including queue depth, drift state, and backend."""
        drift = (self.drift_detector.state()
                 if self.drift_detector is not None else None)
        snapshot = self.metrics.snapshot(queue_depth=self.queue_depth,
                                         drift=drift)
        snapshot["backend"] = self.backend_name
        snapshot["model"] = self.model_name
        return snapshot

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self, executor: BatchExecutor) -> None:
        """Claim batches until the batcher is closed and drained; a failing
        batch never takes the loop (and therefore the listener) down."""
        while True:
            batch = self.batcher.next_batch(timeout=0.1)
            if batch is None:
                return
            if batch:
                self._serve_batch(executor, batch)

    def _serve_batch(self, executor: BatchExecutor,
                     batch: Sequence[PendingRequest]) -> None:
        claimed = time.perf_counter()
        # Every ledger record of this batch — spans and the serving_batch
        # entry alike — goes through one buffer and lands in a single file
        # append on flush, so tracing adds serialized bytes to a write the
        # untraced path performs anyway, not extra syscalls per span.
        spans = SpanBuffer(self.ledger) if self.ledger is not None else None
        traced: List[PendingRequest] = []
        if spans is not None:
            traced = [pending for pending in batch if pending.trace is not None]
            for pending in traced:
                # Timed from the submit-side enqueue stamp.
                record_span(spans, pending.trace.child(), "queue_wait",
                            claimed - pending.enqueued_at, **executor.tags,
                            batch_size=len(batch))
        outcome, latencies, error = "ok", [], None
        try:
            results = executor.run(batch, traced, spans)
        except Exception as failure:  # noqa: BLE001 - fanned out to callers
            outcome = "crashed" if isinstance(failure, ShardCrashedError) else "error"
            results, error = [None] * len(batch), failure
            self.metrics.record_errors(len(batch))
            _log.error("batch_failed", **executor.tags, size=len(batch),
                       outcome=outcome, error=str(failure))
        else:
            finished = time.perf_counter()
            latencies = [finished - pending.enqueued_at for pending in batch]
            self.metrics.record_batch(len(batch), latencies)
        for pending, result in zip(batch, results):
            _resolve(pending.future, result, error)
        if spans is not None:
            entry = {
                "kind": KIND_SERVING_BATCH,
                "outcome": outcome,
                "batch_size": len(batch),
                "backend": self.backend_name,
                "model": self.model_name,
                **executor.tags,
                **self.lineage,
            }
            if latencies:
                entry["latency_mean_ms"] = round(1000.0 * sum(latencies) / len(latencies), 3)
                entry["latency_max_ms"] = round(1000.0 * max(latencies), 3)
            if error is not None:
                entry["error"] = str(error)
            spans.append(entry)
            spans.flush()
        if self.drift_detector is not None and error is None:
            for result in results:
                self.drift_detector.observe(result.spike_count)


def _resolve(future: Future, result=None, error=None) -> None:
    """Set a future's outcome, tolerating a concurrent ``cancel()``: these
    futures never enter RUNNING, so a caller's timeout can cancel one at any
    moment before the worker sets it — the caller is gone, the worker must
    not die."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class ReplicaPool(ServingPool):
    """Micro-batching inference pool over ``workers`` in-thread replicas.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building one independent model replica;
        called once per worker.  Use :meth:`from_artifact` for the common
        case.
    workers:
        Number of worker threads (= replicas, exposed as ``replicas``).
    max_batch, max_wait_ms, max_queue:
        Micro-batcher knobs (see :class:`~repro.serving.batcher.
        MicroBatcher`).
    metrics:
        Shared metrics sink; created on demand when omitted.
    drift_detector:
        Optional online drift monitor fed every request's spike count.
    ledger:
        Optional persistent :class:`~repro.observability.ledger.RunLedger`.
        Every executed micro-batch is appended as a ``serving_batch`` entry
        carrying the deployment's lineage (see ``lineage``) plus size,
        latency, and outcome.  ``None`` (the default — benchmarks and tests
        construct pools directly) disables recording; ``repro serve``
        attaches the default ledger.
    lineage:
        Extra lineage fields stamped on every ledger entry (artifact
        name/version, config hash, ...).  :meth:`from_artifact` fills this
        from the artifact automatically.
    """

    def __init__(self, model_factory: Callable[[], UnsupervisedDigitClassifier],
                 workers: int = 2, *, max_batch: int = 32,
                 max_wait_ms: float = 5.0, max_queue: int = 1024,
                 metrics: Optional[ServingMetrics] = None,
                 drift_detector: Optional[SpikeCountDriftDetector] = None,
                 ledger: Optional[RunLedger] = None,
                 lineage: Optional[dict] = None) -> None:
        workers = check_positive_int(workers, "workers")
        self.replicas: List[PredictionService] = [
            PredictionService(model_factory(), span_sink=ledger)
            for _ in range(workers)
        ]
        model = self.replicas[0].model
        super().__init__(
            [ReplicaExecutor(service) for service in self.replicas],
            n_input=model.n_input, model_name=model.name,
            backend_name=model.backend_name, max_batch=max_batch,
            max_wait_ms=max_wait_ms, max_queue=max_queue, metrics=metrics,
            drift_detector=drift_detector, ledger=ledger,
            lineage=dict(lineage or {}),
        )

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact, workers: int = 2, *,
                      backend: Optional[str] = None, **kwargs) -> "ReplicaPool":
        """Pool whose replicas are independent reconstructions of ``artifact``.

        ``backend`` overrides the compute backend every replica runs on
        (default: the backend recorded in the artifact).  The artifact's
        lineage (name, version, config hash, backend) is attached to the
        pool so ledger entries can attribute every batch to it.
        """
        lineage = artifact_lineage(artifact)
        if backend is not None:
            lineage["backend"] = backend
        kwargs.setdefault("lineage", lineage)
        return cls(functools.partial(artifact.build_model, backend=backend),
                   workers, **kwargs)
