"""Process executors: crash-isolated shard workers behind one queue.

:class:`ShardProcessPool` is the process-backed constructor of
:class:`~repro.serving.pool.ServingPool`.  Each :class:`ShardExecutor` is an
OS process (``spawn`` start method, as in :mod:`repro.runner.scheduler`)
owning a model replica rebuilt from the artifact directory, so throughput
scales with cores instead of stopping at the GIL.  The executor
round-trips each micro-batch over a duplex pipe and supervises its process:
a shard that dies mid-batch (killed, segfaulted, OOM) or misses the batch
deadline is **respawned without dropping the listener**, and the batch is
retried once before any caller sees a
:class:`~repro.serving.errors.ShardCrashedError` (which the router retries
as transient anyway).  Spawn/crash/respawn/stop transitions are ledgered as
``serving_shard`` entries, so a deployment's churn is auditable.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import Dict, List, Optional

import numpy as np

from repro.observability.ledger import (
    KIND_SERVING_SHARD,
    RunLedger,
    SpanBuffer,
    artifact_lineage,
)
from repro.observability.structlog import configure_from_env, get_struct_logger
from repro.observability.tracing import TraceContext, record_span
from repro.serving.artifacts import ModelArtifact, load_artifact
from repro.serving.drift import SpikeCountDriftDetector
from repro.serving.errors import ShardCrashedError
from repro.serving.inference import PredictionService, PredictRequest, PredictResult
from repro.serving.metrics import ServingMetrics
from repro.serving.pool import BatchExecutor, ServingPool
from repro.utils.validation import check_positive_int

_log = get_struct_logger("serving.shards")

#: Seconds a freshly spawned shard gets to load its artifact and report ready.
DEFAULT_SPAWN_TIMEOUT_S = 120.0

#: Wall-clock budget of one micro-batch round-trip before the shard is
#: declared hung, killed, and respawned.
DEFAULT_BATCH_TIMEOUT_S = 120.0

#: Poll granularity of the executor's pipe waits.
_POLL_S = 0.1

_SPAWN = multiprocessing.get_context("spawn")


def _shard_main(artifact_dir: str, backend: Optional[str],
                conn: "multiprocessing.connection.Connection",
                shard_index: int, ledger_root: Optional[str] = None) -> None:
    """Worker-process entry point: load the artifact, answer predict RPCs.

    Protocol (parent -> child / child -> parent), one message per batch:

    * ``("predict", [(image, seed, trace), ...])`` -> ``("ok", [result,
      ...])`` or ``("error", "message")`` — a raising batch reports instead
      of dying.  ``trace`` is the request's serialized
      :class:`~repro.observability.tracing.TraceContext` (``None`` when the
      request is untraced);
    * ``("stop",)`` -> the child exits cleanly (no reply).

    On start the child sends one ``("ready", info)`` message after the model
    is rebuilt, so the parent can distinguish a slow load from a crash.
    ``ledger_root`` points the worker at the parent's ledger directory so
    worker-side spans (``shard_batch``, ``encode``, ``kernel``) land in the
    same trace store as the parent's: one append per traced batch, made
    before the reply, so they are on disk when the caller's future resolves.
    """
    configure_from_env()
    log = get_struct_logger("serving.shard").bind(shard=shard_index)
    try:
        artifact = load_artifact(artifact_dir)
        model = artifact.build_model(backend=backend)
        span_ledger = RunLedger(ledger_root) if ledger_root else None
        service = PredictionService(model)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("failed", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        return
    conn.send(("ready", {
        "model": model.name,
        "backend": model.backend_name,
        "n_input": service.n_input,
    }))
    log.info("shard_ready", model=model.name, backend=model.backend_name)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        if message[0] != "predict":  # pragma: no cover - protocol guard
            conn.send(("error", f"unknown message {message[0]!r}"))
            continue
        requests, traced = [], []
        for image, seed, trace in message[1]:
            request = PredictRequest(image=np.asarray(image, dtype=float),
                                     seed=seed)
            if trace is not None and span_ledger is not None:
                # Child of the parent-side shard_rpc span: the worker's
                # whole batch phase, under which encode/kernel nest.
                request.trace = TraceContext.from_dict(trace).child()
                traced.append(request)
            requests.append(request)
        spans = service.span_sink = SpanBuffer(span_ledger) if traced else None
        batch_started = time.perf_counter()
        try:
            results = service.predict_batch(requests)
        except Exception as error:  # noqa: BLE001 - fanned back to callers
            reply = ("error", f"{type(error).__name__}: {error}")
        else:
            batch_s = time.perf_counter() - batch_started
            for request in traced:
                record_span(spans, request.trace, "shard_batch", batch_s,
                            shard=shard_index, batch_size=len(requests))
            reply = ("ok", [(r.prediction, r.seed, r.spike_count, r.scores)
                            for r in results])
        if spans is not None:
            spans.flush()
        conn.send(reply)


class _ShardHandle:
    """Parent-side view of one shard process: the process, its pipe end,
    and the batches it has answered."""

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 conn: "multiprocessing.connection.Connection") -> None:
        self.process = process
        self.conn = conn
        self.batches = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Close the pipe and reap the process, terminating it if needed."""
        self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
        self.process.join()


class ShardExecutor(BatchExecutor):
    """Process executor: one supervised shard process behind a duplex pipe.

    Only the executor's own dispatch thread drives :meth:`run`, so the
    handle swaps it makes need no lock; other threads only read ``handle``
    (health, metrics) and see either the old or the new process.
    """

    def __init__(self, pool: "ShardProcessPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.tags = {"shard": index}
        self.handle: Optional[_ShardHandle] = None
        self.respawns = 0

    @property
    def pid(self) -> Optional[int]:
        """PID of the live shard process, ``None`` while the slot is dead."""
        handle = self.handle
        return handle.process.pid if handle is not None and handle.alive else None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.handle = self._spawn()

    def wait_ready(self) -> None:
        # The slot stays empty until the shard reports ready.
        handle, self.handle = self.handle, None
        self._await_ready(handle)
        self.handle = handle

    def stop(self) -> None:
        handle, self.handle = self.handle, None
        if handle is None:
            return
        try:
            handle.conn.send(("stop",))
        except OSError:
            pass
        handle.process.join(2.0)
        handle.kill()
        self._record("stopped", handle.process.pid)

    # -- batches -------------------------------------------------------------

    def run(self, batch, traced, spans):
        payload = None if traced else [(p.request.image, p.request.seed, None) for p in batch]
        # One transparent retry on a fresh process: a batch interrupted by a
        # crash is usually served successfully by the respawned shard, so
        # callers only see ShardCrashedError when the failure repeats.
        for attempt in (0, 1):
            try:
                handle = self._live_handle()
            except ShardCrashedError as error:
                # The *replacement* failed to come up (the old death, if
                # any, was already ledgered by _retire).
                crash = error
                continue
            rpc_ctxs = None
            if traced:
                # Fresh span ids per attempt: a retried RPC is a *second*
                # span of the same trace, flagged retry=1 — the worker
                # inherits the flag, so its spans mark the retry too.
                rpc_ctxs = [p.trace.child(retry=attempt)
                            if p.trace is not None else None for p in batch]
                payload = [(p.request.image, p.request.seed,
                            ctx.to_dict() if ctx is not None else None)
                           for p, ctx in zip(batch, rpc_ctxs)]
            rpc_started = time.perf_counter()
            try:
                handle.conn.send(("predict", payload))
                reply = self._receive(handle, self.pool.batch_timeout_s,
                                      "mid-batch")
            except (ShardCrashedError, OSError, EOFError) as error:
                self._record_rpc(spans, rpc_ctxs, len(batch), rpc_started,
                                 error=str(error))
                self._retire(handle)
                crash = (error if isinstance(error, ShardCrashedError) else
                         ShardCrashedError(f"shard {self.index} died mid-batch ({error})"))
                continue
            self._record_rpc(spans, rpc_ctxs, len(batch), rpc_started)
            if reply[0] == "error":
                raise RuntimeError(reply[1])
            handle.batches += 1
            return [
                PredictResult(prediction=int(prediction), seed=int(seed),
                              spike_count=float(spike_count),
                              scores=np.asarray(scores))
                for prediction, seed, spike_count, scores in reply[1]
            ]
        raise crash

    def _record_rpc(self, spans, rpc_ctxs, size: int, started: float,
                    error: Optional[str] = None) -> None:
        """One ``shard_rpc`` span per traced request of the attempt."""
        if not rpc_ctxs:
            return
        duration_s = time.perf_counter() - started
        fields: Dict[str, object] = {"shard": self.index, "batch_size": size}
        if error is not None:
            fields["error"] = error
        for ctx in rpc_ctxs:
            record_span(spans, ctx, "shard_rpc", duration_s, **fields)

    # -- supervision ---------------------------------------------------------

    def _spawn(self) -> _ShardHandle:
        ledger = self.pool.ledger
        parent_conn, child_conn = _SPAWN.Pipe(duplex=True)
        process = _SPAWN.Process(
            target=_shard_main,
            args=(self.pool.artifact_dir, self.pool.backend, child_conn,
                  self.index, str(ledger.root) if ledger is not None else None),
            name=f"repro-shard-{self.index}", daemon=True,
        )
        process.start()
        child_conn.close()
        self._record("spawned", process.pid)
        return _ShardHandle(process, parent_conn)

    def _await_ready(self, handle: _ShardHandle) -> None:
        message = self._receive(handle, self.pool.spawn_timeout_s,
                                "during start-up")
        if message[0] != "ready":
            handle.kill()
            raise ShardCrashedError(
                f"shard {self.index} failed to load the artifact: {message[-1]}"
            )

    def _receive(self, handle: _ShardHandle, timeout_s: float, phase: str):
        """The shard's next message.  A shard that dies, or stays silent
        past ``timeout_s``, is killed and raises :class:`ShardCrashedError`."""
        deadline = time.monotonic() + timeout_s
        while not handle.conn.poll(_POLL_S):
            if not handle.alive:
                handle.kill()
                raise ShardCrashedError(
                    f"shard {self.index} died {phase} "
                    f"(exitcode {handle.process.exitcode})"
                )
            if time.monotonic() > deadline:
                handle.kill()
                raise ShardCrashedError(
                    f"shard {self.index} exceeded its {timeout_s:.0f} s "
                    f"deadline {phase} and was killed"
                )
        return handle.conn.recv()

    def _live_handle(self) -> _ShardHandle:
        """The live shard, respawning (and ledgering) a dead one first."""
        handle = self.handle
        if handle is not None and handle.alive:
            return handle
        if handle is not None:
            self._retire(handle)
        handle = self._spawn()
        self._await_ready(handle)
        self.handle = handle
        self.respawns += 1
        self._record("respawned", handle.process.pid)
        return handle

    def _retire(self, handle: _ShardHandle) -> None:
        """Empty the slot, record the death, and reap the dead process (an
        emptied slot alone would lose both)."""
        self.handle = None
        self._record("crashed", handle.process.pid)
        handle.kill()

    def _record(self, event: str, pid: Optional[int]) -> None:
        """Log a lifecycle transition and ledger it as ``serving_shard``."""
        log = _log.warning if event == "crashed" else _log.info
        log(f"shard_{event}", shard=self.index, pid=pid)
        pool = self.pool
        if pool.ledger is not None:
            pool.ledger.append({
                "kind": KIND_SERVING_SHARD,
                "event": event,
                "shard": self.index,
                "pid": pid,
                "model": pool.model_name,
                **pool.lineage,
            })


class ShardProcessPool(ServingPool):
    """Micro-batching inference pool sharded across worker processes.

    The :class:`~repro.serving.pool.ReplicaPool` surface with the in-thread
    replicas replaced by supervised worker processes.

    Parameters
    ----------
    artifact_dir:
        The artifact directory every shard rebuilds its replica from (the
        path crosses the process boundary, not the model).
    shards:
        Number of worker processes.
    backend:
        Compute-backend override for every shard (default: the artifact's).
    max_batch, max_wait_ms, max_queue:
        Micro-batcher knobs, identical to :class:`ReplicaPool`.
    spawn_timeout_s, batch_timeout_s:
        Supervision budgets: artifact-load deadline per spawn, round-trip
        deadline per batch (a shard past it is killed and respawned).
    metrics, drift_detector, ledger, lineage:
        As on :class:`ReplicaPool`; ledger entries additionally carry the
        shard index, and shard lifecycle transitions are recorded as
        ``serving_shard`` entries.
    """

    def __init__(self, artifact_dir, shards: int = 2, *,
                 backend: Optional[str] = None, max_batch: int = 32,
                 max_wait_ms: float = 5.0, max_queue: int = 1024,
                 spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
                 batch_timeout_s: float = DEFAULT_BATCH_TIMEOUT_S,
                 metrics: Optional[ServingMetrics] = None,
                 drift_detector: Optional[SpikeCountDriftDetector] = None,
                 ledger: Optional[RunLedger] = None,
                 lineage: Optional[dict] = None) -> None:
        self.artifact_dir = str(artifact_dir)
        self.shards = check_positive_int(shards, "shards")
        self.backend = backend
        # Validates the artifact in the parent at construction time, so a
        # broken path fails fast instead of inside the first spawn.
        self.artifact: ModelArtifact = load_artifact(self.artifact_dir)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.batch_timeout_s = float(batch_timeout_s)
        lineage = (dict(lineage) if lineage is not None
                   else artifact_lineage(self.artifact))
        if backend is not None:
            lineage["backend"] = backend
        super().__init__(
            [ShardExecutor(self, index) for index in range(self.shards)],
            n_input=self.artifact.n_input,
            model_name=self.artifact.model_name,
            backend_name=backend if backend is not None else self.artifact.backend,
            max_batch=max_batch, max_wait_ms=max_wait_ms, max_queue=max_queue,
            metrics=metrics, drift_detector=drift_detector, ledger=ledger,
            lineage=lineage,
        )

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact, shards: int = 2,
                      **kwargs) -> "ShardProcessPool":
        """Pool sharding ``artifact`` — mirrors ``ReplicaPool.from_artifact``.

        The artifact must still exist on disk at ``artifact.path``: unlike
        the thread pool, shard processes rebuild their replicas from the
        directory, not from the in-memory arrays.
        """
        return cls(artifact.path, shards, **kwargs)

    @property
    def respawns_total(self) -> int:
        return sum(executor.respawns for executor in self.executors)

    def shard_pids(self) -> List[Optional[int]]:
        """PID of every shard (``None`` for a currently-dead slot)."""
        return [executor.pid for executor in self.executors]

    def metrics_snapshot(self) -> dict:
        """Pool metrics plus the shard-supervision section."""
        snapshot = super().metrics_snapshot()
        handles = [executor.handle for executor in self.executors]
        snapshot["shards"] = {
            "count": self.shards,
            "alive": sum(1 for handle in handles
                         if handle is not None and handle.alive),
            "respawns_total": self.respawns_total,
            "batches_by_shard": {str(index): handle.batches
                                 for index, handle in enumerate(handles)
                                 if handle is not None},
        }
        return snapshot
