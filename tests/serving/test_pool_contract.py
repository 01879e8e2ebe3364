"""The serving-pool contract, checked on both executors.

``ReplicaPool`` (in-thread replicas) and ``ShardProcessPool`` (worker
processes) are two constructors of one pool, so every check here runs on
each: request validation, lifecycle, ``from_artifact``, the
``serving_batch`` ledger entry, the metrics and health shapes, and the
one-write-per-batch ledger path.  Only the process executor adds a shard
index, a ``shards`` metrics section and ``shard_pids`` in health.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from repro.observability.ledger import KIND_SERVING_BATCH, RunLedger, artifact_lineage
from repro.observability.trace_view import trace_spans
from repro.observability.tracing import TraceContext, trace_scope
from repro.serving.pool import ReplicaPool
from repro.serving.router import ModelRouter
from repro.serving.shards import ShardProcessPool, _shard_main

KINDS = ("thread", "process")

#: Spans one traced request leaves in the parent process, per executor.
PARENT_SPANS = {
    "thread": ("queue_wait", "serve_batch", "encode", "kernel"),
    "process": ("queue_wait", "shard_rpc"),
}


def _build(kind, artifact, **kwargs):
    if kind == "thread":
        return ReplicaPool.from_artifact(artifact, workers=1, **kwargs)
    return ShardProcessPool.from_artifact(artifact, shards=1, **kwargs)


@pytest.fixture(scope="module", params=KINDS)
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def served(kind, artifact, tmp_path_factory):
    """A started one-worker pool of ``kind`` writing to its own ledger; the
    long coalescing window lets four quick submissions share one batch."""
    ledger = RunLedger(tmp_path_factory.mktemp(f"contract-{kind}"))
    pool = _build(kind, artifact, max_batch=4, max_wait_ms=200.0, ledger=ledger)
    pool.start()
    yield pool, ledger
    pool.stop(cancel_pending=True)


@pytest.fixture
def ledger_calls(monkeypatch):
    """Every ``RunLedger.append``/``append_many`` call made in this process,
    as ``(method, [entry name or kind, ...])``."""
    calls = []
    append, append_many = RunLedger.append, RunLedger.append_many

    def label(entry):
        return entry.get("name", entry.get("kind"))

    def counting_append(self, entry, **fields):
        calls.append(("append", [label(entry)]))
        return append(self, entry, **fields)

    def counting_append_many(self, entries):
        calls.append(("append_many", sorted(label(entry) for entry in entries)))
        return append_many(self, entries)

    monkeypatch.setattr(RunLedger, "append", counting_append)
    monkeypatch.setattr(RunLedger, "append_many", counting_append_many)
    return calls


def _batch_entries(ledger, count, timeout_s=30.0):
    """The ledger's ``serving_batch`` entries once there are ``count``: the
    entry is written just after the batch's futures resolve."""
    deadline = time.monotonic() + timeout_s
    while True:
        entries = list(ledger.entries(kind=KIND_SERVING_BATCH))
        if len(entries) >= count or time.monotonic() > deadline:
            return entries
        time.sleep(0.02)


def _assert_entry_contract(entry, pool, artifact, outcome):
    assert entry["kind"] == KIND_SERVING_BATCH
    assert entry["outcome"] == outcome
    assert isinstance(entry["batch_size"], int) and entry["batch_size"] >= 1
    assert entry["backend"] == pool.backend_name == "dense"
    assert entry["model"] == pool.model_name == "spikedyn"
    for key, value in artifact_lineage(artifact).items():
        assert entry[key] == value
    if isinstance(pool, ShardProcessPool):
        assert entry["shard"] == 0
    else:
        assert "shard" not in entry


class TestSubmitValidation:
    def test_wrong_image_size_is_rejected_synchronously(self, served):
        pool, _ = served
        with pytest.raises(ValueError, match="pixels"):
            pool.submit(np.zeros(7))
        with pytest.raises(ValueError, match="pixels"):
            pool.submit(np.zeros(3))
        assert pool.metrics_snapshot()["rejected_total"] >= 1

    def test_negative_intensities_are_rejected_synchronously(
            self, served, request_images):
        """One bad image must not poison a whole micro-batch in a worker."""
        pool, _ = served
        bad = np.array(request_images[0], dtype=float)
        bad[0] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            pool.submit(bad)
        with pytest.raises(ValueError, match="non-negative"):
            pool.submit(np.full(pool.n_input, -1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_are_rejected_and_counted(self, served, value):
        pool, _ = served
        before = pool.metrics_snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                pool.predict(np.full(pool.n_input, value), timeout=30.0)
            image = np.zeros(pool.n_input)
            image[-1] = value
            with pytest.raises(ValueError, match="finite"):
                pool.submit(image)
        after = pool.metrics_snapshot()
        assert after["rejected_total"] == before["rejected_total"] + 2
        assert after["requests_total"] == before["requests_total"]


class TestLifecycle:
    def test_restarting_a_stopped_pool_is_refused(self, kind, artifact):
        """A stopped pool's queue is closed forever; a second start() must
        fail loudly instead of reporting healthy-but-dead workers."""
        pool = _build(kind, artifact)
        pool.start()
        pool.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            pool.start()

    def test_stopped_pool_cannot_restart(self, kind, artifact):
        pool = _build(kind, artifact, max_batch=2)
        pool.stop(cancel_pending=True)  # never started: close is still legal
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            pool.start()

    def test_from_artifact(self, kind, artifact, serving_config):
        pool = _build(kind, artifact)
        assert not pool.running
        assert pool.workers == 1
        assert pool.n_input == serving_config.n_input
        assert pool.model_name == "spikedyn"
        assert pool.backend_name == "dense"
        assert pool.lineage == artifact_lineage(artifact)
        if kind == "process":
            assert pool.artifact_dir == str(artifact.path)
        sparse = _build(kind, artifact, backend="sparse")
        assert sparse.backend_name == "sparse"
        assert sparse.lineage["backend"] == "sparse"


class TestLedgerContract:
    def test_ok_batch_entry_fields(self, served, artifact, request_images):
        pool, ledger = served
        before = len(list(ledger.entries(kind=KIND_SERVING_BATCH)))
        futures = [pool.submit(image, seed=seed)
                   for seed, image in enumerate(request_images[:4])]
        for future in futures:
            future.result(timeout=120.0)
        entries = _batch_entries(ledger, before + 1)[before:]
        assert sum(entry["batch_size"] for entry in entries) >= 1
        for entry in entries:
            _assert_entry_contract(entry, pool, artifact, "ok")
            assert 0.0 <= entry["latency_mean_ms"] <= entry["latency_max_ms"]
            assert "error" not in entry

    def test_error_batch_entry_fields(self, served, artifact, request_images):
        """A batch that raises inside the executor fails its callers and is
        ledgered as ``error`` with the message and no latencies."""
        pool, ledger = served
        errors_before = pool.metrics_snapshot()["errors_total"]
        before = len(list(ledger.entries(kind=KIND_SERVING_BATCH)))
        future = pool.submit(request_images[0], seed="not-a-seed")
        with pytest.raises((ValueError, RuntimeError), match="not-a-seed"):
            future.result(timeout=120.0)
        (entry,) = _batch_entries(ledger, before + 1)[before:]
        _assert_entry_contract(entry, pool, artifact, "error")
        assert entry["batch_size"] == 1
        assert "not-a-seed" in entry["error"]
        assert "latency_mean_ms" not in entry
        assert "latency_max_ms" not in entry
        assert pool.metrics_snapshot()["errors_total"] == errors_before + 1

    def test_traced_batch_lands_in_one_ledger_write(
            self, served, kind, request_images, ledger_calls):
        pool, ledger = served
        with trace_scope(TraceContext(trace_id=f"contract-{kind}")):
            futures = [pool.submit(image, seed=seed)
                       for seed, image in enumerate(request_images[:4])]
        for future in futures:
            future.result(timeout=120.0)
        deadline = time.monotonic() + 30.0
        while not ledger_calls and time.monotonic() < deadline:
            time.sleep(0.02)
        spans = sorted([*PARENT_SPANS[kind] * 4, KIND_SERVING_BATCH])
        assert ledger_calls == [("append_many", spans)]


class TestSnapshotAndHealth:
    def test_metrics_snapshot_keys(self, served):
        pool, _ = served
        snapshot = pool.metrics_snapshot()
        base = set(pool.metrics.snapshot(queue_depth=0)) | {"backend", "model"}
        assert set(snapshot) - {"shards"} == base
        assert ("shards" in snapshot) == isinstance(pool, ShardProcessPool)
        if "shards" in snapshot:
            assert set(snapshot["shards"]) == {"count", "alive", "respawns_total",
                                               "batches_by_shard"}

    def test_router_health_payload(self, served):
        pool, _ = served
        router = ModelRouter()
        router.add_pool("spikedyn", pool)
        payload = router.health("spikedyn")
        assert payload["status"] == "ok"
        assert ("shard_pids" in payload) == isinstance(pool, ShardProcessPool)
        if "shard_pids" in payload:
            assert payload["shard_pids"] == pool.shard_pids()
            assert all(pid is not None for pid in payload["shard_pids"])


def test_shard_worker_writes_a_traced_batch_in_one_append_before_replying(
        artifact_dir, tmp_path, request_images, ledger_calls):
    """The worker's shard_batch/encode/kernel spans of one batch land in a
    single append, made before the reply goes out."""
    parent, child = multiprocessing.Pipe()
    worker = threading.Thread(
        target=_shard_main,
        args=(str(artifact_dir), None, child, 0, str(tmp_path)), daemon=True,
    )
    worker.start()
    try:
        assert parent.recv()[0] == "ready"
        root = TraceContext(trace_id="worker-batch")
        parent.send(("predict", [(image, seed, root.child().to_dict())
                                 for seed, image in enumerate(request_images[:4])]))
        status, results = parent.recv()
        assert status == "ok" and len(results) == 4
        assert ledger_calls == [
            ("append_many", sorted(["shard_batch", "encode", "kernel"] * 4))
        ]
        assert len(trace_spans(RunLedger(tmp_path), "worker-batch")) == 12
    finally:
        parent.send(("stop",))
        worker.join(10.0)
