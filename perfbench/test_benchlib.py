"""Tests of the benchmark's own helpers, on tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import run  # noqa: E402
from benchlib import (  # noqa: E402
    RequestRecord,
    Rung,
    SpanRecorder,
    Tally,
    chunk_rates,
    closed_loop_rate,
    poisson_schedule,
    run_closed_loop,
    run_ladder,
    run_open_loop,
    self_times,
    supported_percentile,
    top_passing,
)


# -- percentiles ------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert supported_percentile(list(range(99)), 90.0) is None
    assert supported_percentile(list(range(100)), 90.0) == pytest.approx(89.1)


def test_median_needs_twenty_samples():
    assert supported_percentile([1.0] * 19, 50.0) is None
    assert supported_percentile([1.0] * 20, 50.0) == 1.0


def test_empty_sample_is_unsupported():
    assert supported_percentile([], 50.0) is None


# -- open loop: latency from due time ----------------------------------------------------

def test_stalled_sender_raises_latency_of_later_requests():
    def send(index: int) -> int:
        if index == 0:
            time.sleep(0.2)
        return index

    records = run_open_loop(send, [0.0, 0.01, 0.02], concurrency=1)
    assert [r.ok for r in records] == [True, True, True]
    # Request 1 was due 10 ms after request 0 but could only be sent once
    # the stalled sender came back: its latency counts the wait.
    assert records[1].lag_s >= 0.15
    assert records[1].latency_s >= 0.15
    assert records[1].done - records[1].sent < 0.1


def test_requests_wait_for_their_due_time():
    records = run_open_loop(lambda index: index, [0.0, 0.05], concurrency=2)
    assert records[1].sent - records[0].due >= 0.05 - 1e-3
    assert all(r.lag_s < 0.05 for r in records)


def test_closed_loop_sends_on_answer_until_the_deadline():
    def send(index: int) -> int:
        time.sleep(0.02)
        return index

    records = run_closed_loop(send, concurrency=2, seconds=0.2)
    assert sorted(r.index for r in records) == list(range(len(records)))
    assert 10 <= len(records) <= 24
    assert all(r.ok and r.result == r.index for r in records)
    # Each request is due when its sender is free, so it waits for nothing.
    assert all(r.lag_s < 0.01 for r in records)


def _answered(times):
    return [RequestRecord(index=i, due=t, done=t, ok=True) for i, t in enumerate(times)]


def test_chunk_rates_count_answers_per_run():
    records = _answered(np.arange(41) * 0.1)
    assert chunk_rates(records, chunk=10) == pytest.approx([10.0] * 4)
    records[5].ok = False
    assert len(chunk_rates(records, chunk=10)) == 3


def test_closed_loop_rate_pools_segments_and_skips_the_gaps():
    fast = _answered(np.arange(41) * 0.05)            # 20/s
    slow = _answered(100.0 + np.arange(21) * 0.1)    # 10/s, much later
    # 4 runs at 20/s and 2 at 10/s: the median is the fast rate, and the
    # 100 s between the segments counts in no run.
    assert closed_loop_rate([fast, slow]) == pytest.approx(20.0)


def test_failed_request_is_recorded_not_raised():
    def send(index: int) -> int:
        raise OSError("refused")

    records = run_open_loop(send, [0.0], concurrency=1)
    assert not records[0].ok
    assert "refused" in records[0].error


def test_poisson_schedule_offers_the_exact_rate():
    due = poisson_schedule(20.0, 100, np.random.default_rng(1))
    assert due[-1] == pytest.approx(5.0)
    assert np.all(np.diff(due) > 0)
    again = poisson_schedule(20.0, 100, np.random.default_rng(1))
    assert np.array_equal(due, again)


# -- error accounting ------------------------------------------------------------------

def test_error_rate_counts_failed_operations_and_checks():
    tally = Tally()
    tally.operations(10, ["HTTP 503", "timeout"])
    tally.check(True, "fine")
    tally.check(False, "served 3, offline 4")
    assert (tally.attempted, tally.failed) == (12, 3)
    assert tally.error_rate == pytest.approx(0.25)
    assert not tally.correct
    assert tally.failures == ["HTTP 503", "timeout", "served 3, offline 4"]


def test_failed_request_makes_the_run_incorrect():
    # A non-2xx response or a timeout fails the run even when every
    # answered request passed its check.
    tally = Tally()
    tally.operations(4, ["HTTP 429"])
    tally.check(True, "served 3, offline 3")
    assert not tally.correct and tally.error_rate == pytest.approx(0.2)


def test_run_without_failures_is_correct():
    tally = Tally()
    tally.operations(4)
    tally.check(True, "fine")
    assert tally.correct and tally.error_rate == 0.0


# -- the max-rate ladder -----------------------------------------------------------------

def _records(latencies_ms, lags_ms=None, ok=True):
    lags_ms = lags_ms if lags_ms is not None else [0.0] * len(latencies_ms)
    records = []
    for index, (latency, lag) in enumerate(zip(latencies_ms, lags_ms)):
        record = RequestRecord(index=index, due=float(index))
        record.sent = record.due + lag / 1000.0
        record.done = record.due + latency / 1000.0
        record.ok = ok
        records.append(record)
    return records


def test_ladder_stops_at_first_rate_over_the_limit():
    p90_by_rate = {10.0: 40.0, 20.0: 60.0, 30.0: 500.0, 40.0: 50.0}
    calls = []

    def run_rung(rate):
        calls.append(rate)
        return _records([p90_by_rate[rate]] * 100)

    rungs = run_ladder([10, 20, 30, 40], run_rung, limit_ms=100.0)
    assert calls == [10.0, 20.0, 30.0]
    assert [r.passed for r in rungs] == [True, True, False]
    assert top_passing(rungs).rate == 20.0


def test_ladder_stops_when_the_backlog_grows():
    lags = list(np.linspace(0.0, 90.0, 100))
    calls = []

    def run_rung(rate):
        calls.append(rate)
        return _records([50.0] * 100, lags if rate == 20.0 else None)

    rungs = run_ladder([10, 20, 30], run_rung, limit_ms=100.0)
    assert calls == [10.0, 20.0]
    assert rungs[-1].backlog_growing and not rungs[-1].passed


def test_failed_requests_miss_the_limit():
    rung = Rung(rate=10.0, records=_records([10.0] * 89) + _records([10.0] * 11, ok=False),
                limit_ms=100.0)
    assert rung.failed == 11
    assert rung.p90_ms == math.inf and not rung.passed


def test_rung_with_too_few_requests_does_not_pass():
    rung = Rung(rate=10.0, records=_records([10.0] * 50), limit_ms=100.0)
    assert rung.p90_ms is None and not rung.passed


def test_no_passing_rung():
    assert top_passing([Rung(rate=10.0, records=_records([500.0] * 100),
                             limit_ms=100.0)]) is None


# -- spans and self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    durations = np.array([10.0, 3.0, 2.0, 1.0])
    parents = np.array([-1, 0, 0, 1])
    assert self_times(durations, parents).tolist() == [5.0, 2.0, 2.0, 1.0]


def test_recorder_nests_spans_and_restores_attributes():
    class Layer:
        def inner(self):
            time.sleep(0.01)

        def outer(self):
            self.inner()
            self.inner()

    layer = Layer()
    recorder = SpanRecorder()
    recorder.wrap(layer, "inner", "inner")
    recorder.wrap(layer, "outer", "outer")
    layer.outer()
    assert recorder.counts() == {"inner": 2, "outer": 1}
    own = recorder.self_seconds()
    total = recorder.end[0] - recorder.start[0]
    assert own["inner"] >= 0.02
    assert own["outer"] + own["inner"] == pytest.approx(total)
    recorder.restore()
    assert "inner" not in vars(layer) and "outer" not in vars(layer)


def test_recorder_restores_module_functions():
    original = benchlib.self_times
    recorder = SpanRecorder()
    recorder.wrap(benchlib, "self_times", "self_times")
    assert benchlib.self_times is not original
    recorder.restore()
    assert benchlib.self_times is original


# -- the engine probe on a tiny network --------------------------------------------------

def test_probe_counts_presentations_and_times_layers():
    import engine
    from repro.core.config import SpikeDynConfig
    from repro.models.spikedyn_model import SpikeDynModel

    model = SpikeDynModel(SpikeDynConfig.scaled_down(n_input=16, n_exc=4,
                                                     t_sim=10.0, seed=0))
    images = list(np.random.default_rng(0).random((3, 16)))
    probe = engine.Probe(traced=True)
    with probe.attached(model, "predict"):
        model.predict(images)
        model.train_sample(images[0])
    assert probe.counts.samples == 4
    assert probe.counts.steps == 40
    assert len(probe.op_latencies_s) == 1
    spans = probe.spans.counts()
    assert spans["snn.run_batch"] == 1 and spans["snn.run_sample"] == 1
    assert spans["learning.step"] == 10
    assert probe.counts.update_windows == 1
    for obj in (model, model.network, model.encoder, model.network.counter):
        assert not {"predict", "run_batch", "run_sample", "encode_batch",
                    "add"} & set(vars(obj))
    layers = engine.layer_metrics(probe, engine.Unit(
        ops=model.counter.copy(), samples=probe.counts.samples,
        steps=probe.counts.steps))
    assert layers["snn.steps"] == 10.0
    assert layers["learning.step_s"] > 0.0
    assert layers["events.skipped_ratio"] == 0.0


# -- BENCHMARK.json agrees with what run.py prints ------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_sustained_rate_is_the_tenth_percentile():
    # Units in a fast spell do not move it; slow units do.
    assert benchlib.sustained_rate([10.0] * 8 + [20.0] * 4) == 10.0
    assert benchlib.sustained_rate([5.0, 5.0] + [10.0] * 9) == 5.0
    assert benchlib.sustained_rate([7.0]) == 7.0
    # Interpolated between measured rates, never extrapolated below them.
    assert benchlib.sustained_rate([8.0, 12.0]) == pytest.approx(8.4)
