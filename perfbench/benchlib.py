"""Measurement helpers shared by the paper-scale benchmark's workloads.

Nothing here imports the ``repro`` package: these are the statistics, span
bookkeeping and load generation the workloads build on, kept
separate so ``test_benchlib.py`` can check them on tiny inputs.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond
#: it; otherwise it is "unsupported" (``None``).
MIN_TAIL_SAMPLES = 10


# -- percentiles and spread ----------------------------------------------------

def supported_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``values``, or ``None`` if unsupported.

    Supported means at least :data:`MIN_TAIL_SAMPLES` samples lie strictly
    beyond the percentile's rank, so p90 needs 100 samples and p99 1000.
    """
    n = len(values)
    if n == 0 or math.floor(n * (100.0 - q) / 100.0 + 1e-9) < MIN_TAIL_SAMPLES:
        return None
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(np.asarray(values, dtype=float), q))
    # Interpolating between two infinite samples (failed requests) gives nan.
    return math.inf if math.isnan(value) else value


def latency_summary(values_s: Sequence[float]) -> Dict[str, object]:
    """Median, p90 (``None`` when unsupported) and sample count, in ms."""
    ms = [1000.0 * value for value in values_s]
    return {
        "n": len(ms),
        "p50_ms": float(statistics.median(ms)) if ms else None,
        "p90_ms": supported_percentile(ms, 90.0),
    }


def sustained_rate(rates: Sequence[float]) -> float:
    """10th percentile of per-interval rates: the rate held in nine of ten.

    On a shared machine whose speed changes for seconds at a time, a low
    percentile follows the speed the machine holds, where the median moves
    with how much of the window a fast spell happened to cover.  It is
    interpolated between measured rates, never beyond them.
    """
    if len(rates) < 2:
        return float(rates[0])
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of ``values`` (n >= 2)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
    }


# -- operation and check accounting ----------------------------------------------

@dataclass
class Tally:
    """Attempted and failed operations, correctness checks included.

    ``error_rate`` is failed / attempted; a failed correctness check, a
    non-2xx response and a timeout each count as one failed operation, and
    any failed operation makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def operations(self, n: int, failures: Sequence[str] = ()) -> None:
        """``n`` attempted operations, of which ``failures`` failed."""
        self.attempted += n
        self.failed += len(failures)
        for what in failures:
            self._note(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# -- spans and self time ---------------------------------------------------------------

class SpanRecorder:
    """In-memory span store with wrappers for the callables being timed.

    Each span is a name, start, end and parent index, kept in flat arrays
    (single-threaded nesting: the parent is whatever span is open when the
    child starts).  ``wrap`` replaces an attribute of a built object with a
    timing wrapper; ``restore`` puts every replaced attribute back.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def patch(self, obj, attr: str, replacement) -> None:
        """Set ``obj.attr`` to ``replacement`` until :meth:`restore`."""
        had_own = attr in getattr(obj, "__dict__", {})
        self._patched.append((obj, attr, had_own, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``obj.attr``."""
        original = getattr(obj, attr)
        name_id = self._intern(name)
        stack, starts, ends = self._stack, self.start, self.end
        parents, name_ids = self.parent, self.name_id
        clock = time.perf_counter

        def timed(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        self.patch(obj, attr, timed)

    def restore(self) -> None:
        while self._patched:
            obj, attr, had_own, original = self._patched.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        durations = np.frombuffer(self.end, dtype=float) \
            - np.frombuffer(self.start, dtype=float)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        own = self_times(durations, parents)
        totals = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def counts(self) -> Dict[str, int]:
        """Number of spans per name."""
        counted = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                              minlength=len(self.names))
        return {name: int(counted[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to a compressed file."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children of one span never overlap (they ran one after another in the
    parent's thread, or in sequence across processes), so summing them
    gives the part of the parent's interval they cover.
    """
    durations = np.asarray(durations, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=durations.size)
    return durations - covered


# -- load generation -------------------------------------------------------------------

def poisson_schedule(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s) of ``n`` Poisson arrivals, stretched to ``n / rate`` s.

    The gaps are exponential, then rescaled so the ``n``-th arrival falls
    exactly at ``n / rate``: the offered rate is exact in every run, and
    only the burstiness depends on the seed.
    """
    gaps = rng.exponential(1.0 / rate, size=n)
    due = np.cumsum(gaps)
    return due * ((n / rate) / due[-1])


@dataclass
class RequestRecord:
    """One open-loop request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False
    error: str = ""
    result: object = None

    @property
    def latency_s(self) -> float:
        """Time from when the request was due to its answer."""
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


def run_open_loop(send: Callable[[int], object], due_offsets: Sequence[float],
                  concurrency: int) -> List[RequestRecord]:
    """Send request ``i`` at ``due_offsets[i]`` with at most ``concurrency``
    in flight.

    ``send(i)`` returns the response or raises.  A request that comes due
    while every sender is busy waits for the next free one, and its latency
    is timed from when it was due, so a stalled sender raises the latency of
    every request queued behind it.
    """
    start = time.perf_counter() + 0.01
    records = [RequestRecord(index=i, due=start + float(offset))
               for i, offset in enumerate(due_offsets)]
    cursor = iter(records)
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            wait = record.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            _send(send, record)

    _run_senders(sender, max(1, min(concurrency, len(records))))
    return records


def run_closed_loop(send: Callable[[int], object], concurrency: int,
                    seconds: float) -> List[RequestRecord]:
    """``concurrency`` senders, each sending its next request as soon as its
    previous one is answered, until ``seconds`` have passed.

    Requests are numbered in the order they are sent; each is due when it
    is sent, so its latency is its service time.
    """
    deadline = time.perf_counter() + seconds
    records: List[RequestRecord] = []
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                now = time.perf_counter()
                if now >= deadline:
                    return
                record = RequestRecord(index=len(records), due=now)
                records.append(record)
            _send(send, record)

    _run_senders(sender, concurrency)
    return records


def chunk_rates(records: Sequence[RequestRecord], chunk: int = 10) -> List[float]:
    """Answers per second over consecutive runs of ``chunk`` answers (fewer
    when there were too few answers for two runs)."""
    done = np.sort([r.done for r in records if r.ok])
    chunk = max(1, min(chunk, (len(done) - 1) // 2))
    return [float(rate) for rate in chunk / np.diff(done[::chunk])]


def closed_loop_rate(segments: Sequence[Sequence[RequestRecord]]) -> float:
    """Median of the rates of runs of answers, pooled over closed-loop
    segments taken at different times of a run.

    The host's pace changes for seconds at a time; rates sampled over the
    whole run, with their median, do not follow a spell that covers less
    than half of them.  The time between segments is not counted.
    """
    return statistics.median(rate for records in segments
                             for rate in chunk_rates(records))


def _send(send: Callable[[int], object], record: RequestRecord) -> None:
    record.sent = time.perf_counter()
    try:
        record.result = send(record.index)
        record.ok = True
    except Exception as error:  # noqa: BLE001 - counted per request
        record.error = f"{type(error).__name__}: {error}"
    record.done = time.perf_counter()


def _run_senders(sender: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=sender, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- the max-rate ladder -------------------------------------------------------------

#: A rung's backlog is growing when the median send lag of its last quarter
#: exceeds that of its first quarter by more than this.
BACKLOG_GROWTH_S = 0.05


@dataclass
class Rung:
    """Outcome of one fixed-rate step of the ladder."""

    rate: float
    records: List[RequestRecord]
    limit_ms: float

    @property
    def answered(self) -> List[RequestRecord]:
        return [record for record in self.records if record.ok]

    @property
    def failed(self) -> int:
        return len(self.records) - len(self.answered)

    @property
    def p90_ms(self) -> Optional[float]:
        # A failed request misses the limit: it counts as infinitely slow.
        latencies = [1000.0 * record.latency_s if record.ok else math.inf
                     for record in self.records]
        return supported_percentile(latencies, 90.0)

    @property
    def backlog_growing(self) -> bool:
        quarter = max(1, len(self.records) // 4)
        head = statistics.median(r.lag_s for r in self.records[:quarter])
        tail = statistics.median(r.lag_s for r in self.records[-quarter:])
        return tail - head > BACKLOG_GROWTH_S

    @property
    def passed(self) -> bool:
        p90 = self.p90_ms
        return p90 is not None and p90 <= self.limit_ms \
            and not self.backlog_growing

    @property
    def achieved_rps(self) -> float:
        """Answered requests per second, first due time to last answer."""
        answered = self.answered
        if not answered:
            return 0.0
        span = max(r.done for r in answered) - min(r.due for r in self.records)
        return len(answered) / span


def run_ladder(rates: Sequence[float], run_rung: Callable[[float], List[RequestRecord]],
               limit_ms: float) -> List[Rung]:
    """Run rungs in increasing rate order up to the first that fails.

    A rung fails when its p90 latency (from due time) exceeds ``limit_ms``,
    is unsupported, or its backlog grows.  The last rung returned is the
    failing one, unless every rung passed.
    """
    rungs: List[Rung] = []
    for rate in rates:
        rung = Rung(rate=float(rate), records=run_rung(float(rate)),
                    limit_ms=limit_ms)
        rungs.append(rung)
        if not rung.passed:
            break
    return rungs


def top_passing(rungs: Sequence[Rung]) -> Optional[Rung]:
    """The highest-rate rung that passed, or ``None``."""
    passing = [rung for rung in rungs if rung.passed]
    return passing[-1] if passing else None
