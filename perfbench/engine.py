"""Engine workloads: ``continual``, ``infer`` and ``events``.

Each workload builds its model through the public ``repro`` API, then calls
its unit of work repeatedly for the measured window.  Layers are timed by
wrapping the public callables of the built objects (network entry points,
connections, neuron groups, the operation counter, the learning rule, the
encoder, the model's read-out) with :class:`benchlib.SpanRecorder`; nothing
under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.snn.events as snn_events
from benchlib import SpanRecorder, Tally, latency_summary, sustained_rate
from repro.core.config import SpikeDynConfig
from repro.datasets.event_streams import EventStreamDigitSource
from repro.datasets.synthetic_mnist import SyntheticDigits
from repro.encoding.events import DVSEventStreamEncoder
from repro.estimation.energy import EnergyModel
from repro.evaluation.labeling import assign_neuron_labels
from repro.evaluation.protocols import run_dynamic_protocol
from repro.models.spikedyn_model import SpikeDynModel
from repro.snn.simulation import OperationCounter

#: Seed of the fixed training, assignment and evaluation images.  The run
#: seed drives everything else (encoding noise, event draws, order, task
#: streams), so quality metrics compare across commits on the same images.
DATA_SEED = 0

#: Counters reported per sample as ``ops.<name>``.
OPS_KEYS = ("synaptic_events", "neuron_updates", "exponential_ops",
            "trace_updates", "weight_updates", "spike_events")

#: Per-layer metrics only the serve workload exercises (0 elsewhere).
SERVING_LAYERS = ("server.http_self_ms", "serving.queue_wait_ms",
                  "serving.batch_size_mean", "shards.rpc_self_ms",
                  "serving.encode_ms", "serving.kernel_ms",
                  "ledger.bytes_per_request", "serving.rejected",
                  "shards.respawns", "loadgen.lag_p90_ms")

# continual: the paper's dynamic protocol at 784x400, T=350.
CONTINUAL_SEQUENCE = (0, 1, 2)
CONTINUAL_SAMPLES_PER_TASK = 5
CONTINUAL_EVAL_PER_CLASS = 6
#: A model build takes a few ms and the first two in a process run cold,
#: so the median needs many.
CONTINUAL_SETUPS = 20

# infer: frozen-weight batched classification at 784x400, B=32, T=350.
INFER_BATCH = 32
INFER_TRAIN_PER_CLASS = 1
INFER_ASSIGN_PER_CLASS = 2
INFER_POOL_PER_CLASS = 6
INFER_CHECKS = 3
INFER_SETUPS = 3

# events: run_events on long bursty event streams at 784x100.
EVENTS_N_EXC = 100
EVENTS_STEPS = 1200
EVENTS_BURSTS = 6
EVENTS_BURST_STEPS = 8
EVENTS_MAX_PROBABILITY = 0.5
EVENTS_TRAIN_PER_CLASS = 1
EVENTS_ASSIGN_PER_CLASS = 3
EVENTS_POOL_PER_CLASS = 6
EVENTS_CHECKS = 4
EVENTS_MAX_DENSITY = 0.01
EVENTS_SETUPS = 3


@dataclass
class LayerCounts:
    """Counts gathered at layer boundaries during one measured window."""

    samples: int = 0
    steps: int = 0
    exc_spikes: int = 0
    input_spikes: int = 0
    update_windows: int = 0
    depress_windows: int = 0


@dataclass
class Unit:
    """What one unit of work did; ``samples``/``steps`` are filled in by
    :func:`run_window` from the presentation counts."""

    ops: OperationCounter
    extra: Dict[str, float] = field(default_factory=dict)
    samples: int = 0
    steps: int = 0
    elapsed_s: float = 0.0


@dataclass
class Window:
    """Units run in one measured window, with its wall time and probe."""

    units: List[Unit]
    elapsed_s: float
    probe: "Probe"

    @property
    def samples(self) -> int:
        return sum(unit.samples for unit in self.units)

    @property
    def samples_per_s(self) -> float:
        """Samples per second sustained over the window's units."""
        return sustained_rate([u.samples / u.elapsed_s for u in self.units])


@dataclass
class Outcome:
    """Everything a workload measured, for ``run.py`` to report."""

    e2e: Dict[str, float]
    layers: Dict[str, float]
    tally: Tally
    report: Dict[str, object]
    spans: Optional[SpanRecorder] = None
    server_spans: List[dict] = field(default_factory=list)


# -- probes -------------------------------------------------------------------------

class Probe:
    """Counting wrappers (always) and span wrappers (traced windows only).

    The counting wrappers tally presentations, steps and excitatory spikes
    at the network entry points and time each call of the workload's unit
    operation; their cost is one Python call per presentation.
    """

    def __init__(self, traced: bool) -> None:
        self.counts = LayerCounts()
        self.spans = SpanRecorder() if traced else None
        self.op_latencies_s: List[float] = []

    @contextlib.contextmanager
    def attached(self, model, op_attr: Optional[str] = None, source=None):
        """Wrap ``model`` for the duration of the block; calls of
        ``model.<op_attr>`` are timed as the workload's unit operation."""
        light = SpanRecorder()
        patches = SpanRecorder()
        try:
            if self.spans is not None:
                self._wrap_layers(model, source, patches)
            for attr in ("run_sample", "run_batch", "run_events"):
                self._count_presentations(model.network, attr, patches)
            if op_attr is not None:
                light.wrap(model, op_attr, "op")
            yield
        finally:
            # Each layer of wrappers sits on top of the one installed before
            # it, so they come off in reverse order.
            light.restore()
            patches.restore()
            if self.spans is not None:
                self.spans.restore()
            self.op_latencies_s.extend(np.frombuffer(light.end, dtype=float)
                                       - np.frombuffer(light.start, dtype=float))

    def _wrap_layers(self, model, source, patches: SpanRecorder) -> None:
        spans = self.spans
        network = model.network
        for attr in ("run_sample", "run_batch", "run_events"):
            spans.wrap(network, attr, f"snn.{attr}")
        for connection in network.connections:
            spans.wrap(connection, "propagate", "snn.propagate")
            rule = connection.learning_rule
            if rule is not None:
                spans.wrap(rule, "step", "learning.step")
                spans.wrap(rule, "on_sample_end", "learning.sample_end")
                self._count_windows(rule, network, patches)
        for group in network.groups.values():
            if group is not network.input_group:
                spans.wrap(group, "step", "snn.integrate")
        spans.wrap(network.counter, "add", "snn.counter")
        for attr in ("encode", "encode_batch"):
            spans.wrap(model.encoder, attr, "encoding.encode")
            self._count_input_spikes(model.encoder, attr, patches)
        spans.wrap(model, "assign_labels", "evaluation.assign")
        for attr in ("predict", "evaluate_accuracy", "predict_events"):
            spans.wrap(model, attr, "evaluation.predict")
        if source is not None:
            spans.wrap(source, "generate", "datasets.generate")
        spans.wrap(snn_events, "silence_is_provable", "events.silence_check")
        spans.wrap(snn_events, "advance_analytic", "events.advance")

    def _count_presentations(self, network, attr: str,
                             patches: SpanRecorder) -> None:
        original = getattr(network, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            # Batches with learning and event lists recurse into the
            # single-sample entry points, which count themselves.
            if isinstance(result, list):
                if attr != "run_batch" or kwargs.get("learning", False):
                    return result
                results = result
            else:
                results = [result]
            for item in results:
                counts.samples += 1
                counts.steps += item.steps
                counts.exc_spikes += int(item.counts("excitatory").sum())
            return result

        patches.patch(network, attr, counted)

    def _count_input_spikes(self, encoder, attr: str,
                            patches: SpanRecorder) -> None:
        original = getattr(encoder, attr)
        counts = self.counts
        depth = [0]

        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                train = original(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                counts.input_spikes += int(np.count_nonzero(train))
            return train

        patches.patch(encoder, attr, counted)

    def _count_windows(self, rule, network, patches: SpanRecorder) -> None:
        """Classify each committed update window as depression or not.

        A depression window rewrites the full weight matrix, so its
        ``weight_updates`` delta is a whole multiple of the matrix size; a
        potentiation window adds one column (``n_pre``) on top of decay.
        """
        original = rule.step
        counts = self.counts
        counter = network.counter

        def counted(connection, *args, **kwargs):
            before = counter.weight_updates
            original(connection, *args, **kwargs)
            delta = counter.weight_updates - before
            if delta:
                counts.update_windows += 1
                if delta % connection.weights.size == 0:
                    counts.depress_windows += 1

        patches.patch(rule, "step", counted)


def run_window(unit: Callable[[Probe], Unit], budget_s: float,
               traced: bool) -> Window:
    """Call ``unit`` until ``budget_s`` has elapsed (at least once)."""
    probe = Probe(traced)
    counts = probe.counts
    units: List[Unit] = []
    started = time.perf_counter()
    while True:
        samples, steps = counts.samples, counts.steps
        unit_started = time.perf_counter()
        done = unit(probe)
        done.elapsed_s = time.perf_counter() - unit_started
        done.samples = counts.samples - samples
        done.steps = counts.steps - steps
        units.append(done)
        if time.perf_counter() - started >= budget_s:
            break
    return Window(units=units, elapsed_s=time.perf_counter() - started,
                  probe=probe)


def measure(unit: Callable[[Probe], Unit], seconds: float, trace: bool):
    """The untraced window, and with ``trace`` a traced one after it.

    With tracing each window gets half of ``seconds``; the untraced half
    is the reference for ``trace.overhead_pct``.
    """
    if not trace:
        return run_window(unit, seconds, traced=False), None
    plain = run_window(unit, seconds / 2.0, traced=False)
    return plain, run_window(unit, seconds / 2.0, traced=True)


def timed_setups(setup: Callable[[], object], repeats: int):
    """Run ``setup`` ``repeats`` times; returns (last result, durations)."""
    durations: List[float] = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - started)
    return result, durations


# -- metrics common to the engine workloads ---------------------------------------------

def energy_mj(ops: OperationCounter, samples: int) -> float:
    """``EnergyModel`` applied to operation counts, mJ per sample."""
    return EnergyModel().estimate(ops).joules * 1000.0 / samples


def ops_per_sample(ops: OperationCounter, samples: int) -> Dict[str, float]:
    tallies = ops.as_dict()
    return {f"ops.{key}": tallies[key] / samples for key in OPS_KEYS}


def layer_metrics(probe: Probe, fixed: Unit) -> Dict[str, float]:
    """Per-layer metrics of a traced window (all but ``trace.overhead_pct``).

    Self times (seconds per sample presentation) come from the probe's
    spans.  ``ops.*`` and the event tallies come from ``fixed``, the work on
    the fixed evaluation data, so they repeat exactly across runs.
    """
    counts = probe.counts
    samples = counts.samples
    own = probe.spans.self_seconds()
    calls = probe.spans.counts()

    def per_sample(name: str) -> float:
        return own.get(name, 0.0) / samples

    tallies = fixed.ops.as_dict()
    layers = {
        "datasets.generate_s": per_sample("datasets.generate"),
        "encoding.encode_s": per_sample("encoding.encode"),
        "encoding.input_spikes_per_sample": counts.input_spikes / samples,
        "snn.run_sample_s": per_sample("snn.run_sample"),
        "snn.run_batch_s": per_sample("snn.run_batch"),
        "snn.run_events_s": per_sample("snn.run_events"),
        "snn.propagate_s": per_sample("snn.propagate"),
        "snn.integrate_s": per_sample("snn.integrate"),
        "snn.loop_self_s": sum(per_sample(f"snn.{name}") for name in
                               ("run_sample", "run_batch", "run_events")),
        "snn.steps": counts.steps / samples,
        "snn.exc_spikes_per_sample": counts.exc_spikes / samples,
        "snn.counter_calls": calls.get("snn.counter", 0) / samples,
        "snn.counter_s": per_sample("snn.counter"),
        "learning.step_s": per_sample("learning.step"),
        "learning.sample_end_s": per_sample("learning.sample_end"),
        "learning.depress_window_share": (
            counts.depress_windows / counts.update_windows
            if counts.update_windows else 0.0),
        "evaluation.assign_s": per_sample("evaluation.assign"),
        "evaluation.predict_s": per_sample("evaluation.predict"),
        "events.skipped_ratio": tallies["steps_skipped"] / fixed.steps,
        "events.events_processed": tallies["events_processed"] / fixed.samples,
        "events.silence_check_s": per_sample("events.silence_check"),
        "events.advance_s": per_sample("events.advance"),
    }
    layers.update(ops_per_sample(fixed.ops, fixed.samples))
    return layers


def finish(setups_s: List[float], plain: Window, traced: Optional[Window],
           fixed: Unit, accuracy: float, tally: Tally, peak_rss_mb: float,
           report: Dict[str, object]) -> Outcome:
    """Assemble an engine workload's outcome from its windows.

    ``fixed`` is the work done on the fixed evaluation data: its operation
    counts give the energy and ``ops.*``, which therefore repeat exactly.
    """
    tally.operations(plain.samples + (traced.samples if traced else 0))
    latency = latency_summary(plain.probe.op_latencies_s)
    e2e = {
        "setup_s": statistics.median(setups_s),
        "samples_per_s": plain.samples_per_s,
        "p50_ms": latency["p50_ms"],
        "p90_ms": latency["p90_ms"],
        "energy_mj_per_sample": energy_mj(fixed.ops, fixed.samples),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb,
    }
    report.update({
        "setup_runs_s": setups_s,
        "window": {
            "units": len(plain.units),
            "samples": plain.samples,
            "elapsed_s": plain.elapsed_s,
            "unit_operation_latency": latency,
            "per_unit": [{"samples": u.samples, "elapsed_s": u.elapsed_s, **u.extra}
                         for u in plain.units],
        },
    })
    layers: Dict[str, float] = {}
    if traced is not None:
        layers = layer_metrics(traced.probe, fixed)
        layers.update(dict.fromkeys(SERVING_LAYERS, 0.0))
        layers["trace.overhead_pct"] = 100.0 * (plain.samples_per_s
                                                / traced.samples_per_s - 1.0)
    return Outcome(e2e=e2e, layers=layers, tally=tally, report=report,
                   spans=traced.probe.spans if traced is not None else None)


def fixed_evaluation(model, run: Callable):
    """``run(model)`` on the fixed evaluation data, with its operation counts.

    Returns the result of ``run`` and a :class:`Unit` holding the counts,
    samples and steps of that work.
    """
    probe = Probe(traced=False)
    before = model.counter.copy()
    with probe.attached(model):
        result = run(model)
    return result, Unit(ops=model.counter - before, samples=probe.counts.samples,
                        steps=probe.counts.steps)


def class_images(source: SyntheticDigits, per_class: int, rng):
    """``per_class`` images of every class (grouped by class) and labels."""
    images = np.concatenate([source.generate(digit, per_class, rng=rng)
                             for digit in source.classes])
    labels = np.repeat(np.asarray(source.classes), per_class)
    return images, labels


def fresh_copy(config: SpikeDynConfig, artifact: Path) -> SpikeDynModel:
    model = SpikeDynModel(config)
    model.load_state(artifact)
    return model


# -- continual ------------------------------------------------------------------------

def continual(seed: int, seconds: float, trace: bool, workdir: Path,
              peak_rss_mb: Callable[[], float]) -> Outcome:
    """The dynamic protocol, on a fresh 784x400 SpikeDyn model per unit.

    A first run on the fixed data seed, before the window, gives the
    accuracy metrics and operation counts, which therefore compare exactly
    across commits, and warms the process up; every unit of the window
    draws its task streams and evaluation sets from the run seed.
    """
    tally = Tally()
    reps = iter(range(1, 1 << 30))
    n_eval = len(CONTINUAL_SEQUENCE) * CONTINUAL_EVAL_PER_CLASS

    def setup(model_seed: int):
        config = SpikeDynConfig(seed=model_seed)
        return SpikeDynModel(config), SyntheticDigits(28, seed=model_seed)

    # Every timed build stays alive until all are timed, so each one
    # allocates fresh memory like the first build in a process does;
    # rebuilding into just-freed memory is faster and bimodal.
    built: List[object] = []
    _, setups_s = timed_setups(lambda: built.append(setup(seed)), CONTINUAL_SETUPS)
    del built

    def protocol(probe: Probe, unit_seed: int, rep: int) -> Unit:
        model, source = setup(unit_seed)
        initial = model.input_weights.copy()
        before = model.counter.copy()
        with probe.attached(model, "train_sample", source=source):
            result = run_dynamic_protocol(
                model, source, class_sequence=CONTINUAL_SEQUENCE,
                samples_per_task=CONTINUAL_SAMPLES_PER_TASK,
                eval_samples_per_class=CONTINUAL_EVAL_PER_CLASS,
                eval_batch_size=32,
                rng=np.random.default_rng([unit_seed, rep]),
            )
        tasks = sorted(CONTINUAL_SEQUENCE)
        values = [*result.recent_task_accuracy.values(),
                  *result.final_task_accuracy.values()]
        tally.check(sorted(result.recent_task_accuracy) == tasks
                    and sorted(result.final_task_accuracy) == tasks,
                    "protocol did not report every task")
        tally.check(all(0.0 <= value <= 1.0 for value in values),
                    "accuracy outside [0, 1]")
        tally.check(int(result.confusion.sum()) == n_eval,
                    "confusion matrix does not cover the evaluation set")
        tally.check(not np.array_equal(initial, model.input_weights),
                    "training left the weights unchanged")
        return Unit(ops=model.counter - before,
                    extra={"recent_acc": result.mean_recent_accuracy,
                           "retained_acc": result.mean_final_accuracy})

    fixed = run_window(lambda probe: protocol(probe, DATA_SEED, 0), 0.0,
                       traced=False).units[0]
    plain, traced = measure(lambda probe: protocol(probe, seed, next(reps)),
                            seconds, trace)
    report = {
        "backend": SpikeDynConfig().backend, "size": "784x400", "t_sim": 350.0,
        "class_sequence": list(CONTINUAL_SEQUENCE),
        "samples_per_task": CONTINUAL_SAMPLES_PER_TASK,
        "eval_samples_per_class": CONTINUAL_EVAL_PER_CLASS,
        "eval_batch_size": 32,
        "unit_operation": "train_sample (one plastic presentation)",
        "accuracy_from": "a run on the fixed data seed before the window: retained_acc",
        "energy_from": "the same run",
    }
    outcome = finish(setups_s, plain, traced, fixed, fixed.extra["retained_acc"],
                     tally, peak_rss_mb(), report)
    outcome.e2e.update(recent_acc=fixed.extra["recent_acc"],
                       retained_acc=fixed.extra["retained_acc"])
    return outcome


# -- infer ----------------------------------------------------------------------------

def infer(seed: int, seconds: float, trace: bool, workdir: Path,
          peak_rss_mb: Callable[[], float]) -> Outcome:
    """Batched frozen-weight classification of a fixed image pool.

    Each unit classifies one batch of 32 pool images, in an order and with
    Poisson encodings drawn from the run seed.  Accuracy is measured after
    the window on the whole pool with encodings from the fixed data seed.
    """
    trainer_config = SpikeDynConfig(seed=DATA_SEED)
    config = trainer_config.replace(seed=seed)
    source = SyntheticDigits(28, seed=DATA_SEED)
    pool, pool_labels = class_images(source, INFER_POOL_PER_CLASS,
                                     np.random.default_rng([DATA_SEED, 1]))
    artifact = workdir / "infer-artifact"

    def setup() -> SpikeDynModel:
        data = np.random.default_rng([DATA_SEED, 2])
        train, _ = class_images(source, INFER_TRAIN_PER_CLASS, data)
        assign, assign_labels = class_images(source, INFER_ASSIGN_PER_CLASS, data)
        trainer = SpikeDynModel(trainer_config)
        trainer.train_batch(list(train))
        trainer.assign_labels(list(assign), assign_labels)
        trainer.save(artifact)
        return fresh_copy(config, artifact)

    model, setups_s = timed_setups(setup, INFER_SETUPS)
    tally = Tally()
    order = np.random.default_rng([seed, 1])

    def unit(probe: Probe) -> Unit:
        before = model.counter.copy()
        chosen = order.choice(len(pool), INFER_BATCH, replace=False)
        with probe.attached(model, "predict"):
            predictions = model.predict(list(pool[chosen]))
        tally.check(bool(np.all((predictions >= 0) & (predictions < 10))),
                    "prediction outside the digit classes")
        return Unit(ops=model.counter - before)

    plain, traced = measure(unit, seconds, trace)

    accuracy, fixed = fixed_evaluation(
        fresh_copy(trainer_config, artifact),
        lambda evaluator: evaluator.evaluate_accuracy(list(pool), pool_labels))
    # Batched counts must equal per-sample counts, each sample on a fresh
    # copy so no adaptation state carries from one presentation to the next.
    check_images = pool[order.choice(len(pool), INFER_CHECKS, replace=False)]
    trains = fresh_copy(config, artifact).encode_batch(list(check_images))
    batched = fresh_copy(config, artifact).network.run_batch(trains, learning=False)
    for train, result in zip(trains, batched):
        single = fresh_copy(config, artifact).network.run_sample(train, learning=False)
        tally.check(np.array_equal(single.counts("excitatory"),
                                   result.counts("excitatory")),
                    "run_batch counts differ from run_sample counts")
    report = {"backend": model.backend_name, "size": "784x400",
              "t_sim": config.t_sim, "batch_size": INFER_BATCH,
              "pool": len(pool), "unit_operation": "predict on 32 images",
              "accuracy_from": "the pool, encoded from the fixed data seed",
              "energy_from": "the same fixed evaluation"}
    return finish(setups_s, plain, traced, fixed, accuracy, tally,
                  peak_rss_mb(), report)


# -- events ---------------------------------------------------------------------------

def events(seed: int, seconds: float, trace: bool, workdir: Path,
           peak_rss_mb: Callable[[], float]) -> Outcome:
    """``run_events`` on the eventqueue backend over bursty long streams.

    Each unit classifies the streams encoded from a fixed image pool with
    event draws from the run seed.  Accuracy is measured after the
    window on the pool encoded from the fixed data seed.
    """
    config = SpikeDynConfig(n_exc=EVENTS_N_EXC, seed=DATA_SEED,
                            backend="eventqueue")
    source = SyntheticDigits(28, seed=DATA_SEED)
    artifact = workdir / "events-artifact"

    def streams(per_class: int, encoder_seed, image_seed):
        encoder = DVSEventStreamEncoder(
            duration=float(EVENTS_STEPS), n_bursts=EVENTS_BURSTS,
            burst_steps=EVENTS_BURST_STEPS,
            max_probability=EVENTS_MAX_PROBABILITY,
            rng=np.random.default_rng(encoder_seed))
        samples, labels = EventStreamDigitSource(source, encoder).labelled_streams(
            per_class, rng=np.random.default_rng(image_seed))
        return [sample.stream for sample in samples], labels

    def setup() -> SpikeDynModel:
        data = np.random.default_rng([DATA_SEED, 3])
        train, _ = class_images(source, EVENTS_TRAIN_PER_CLASS, data)
        trainer = SpikeDynModel(config)
        trainer.train_batch(list(train))
        assign, labels = streams(EVENTS_ASSIGN_PER_CLASS, [DATA_SEED, 4],
                                 [DATA_SEED, 5])
        responses = np.stack([trainer.respond_events(s) for s in assign])
        trainer.assignments = assign_neuron_labels(responses, labels, 10)
        trainer.save(artifact)
        return fresh_copy(config, artifact)

    model, setups_s = timed_setups(setup, EVENTS_SETUPS)
    pool, _ = streams(EVENTS_POOL_PER_CLASS, [seed, 1], [DATA_SEED, 6])
    tally = Tally()
    densities = [stream.density for stream in pool]
    tally.check(max(densities) < EVENTS_MAX_DENSITY,
                f"stream density {max(densities):.4f} is not below 1%")
    def unit(probe: Probe) -> Unit:
        before = model.counter.copy()
        with probe.attached(model, "respond_events"):
            predictions = model.predict_events(pool)
        tally.check(bool(np.all((predictions >= 0) & (predictions < 10))),
                    "prediction outside the digit classes")
        return Unit(ops=model.counter - before)

    plain, traced = measure(unit, seconds, trace)

    fixed, fixed_labels = streams(EVENTS_POOL_PER_CLASS, [DATA_SEED, 1],
                                  [DATA_SEED, 6])
    predictions, fixed_unit = fixed_evaluation(
        fresh_copy(config, artifact), lambda evaluator: evaluator.predict_events(fixed))
    accuracy = float(np.mean(predictions == fixed_labels))
    # The event engine must reproduce the stepped engine's spike counts,
    # each stream on fresh copies so no theta drift carries between runs.
    picks = np.random.default_rng([seed, 2]).choice(len(pool), EVENTS_CHECKS,
                                                    replace=False)
    for index in picks:
        jumped = fresh_copy(config, artifact).network.run_events(pool[index])
        stepped = fresh_copy(config, artifact).network.run_sample(
            pool[index].to_dense(), learning=False)
        tally.check(np.array_equal(jumped.counts("excitatory"),
                                   stepped.counts("excitatory")),
                    "run_events counts differ from stepped run_sample counts")
    report = {"backend": model.backend_name, "size": f"784x{EVENTS_N_EXC}",
              "stream_steps": EVENTS_STEPS, "streams": len(pool),
              "density_mean": float(np.mean(densities)),
              "unit_operation": "respond_events on one stream",
              "accuracy_from": "the pool, event draws from the fixed data seed",
              "energy_from": "the same fixed evaluation"}
    return finish(setups_s, plain, traced, fixed_unit, accuracy, tally,
                  peak_rss_mb(), report)
