"""Network orchestration: groups, connections, monitors, and the run driver.

A :class:`Network` owns an input group, any number of downstream neuron
groups, and the connections between them.  :meth:`Network.run_sample`
presents one rate-coded sample (a boolean spike train) to the input group,
advances the whole network timestep by timestep, drives attached learning
rules, and returns per-group spike counts.  :meth:`Network.run_batch`
presents ``B`` samples at once, advancing ``(B, n)``-shaped state in one
vectorized step per timestep — the hot path for evaluation-heavy workloads.
:meth:`Network.run_events` takes spike events and jumps provably silent gaps.

All three feed one driver, which builds a :class:`RunPlan` at the start of
each run: the non-input groups and their incoming connections, every
``exp(-dt / tau)`` decay factor, reusable current and input-row buffers, the
per-step operation tally and the silence bound's constants.  A step then
allocates nothing of its own, dispatches on no type and builds no dict.  The
ordering within one timestep is:

1. the input group takes this step's row of the input (silence between events);
2. every connection converts its presynaptic spikes (input spikes from this
   timestep, recurrent/lateral spikes from the previous timestep) into
   postsynaptic currents;
3. every non-input group integrates its summed current and fires;
4. plastic connections run their learning rule.

All primitive operations are tallied in the network's
:class:`~repro.snn.simulation.OperationCounter`, which feeds the energy and
latency models in :mod:`repro.estimation`.  Groups and connections are
charged a constant per step (``step_tally()``), so the driver adds their
tallies once per presentation: constants times steps executed, plus the
spikes it counts anyway.  Learning rules still account every step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends import BackendLike, get_backend
from repro.snn import events as snn_events
from repro.snn.monitors import SpikeMonitor, StateMonitor
from repro.snn.neurons import InputGroup, NeuronGroup
from repro.snn.simulation import OperationCounter, SimulationParameters
from repro.snn.synapses import Connection


@dataclass
class SampleResult:
    """Outcome of presenting a single sample to the network.

    Attributes
    ----------
    spike_counts:
        Mapping from group name to the per-neuron spike-count vector
        accumulated over the presentation window.
    steps:
        Number of simulation steps executed (presentation plus rest).
    learning:
        Whether plasticity was enabled during the presentation.
    """

    spike_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    steps: int = 0
    learning: bool = True

    def counts(self, group_name: str) -> np.ndarray:
        """Spike counts of ``group_name`` (raises ``KeyError`` if unknown)."""
        return self.spike_counts[group_name]


class RunPlan:
    """What one run of the stepped engine needs, built once at its start.

    Built after the learning rules' ``on_sample_start`` and, for batches,
    inside batch mode, so every buffer has the run's state shape.  Bound
    methods are looked up here too, so wrappers installed on the components
    before the run (e.g. timing probes) are called.
    """

    def __init__(self, network: "Network") -> None:
        dt = self.dt = network.params.dt
        self.counter = network.counter
        self.input_group = network.input_group
        self.silent_row = np.zeros(self.input_group.state_shape, dtype=bool)
        self.groups = [group for group in network.groups.values()
                       if group is not self.input_group]
        self.group_decays = [group.decay_factors(dt) for group in self.groups]
        self.currents = [np.zeros(group.state_shape) for group in self.groups]
        self.spike_totals = [(np.zeros(group.state_shape, dtype=np.int64), group)
                             for group in self.groups]
        slots = {group.name: slot for slot, group in enumerate(self.groups)}
        # Per target group: (connection, exp(-dt/tau_syn), silence-bound
        # ceiling coefficient; None for inhibition, which only lowers it).
        self.incoming: List[list] = [[] for _ in self.groups]
        self.propagates = []
        for connection in network.connections:
            slot = slots[connection.post.name]
            decays = connection.decay_factors(dt)
            mu = decays[0]
            coefficient = (dt * connection.gain * (mu / (1.0 - mu))
                           if connection.sign > 0 else None)
            self.incoming[slot].append((connection, mu, coefficient))
            self.propagates.append((connection.propagate, decays,
                                    self.currents[slot]))
        self.integrates = [(group.step, current, decays) for group, current, decays
                           in zip(self.groups, self.currents, self.group_decays)]
        self.rules = [(connection.learning_rule.step, connection)
                      for connection in network.connections
                      if connection.learning_rule is not None]
        self.observers = [monitor.observe for monitor in
                          (*network.spike_monitors, *network.state_monitors)]
        self.tally: Counter = Counter()
        for component in (*self.groups, *network.connections):
            self.tally.update(component.step_tally())
        self.steps = 0

    def step(self, row: np.ndarray, t_index: int, learn: bool) -> None:
        """Advance the network one timestep with ``row`` as its input spikes."""
        self.input_group.spikes = row
        dt = self.dt
        for current in self.currents:
            current.fill(0.0)
        # Input spikes arrive this step, recurrent/lateral ones a step late.
        for propagate, decays, current in self.propagates:
            current += propagate(dt, None, decays)
        for step, current, decays in self.integrates:
            step(current, dt, None, decays)
        if learn:
            for rule_step, connection in self.rules:
                rule_step(connection, dt, t_index, self.counter)
        for observe in self.observers:
            observe()
        for total, group in self.spike_totals:
            total += group.spikes
        self.steps += 1

    def spike_counts(self) -> Dict[str, np.ndarray]:
        """Spikes per non-input group over the steps executed so far."""
        return {group.name: total.copy() for total, group in self.spike_totals}

    def account(self, **extra: int) -> None:
        """Add the run's group and connection tallies (and ``extra``) in one
        counter call: per-step constants times steps, plus the spikes."""
        tally = {key: value * self.steps for key, value in self.tally.items()}
        spikes = sum(int(total.sum()) for total, _ in self.spike_totals)
        self.counter.add(spike_events=spikes, **tally, **extra)


class Network:
    """A spiking neural network assembled from groups and connections.

    Parameters
    ----------
    params:
        Global simulation timing parameters.  Defaults to the paper's
        350 ms presentation / 150 ms rest at a 1 ms timestep; experiments in
        this repository typically scale these down.
    name:
        Identifier used in reports.
    backend:
        Compute backend (name or instance) executing every state-update
        kernel; defaults to ``"dense"``.  The network owns the compute
        policy: every group and connection added to it is switched to this
        backend, and :meth:`set_backend` retargets a built network in place.
    """

    def __init__(self, params: Optional[SimulationParameters] = None,
                 name: str = "snn", backend: BackendLike = None) -> None:
        self.params = params if params is not None else SimulationParameters()
        self.name = str(name)
        self.backend = get_backend(backend)
        self.groups: Dict[str, NeuronGroup] = {}
        self.connections: List[Connection] = []
        self.spike_monitors: List[SpikeMonitor] = []
        self.state_monitors: List[StateMonitor] = []
        self.counter = OperationCounter()
        self._input_group: Optional[InputGroup] = None

    # -- construction -------------------------------------------------------

    def add_group(self, group: NeuronGroup) -> NeuronGroup:
        """Register a neuron group (its name must be unique)."""
        if group.name in self.groups:
            raise ValueError(f"a group named {group.name!r} already exists")
        self.groups[group.name] = group
        group.backend = self.backend
        if isinstance(group, InputGroup):
            if self._input_group is not None:
                raise ValueError("network already has an input group")
            self._input_group = group
        return group

    def add_connection(self, connection: Connection) -> Connection:
        """Register a connection (both endpoint groups must be registered)."""
        for endpoint in (connection.pre, connection.post):
            if endpoint.name not in self.groups or self.groups[endpoint.name] is not endpoint:
                raise ValueError(
                    f"group {endpoint.name!r} must be added to the network "
                    "before connections that use it"
                )
        self.connections.append(connection)
        connection.backend = self.backend
        return connection

    def add_spike_monitor(self, monitor: SpikeMonitor) -> SpikeMonitor:
        """Attach a spike monitor that is sampled every timestep."""
        self.spike_monitors.append(monitor)
        return monitor

    def add_state_monitor(self, monitor: StateMonitor) -> StateMonitor:
        """Attach a state monitor that is sampled every timestep."""
        self.state_monitors.append(monitor)
        return monitor

    # -- introspection -------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Registry name of the active compute backend."""
        return self.backend.name

    def set_backend(self, backend: BackendLike) -> None:
        """Switch the whole network to ``backend`` (name or instance).

        Backends are stateless kernel bundles, so switching mid-simulation is
        safe: all state arrays stay where they are and only the kernels that
        advance them change.
        """
        self.backend = get_backend(backend)
        for group in self.groups.values():
            group.backend = self.backend
        for connection in self.connections:
            connection.backend = self.backend

    @property
    def input_group(self) -> InputGroup:
        """The network's input group (raises if none was added)."""
        if self._input_group is None:
            raise RuntimeError("network has no InputGroup")
        return self._input_group

    def group(self, name: str) -> NeuronGroup:
        """Look up a group by name."""
        return self.groups[name]

    def connection(self, name: str) -> Connection:
        """Look up a connection by name (raises ``KeyError`` if unknown)."""
        for conn in self.connections:
            if conn.name == name:
                return conn
        raise KeyError(f"no connection named {name!r}")

    @property
    def weight_count(self) -> int:
        """Total number of synaptic weights across all connections."""
        return sum(conn.weight_count for conn in self.connections)

    @property
    def neuron_parameter_count(self) -> int:
        """Total number of per-neuron state parameters across all groups."""
        return sum(group.parameter_count for group in self.groups.values())

    # -- simulation ----------------------------------------------------------

    @property
    def batch_size(self) -> Optional[int]:
        """Active batch size while :meth:`run_batch` is executing, else ``None``."""
        if self._input_group is not None:
            return self._input_group.batch_size
        for group in self.groups.values():
            return group.batch_size
        return None

    def _begin_batch(self, batch_size: int) -> None:
        """Switch every group and connection into ``(batch_size, n)`` state."""
        for group in self.groups.values():
            group.begin_batch(batch_size)
        for connection in self.connections:
            connection.begin_batch(batch_size)

    def _end_batch(self) -> None:
        """Restore single-sample state buffers (tolerant of partial entry)."""
        for group in self.groups.values():
            group.end_batch()
        for connection in self.connections:
            connection.end_batch()

    def reset_transient_state(self) -> None:
        """Reset per-sample state (potentials, conductances, input cursors)."""
        for group in self.groups.values():
            group.reset_state(full=False)
        for connection in self.connections:
            connection.reset_state(full=False)

    def reset(self, full: bool = False) -> None:
        """Reset the network.

        With ``full=True`` adaptation variables and learning-rule state are
        also cleared; synaptic weights are never touched.  An active batch
        mode is always exited first, so after a reset every state buffer —
        and every monitor attached afterwards — sees plain ``(n,)`` shapes
        rather than stale ``(batch_size, n)`` buffers.
        """
        self._end_batch()
        for group in self.groups.values():
            group.reset_state(full=full)
        for connection in self.connections:
            connection.reset_state(full=full)
        for monitor in self.spike_monitors:
            monitor.reset()
        for monitor in self.state_monitors:
            monitor.reset()
        self.counter.reset()

    def run_sample(self, spike_train: np.ndarray, *, learning: bool = True,
                   include_rest: bool = False) -> SampleResult:
        """Present one rate-coded sample to the network.

        Parameters
        ----------
        spike_train:
            Boolean array of shape ``(timesteps, n_input)``.
        learning:
            Enable plasticity on connections with learning rules.
        include_rest:
            When ``True``, simulate ``params.rest_steps`` additional steps
            with no input after the presentation window.

        Returns
        -------
        SampleResult
            Per-group spike counts over the presentation window.
        """
        train = self.input_group.set_spike_train(spike_train)
        return self._run(train, range(len(train)), steps=len(train),
                         learning=learning, include_rest=include_rest)

    def run_batch(self, spike_trains: np.ndarray, *, learning: bool = False,
                  include_rest: bool = False) -> List[SampleResult]:
        """Present a batch of rate-coded samples and return per-sample results.

        Parameters
        ----------
        spike_trains:
            Boolean array of shape ``(batch_size, timesteps, n_input)`` (or a
            sequence of equal-length ``(timesteps, n_input)`` trains, which is
            stacked).
        learning:
            When ``False`` (the default, the inference hot path) all samples
            advance simultaneously in ``(batch_size, n)``-shaped vectorized
            state.  When ``True`` the samples are applied one at a time via
            :meth:`run_sample`, so plasticity sees exactly the same weight
            trajectory as a sequential loop.
        include_rest:
            When ``True``, simulate ``params.rest_steps`` additional steps
            with no input after the presentation window.

        Returns
        -------
        list of SampleResult
            One result per sample, in input order — identical to what ``B``
            :meth:`run_sample` calls would return.

        Notes
        -----
        **Equivalence guarantee.**  Batched inference performs, per sample,
        exactly the same floating-point operations as the sequential path
        (elementwise updates broadcast over the batch axis; the dense
        spike-to-conductance projection runs one vector-matrix product per
        spiking sample), so spike counts, membrane trajectories, and
        :class:`~repro.snn.simulation.OperationCounter` totals are bit-for-bit
        identical to ``B`` independent :meth:`run_sample` calls.

        **Adaptation state.**  Samples in a batch are independent: each gets
        its own copy of slowly-varying adaptation state (e.g. the threshold
        potential ``theta``), and the persistent copy is restored unchanged
        when the batch finishes.  A *sequential* loop over samples instead
        carries ``theta`` drift from one sample into the next; the two modes
        therefore only diverge when ``adapt_theta`` is enabled with a nonzero
        ``theta_plus``.  With ``learning=True`` the sequential-equivalent path
        is used, which preserves that drift exactly.
        """
        try:
            trains = np.asarray(spike_trains)
            if trains.dtype == object:
                raise ValueError("ragged batch")
        except ValueError as error:
            raise ValueError(
                "all spike trains in a batch must have the same number of "
                "timesteps"
            ) from error
        if trains.ndim != 3:
            raise ValueError(
                "spike_trains must have shape (batch_size, timesteps, "
                f"n_input), got {trains.shape}"
            )
        input_group = self.input_group
        if trains.shape[2] != input_group.n:
            raise ValueError(
                f"spike_trains must have {input_group.n} input channels, "
                f"got {trains.shape[2]}"
            )

        if learning:
            # Sequential-equivalent application keeps the weight trajectory —
            # and therefore the learned weights — bit-for-bit identical to a
            # run_sample loop.
            return [
                self.run_sample(train, learning=True, include_rest=include_rest)
                for train in trains
            ]

        batch_size, steps, _ = trains.shape
        self._begin_batch(batch_size)
        try:
            trains = input_group.set_spike_train(trains)
            batched = self._run(np.moveaxis(trains, 1, 0), range(steps),
                                steps=steps, learning=False,
                                include_rest=include_rest)
        finally:
            self._end_batch()

        return [
            SampleResult(
                spike_counts={name: counts[index].copy()
                              for name, counts in batched.spike_counts.items()},
                steps=batched.steps,
                learning=False,
            )
            for index in range(batch_size)
        ]

    def run_events(self, events, *, learning: bool = False,
                   include_rest: bool = False,
                   allow_jumps: Optional[bool] = None):
        """Present input as spike *events*; cost scales with events, not steps.

        The event-driven counterpart of :meth:`run_sample`: the input is a
        time-ordered queue of (step, channel) firings, and between active
        steps the engine advances all exponential state (membranes,
        conductances, theta, STDP traces) analytically across the silent
        gap — but only when a conservative bound proves the gap could not
        have produced a spike under the stepped arithmetic (see
        :mod:`repro.snn.events`).  Steps that deliver events, or whose
        silence is not provable (e.g. post-burst conductance tails), are
        executed with the ordinary per-timestep kernels, so spike counts
        match the stepped reference exactly on every workload the bound
        covers; float state differs only by closed-form-vs-iterated decay
        rounding (the ``eventqueue`` backend's ``tolerance`` tier).

        Parameters
        ----------
        events:
            An :class:`~repro.snn.events.EventStream`, a dense boolean
            ``(timesteps, n_input)`` train (converted losslessly), or a
            sequence / ``(batch, timesteps, n_input)`` stack of either —
            batches are streamed one sample at a time, which is the
            intended serving shape for long-horizon low-rate inputs.
        learning:
            Enable plasticity.  Gaps are only jumped when every attached
            learning rule declares ``supports_analytic_silence`` (pairwise
            STDP does; rules that update weights on silent steps, like ASP
            leak or SpikeDyn window boundaries, force full stepping).
        include_rest:
            Simulate ``params.rest_steps`` of silence after the
            presentation — usually one analytic jump.
        allow_jumps:
            Override the jump policy; defaults to the active backend's
            ``supports_events`` declaration, and monitors always force
            stepping (they observe every timestep).

        Returns
        -------
        SampleResult or list of SampleResult
            One result for a single stream/train, a list for a batch.
        """
        if isinstance(events, (list, tuple)) or (
                not hasattr(events, "n_events") and np.ndim(events) == 3):
            return [self.run_events(item, learning=learning,
                                    include_rest=include_rest,
                                    allow_jumps=allow_jumps)
                    for item in events]
        if self.batch_size is not None:
            raise RuntimeError(
                "run_events requires single-sample mode; end the active "
                "batch first"
            )
        input_group = self.input_group
        stream = snn_events.as_event_stream(events, n_channels=input_group.n)

        jumps = allow_jumps if allow_jumps is not None \
            else self.backend.supports_events
        if self.spike_monitors or self.state_monitors:
            jumps = False
        if learning and jumps:
            jumps = all(
                getattr(conn.learning_rule, "supports_analytic_silence", False)
                for conn in self.connections
                if conn.learning_rule is not None
            )

        active_times, rows = stream.active_rows()
        return self._run(rows, active_times.tolist(), steps=stream.n_steps,
                         learning=learning, include_rest=include_rest,
                         jumps=jumps, events=stream.n_events)

    def _run(self, rows: np.ndarray, active_times: Sequence[int], *,
             steps: int, learning: bool, include_rest: bool,
             jumps: bool = False, events: int = 0) -> SampleResult:
        """The run driver behind :meth:`run_sample`, :meth:`run_batch` and
        :meth:`run_events`.

        ``rows[i]`` is the input of step ``active_times[i]`` (ascending);
        every other step of the ``steps``-long presentation and of the rest
        period gets silent input.  With ``jumps``, provably silent gaps are
        advanced analytically.  ``events`` is the run's ``events_processed``.
        """
        rest_steps = self.params.rest_steps if include_rest else 0
        total_steps = steps + rest_steps
        rules = [connection for connection in self.connections
                 if learning and connection.learning_rule is not None]
        for connection in rules:
            connection.learning_rule.on_sample_start(connection)
        plan = RunPlan(self)
        counts = None
        n_active = len(active_times)
        pointer = t_index = 0
        while t_index < total_steps:
            learn = learning and t_index < steps
            if pointer < n_active and active_times[pointer] == t_index:
                row = rows[pointer]
                pointer += 1
            else:
                row = plan.silent_row
                if jumps:
                    stop = active_times[pointer] if pointer < n_active \
                        else total_steps
                    # Plasticity stops at the presentation boundary (the rest
                    # period never updates traces), so jumps do not cross it.
                    if learn:
                        stop = min(stop, steps)
                    if snn_events.silence_is_provable(self, plan=plan):
                        snn_events.advance_analytic(
                            self, stop - t_index, decay_traces=learn, plan=plan)
                        t_index = stop
                        continue
            if counts is None and t_index >= steps:
                counts = plan.spike_counts()
            plan.step(row, t_index, learn)
            t_index += 1
        plan.account(events_processed=events)
        for connection in rules:
            connection.learning_rule.on_sample_end(connection, self.counter)
        if counts is None:
            counts = plan.spike_counts()
        counts[self.input_group.name] = rows.sum(axis=0, dtype=np.int64)
        self.reset_transient_state()
        return SampleResult(spike_counts={name: counts[name] for name in self.groups},
                            steps=total_steps, learning=learning)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, groups={list(self.groups)}, "
            f"connections={[c.name for c in self.connections]})"
        )
