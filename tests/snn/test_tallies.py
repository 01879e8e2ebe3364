"""Pinned operation tallies of one fixed network on every run path.

``energy_mj_per_sample`` and the latency model are computed from these
tallies, so the exact values are pinned: any change to how the run driver
accounts (per step, per presentation, per analytic jump) shows up here.
The network has every kind of component the driver accounts for: an
adaptive and a plain LIF group, a plastic dense projection with STDP, a
fixed one-to-one and a fixed inhibitory projection, and uniform lateral
inhibition.  Rest periods are on, so spikes fired after the presentation
window are charged but not counted in the results.
"""

from __future__ import annotations

import numpy as np

from repro.learning.stdp import PairwiseSTDP
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup, LIFGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition

N_INPUT = 12
N_EXC = 6


def build_network(backend: str = "dense") -> Network:
    rng = np.random.default_rng(11)
    network = Network(SimulationParameters(dt=1.0, t_sim=60.0, t_rest=15.0),
                      backend=backend)
    inputs = network.add_group(InputGroup(N_INPUT, name="input"))
    excitatory = network.add_group(AdaptiveLIFGroup(
        N_EXC, refractory=2.0, theta_plus=0.05, name="excitatory"))
    inhibitory = network.add_group(LIFGroup(N_EXC, refractory=1.0,
                                            name="inhibitory"))
    network.add_connection(Connection(
        inputs, excitatory, rng.uniform(0.0, 1.5, size=(N_INPUT, N_EXC)),
        w_max=3.0, learning_rule=PairwiseSTDP(), norm=4.0, name="input_to_exc"))
    network.add_connection(Connection(excitatory, inhibitory,
                                      20.0 * np.eye(N_EXC), w_max=30.0,
                                      name="exc_to_inh"))
    network.add_connection(Connection(inhibitory, excitatory,
                                      2.0 * (1.0 - np.eye(N_EXC)), sign=-1,
                                      w_max=3.0, name="inh_to_exc"))
    network.add_connection(UniformLateralInhibition(excitatory, 0.5,
                                                    name="lateral"))
    return network


def trains(batch: int = 3) -> np.ndarray:
    rng = np.random.default_rng(5)
    spikes = rng.random((batch, 60, N_INPUT)) < 0.15
    spikes[:, 20:50] = False  # a silent gap for the event engine to jump
    return spikes


def test_run_sample_with_learning_and_rest():
    network = build_network()
    result = network.run_sample(trains()[0], learning=True, include_rest=True)
    assert network.counter.as_dict() == {
        "neuron_updates": 1350, "synaptic_events": 8550,
        "exponential_ops": 4230, "trace_updates": 1148,
        "weight_updates": 364, "spike_events": 42,
        "events_processed": 0, "steps_skipped": 0,
    }
    assert result.counts("excitatory").tolist() == [0, 3, 3, 1, 2, 0]
    assert result.counts("inhibitory").tolist() == [0, 7, 7, 4, 7, 0]


def test_run_batch_with_rest():
    network = build_network()
    results = network.run_batch(trains(), include_rest=True)
    assert network.counter.as_dict() == {
        "neuron_updates": 4050, "synaptic_events": 25650,
        "exponential_ops": 9450, "trace_updates": 0, "weight_updates": 0,
        "spike_events": 108, "events_processed": 0, "steps_skipped": 0,
    }
    assert [r.counts("excitatory").tolist() for r in results] == [
        [0, 3, 3, 1, 2, 0], [1, 1, 2, 0, 1, 1], [0, 3, 3, 0, 1, 0]]


def test_run_events_with_jumps_and_rest():
    network = build_network("eventqueue")
    result = network.run_events(trains()[0], include_rest=True)
    assert network.counter.as_dict() == {
        "neuron_updates": 1008, "synaptic_events": 6270,
        "exponential_ops": 2352, "trace_updates": 0, "weight_updates": 0,
        "spike_events": 42, "events_processed": 59, "steps_skipped": 20,
    }
    assert result.counts("excitatory").tolist() == [0, 3, 3, 1, 2, 0]
