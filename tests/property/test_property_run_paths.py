"""Differential property: the three run paths of the network agree.

``run_sample``, ``run_batch`` and ``run_events`` (stepping every timestep,
or jumping provably silent gaps) are one driver fed three ways.  On
generated small networks and inputs — empty trains, a single spike on the
last step, saturating weights, rest on and off, plasticity on and off —
every path must return identical spike counts, and every path that steps
each timestep must charge identical operation tallies.  Each path runs on a
fresh deep copy, so adaptation state (theta) never carries between runs.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.stdp import PairwiseSTDP
from repro.snn.network import Network
from repro.snn.neurons import AdaptiveLIFGroup, InputGroup
from repro.snn.simulation import SimulationParameters
from repro.snn.synapses import Connection, UniformLateralInhibition


@st.composite
def cases(draw):
    steps = draw(st.integers(min_value=1, max_value=40))
    n_input = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["bursty", "empty", "last_step"]))
    train = np.zeros((steps, n_input), dtype=bool)
    if kind == "bursty":
        active = rng.random(steps) < draw(st.sampled_from([0.1, 0.4, 1.0]))
        train[active] = rng.random((int(active.sum()), n_input)) < 0.5
    elif kind == "last_step":
        train[-1, rng.integers(n_input)] = True
    return {
        "train": train,
        "n_exc": draw(st.integers(min_value=1, max_value=5)),
        # 50x drives every target to threshold on every input spike.
        "scale": draw(st.sampled_from([0.5, 3.0, 50.0])),
        "refractory": draw(st.sampled_from([0.0, 1.0, 3.0])),
        "lateral": draw(st.booleans()),
        "learning": draw(st.booleans()),
        "include_rest": draw(st.booleans()),
        "rng": rng,
    }


def build(case) -> Network:
    n_input = case["train"].shape[1]
    network = Network(SimulationParameters(dt=1.0, t_sim=40.0, t_rest=12.0))
    inputs = network.add_group(InputGroup(n_input, name="input"))
    excitatory = network.add_group(AdaptiveLIFGroup(
        case["n_exc"], refractory=case["refractory"], theta_plus=0.05,
        name="excitatory"))
    weights = case["rng"].uniform(0.0, case["scale"], size=(n_input, case["n_exc"]))
    network.add_connection(Connection(
        inputs, excitatory, weights, w_max=2.0 * case["scale"],
        learning_rule=PairwiseSTDP() if case["learning"] else None,
        name="input_to_exc"))
    if case["lateral"]:
        network.add_connection(UniformLateralInhibition(excitatory, 1.0))
    return network


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_run_paths_agree_on_counts_and_tallies(case):
    train = case["train"]
    options = {"learning": case["learning"], "include_rest": case["include_rest"]}
    paths = {
        "run_sample": lambda net: net.run_sample(train, **options),
        "run_batch": lambda net: net.run_batch(train[None], **options)[0],
        "run_events": lambda net: net.run_events(train, allow_jumps=False,
                                                 **options),
        "run_events_jumps": lambda net: net.run_events(train, allow_jumps=True,
                                                       **options),
    }
    template = build(case)
    counts, tallies = {}, {}
    for path, run in paths.items():
        network = copy.deepcopy(template)
        result = run(network)
        counts[path] = {name: result.counts(name).tolist()
                        for name in network.groups}
        tallies[path] = network.counter.as_dict()

    for path in paths:
        assert counts[path] == counts["run_sample"], path
    for path in ("run_events", "run_events_jumps"):
        assert tallies[path].pop("events_processed") == int(train.sum())
    stepped = tallies["run_sample"]
    assert stepped.pop("events_processed") == 0
    assert tallies["run_batch"].pop("events_processed") == 0
    assert tallies["run_batch"] == stepped
    assert tallies["run_events"] == stepped
    assert stepped["steps_skipped"] == 0
    assert tallies["run_events_jumps"]["steps_skipped"] <= \
        len(train) + (12 if case["include_rest"] else 0)
