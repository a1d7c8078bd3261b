"""Differential testing: the event-heap engine vs. the naive oracle.

Random generator protocols (randomized actions, per-node divergence,
feedback-dependent behaviour) must produce byte-identical results under
:class:`Simulator` and :class:`ReferenceSimulator`: same outputs, same
energy meters, same finish slots, same duration.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import clique, grid_graph, path_graph, random_gnp, star_graph
from repro.sim import (
    ExecutionConfig,
    BEEPING,
    CD,
    CD_FD,
    CD_STAR,
    LOCAL,
    NO_CD,
    Idle,
    Listen,
    Send,
    Simulator,
)
from repro.sim.actions import SendListen
from repro.sim.models import LossyModel
from repro.sim.reference import ReferenceSimulator
from repro.sim.resolution import numpy_available

# The numpy backend joins the sweep when numpy is installed; without it
# the suite still passes (resolution="numpy" would just alias bitmask).
RESOLUTIONS = ("bitmask",) + (("numpy",) if numpy_available() else ())

FIVE_MODELS = {
    "LOCAL": LOCAL,
    "CD": CD,
    "No-CD": NO_CD,
    "CD*": CD_STAR,
    "BEEP": BEEPING,
}


def _random_protocol(steps: int, duplex: bool):
    """A protocol whose actions depend on private randomness and on the
    feedback it hears (exercising feedback-driven divergence)."""

    def protocol(ctx):
        heard = 0
        for step in range(steps):
            roll = ctx.rng.random()
            if roll < 0.3:
                yield Send(("m", ctx.index, step, heard))
            elif roll < 0.65:
                feedback = yield Listen()
                if feedback not in (None, ()) and not isinstance(feedback, str):
                    heard += 1
            elif duplex and roll < 0.75:
                feedback = yield SendListen(("d", ctx.index, step))
                if feedback:
                    heard += 1
            else:
                yield Idle(1 + ctx.rng.randrange(4))
        return (ctx.index, heard)

    return protocol


def _assert_same(fast, slow):
    assert fast.outputs == slow.outputs
    assert [e.total for e in fast.energy] == [e.total for e in slow.energy]
    assert [e.sends for e in fast.energy] == [e.sends for e in slow.energy]
    assert [e.listens for e in fast.energy] == [e.listens for e in slow.energy]
    assert fast.finish_slot == slow.finish_slot
    assert fast.duration == slow.duration


def _compare(graph, model, protocol, seed, inputs=None, model_factory=None):
    """The engine, under every resolution backend, must match the
    reference oracle.

    ``model_factory`` builds a fresh model per run for stateful channels
    (LossyModel carries rng state across runs, so each simulator needs
    its own instance).
    """
    make = model_factory or (lambda: model)
    slow = ReferenceSimulator(graph, make(), seed=seed).run(protocol, inputs=inputs)
    for resolution in RESOLUTIONS:
        fast = Simulator(
            graph, make(), seed=seed,
            exec_config=ExecutionConfig(resolution=resolution),
        ).run(protocol, inputs=inputs)
        _assert_same(fast, slow)


class TestEquivalence:
    @pytest.mark.parametrize("model", [NO_CD, CD, LOCAL])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_protocols_on_grid(self, model, seed):
        graph = grid_graph(3, 3)
        _compare(graph, model, _random_protocol(12, duplex=False), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_duplex_on_clique(self, seed):
        graph = clique(5)
        _compare(graph, CD_FD, _random_protocol(10, duplex=True), seed)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=10),
        steps=st.integers(min_value=1, max_value=15),
    )
    def test_hypothesis_random_graphs(self, seed, n, steps):
        graph = random_gnp(n, 0.4, random.Random(seed))
        _compare(graph, NO_CD, _random_protocol(steps, duplex=False), seed)

    def test_real_algorithm_decay(self):
        from repro.broadcast import decay_broadcast_protocol, source_inputs
        from repro.sim import Knowledge

        graph = path_graph(6)
        protocol = decay_broadcast_protocol(failure=0.05)
        inputs = source_inputs(0, "m")
        for seed in (0, 1):
            fast = Simulator(
                graph, NO_CD, seed=seed,
                knowledge=Knowledge(n=6, max_degree=2, diameter=5),
            ).run(protocol, inputs=inputs)
            slow = ReferenceSimulator(
                graph, NO_CD, seed=seed,
                knowledge=Knowledge(n=6, max_degree=2, diameter=5),
            ).run(protocol, inputs=inputs)
            assert fast.outputs == slow.outputs
            assert fast.duration == slow.duration
            assert [e.total for e in fast.energy] == [
                e.total for e in slow.energy
            ]

    def test_real_algorithm_path(self):
        from repro.broadcast import source_inputs
        from repro.broadcast.path import path_broadcast_protocol
        from repro.sim import Knowledge

        graph = path_graph(8)
        protocol = path_broadcast_protocol(oriented=True)
        inputs = source_inputs(0, "m")
        knowledge = Knowledge(n=8, max_degree=2, diameter=7)
        fast = Simulator(graph, LOCAL, seed=3, knowledge=knowledge).run(
            protocol, inputs=inputs
        )
        slow = ReferenceSimulator(graph, LOCAL, seed=3, knowledge=knowledge).run(
            protocol, inputs=inputs
        )
        assert fast.outputs == slow.outputs
        assert fast.duration == slow.duration

    def test_star_contention(self):
        _compare(star_graph(6), CD, _random_protocol(14, duplex=False), 7)


class TestAllModelsBothPaths:
    """The satellite sweep: five channel models x LossyModel wrapper x
    random protocols x every engine resolution backend, all
    differentially pinned to the reference oracle."""

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    @pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_model_matrix(self, model_name, lossy, seed):
        base = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(40 + seed))
        if lossy:
            factory = lambda: LossyModel(base, 0.35, seed=91)
        else:
            factory = lambda: base
        _compare(
            graph,
            base,
            _random_protocol(14, duplex=False),
            seed,
            model_factory=factory,
        )

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_model_matrix_dense_contention(self, model_name):
        """Clique stress: every reception sees high contention, driving
        the >=2-transmitters branches (NOISE, LOCAL's full-list path)."""
        base = FIVE_MODELS[model_name]
        _compare(clique(7), base, _random_protocol(12, duplex=False), 3)

    @pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
    def test_full_duplex_lossy_receiver_order(self, lossy):
        """Duplexers and listeners interleave by vertex index; with a
        stateful (lossy) channel the resolution *order* itself is part of
        the semantics, so engine and oracle must consume channel
        randomness identically."""
        base = LOCAL  # full duplex
        if lossy:
            factory = lambda: LossyModel(base, 0.3, seed=17)
        else:
            factory = lambda: base
        for seed in (0, 1, 2):
            _compare(
                clique(6),
                base,
                _random_protocol(12, duplex=True),
                seed,
                model_factory=factory,
            )

    def test_lossy_nocd_on_grid(self):
        factory = lambda: LossyModel(NO_CD, 0.5, seed=5)
        _compare(
            grid_graph(3, 4),
            NO_CD,
            _random_protocol(16, duplex=False),
            11,
            model_factory=factory,
        )
