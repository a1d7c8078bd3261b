"""Differential testing: the event-heap engine vs. the naive oracle.

Random generator protocols (randomized actions, per-node divergence,
feedback-dependent behaviour) must produce byte-identical results under
:class:`Simulator` and :class:`ReferenceSimulator`: same outputs, same
energy reports, same finish slots, same duration.  Plan-yielding
protocols also pin the engine's posted sends and posted listens against
its per-slot path, and the slot budget's edge (a run may still end in
slot ``time_limit + 1``) against the oracle in every engine.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
    ListenUntil,
    Repeat,
    Send,
    Simulator,
    SimulationTimeout,
    SlotObserver,
    Steps,
    run_trials,
)
from repro.sim.actions import SendListen
from repro.sim.faults import parse_fault_specs
from repro.sim.models import LossyModel
from repro.sim.observers import EnergyObserver
from repro.sim.reference import ReferenceSimulator
from repro.sim.resolution import numpy_available
from tests.conftest import assert_same_run

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
        assert_same_run(fast, slow)


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
            assert_same_run(fast, slow)

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
        assert_same_run(fast, slow)

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


# --- plans, fault families and the slot budget ------------------------------


FAULTS = (
    {},
    {"churn": "periodic:period=7,down=2,stagger=1"},
    {"churn": "random:p=0.4,period=9,down=3"},
    {"jam": "random:rate=0.3"},
    {"jam": "reactive:min=2"},
    {"burst_loss": "p_gb=0.2,p_bg=0.4,good=0.05,bad=0.9"},
)


#: The longest a step of :func:`_plan_protocol` can last, in slots: a
#: send-only ``Steps`` of four ``Idle(3)``.
_LONGEST_STEP = 12


def _accept_from(parity: int):
    """An ``accept`` filter: a message (or LOCAL's tuple of messages,
    by its first one) whose sender's index has ``parity``."""

    def accept(feedback):
        message = feedback[0] if feedback[0].__class__ is tuple else feedback
        return message[1] % 2 == parity

    return accept


_ACCEPTS = (None, _accept_from(0), _accept_from(1))


def _frame(rng, k: int, message):
    """One node's part of a k-slot SR-style frame, by its own draws: a
    send-only ``Steps`` sender (posted), a padded ``ListenUntil``
    receiver with a random ``accept``, or an ``Idle(k)`` bystander."""
    roll = rng.random()
    if roll < 0.35:
        acts = []
        left = k
        while left:
            if rng.random() < 0.5:
                acts.append(Send(message))
                left -= 1
            else:
                idle = 1 + rng.randrange(left)
                acts.append(Idle(idle))
                left -= idle
        return Steps(tuple(acts))
    if roll < 0.8:
        return ListenUntil(k, accept=rng.choice(_ACCEPTS), pad=True)
    return Idle(k)


def _plan_protocol(steps: int, duplex: bool, frames=()):
    """A protocol mixing every plan shape with per-slot actions: send-only
    ``Steps`` (which the engine posts), ``Repeat(Send)``, padded and
    unpadded ``ListenUntil``, mixed ``Steps``, and single actions.

    ``frames`` holds ``(position, k)`` frame rounds, shared by every
    node: before step ``position`` (after the last step if none is left)
    every node idles to a slot none of them can have passed, so all
    enter one k-slot frame together (:func:`_frame`), as the SR frames
    of Table 1's schedules do."""

    def protocol(ctx):
        rng = ctx.rng
        heard = []
        pending = sorted(frames)
        start = 0  # no node is past this slot when it reaches the step
        for step in range(steps + 1):
            while pending and min(pending[0][0], steps) == step:
                _, k = pending.pop(0)
                if ctx.time < start:
                    yield Idle(start - ctx.time)
                heard.append((yield _frame(rng, k, ("f", ctx.index, step))))
                start += k
            if step == steps:
                break
            start += _LONGEST_STEP
            roll = rng.random()
            message = ("m", ctx.index, step)
            if roll < 0.2:
                acts = tuple(
                    Send(message) if rng.random() < 0.5
                    else Idle(1 + rng.randrange(3))
                    for _ in range(1 + rng.randrange(4))
                )
                heard.append((yield Steps(acts)))
            elif roll < 0.3:
                heard.append((yield Repeat(
                    Send(message), 1 + rng.randrange(4)
                )))
            elif roll < 0.45:
                heard.append((yield ListenUntil(
                    1 + rng.randrange(5), pad=rng.random() < 0.5
                )))
            elif roll < 0.55:
                kinds = [Send(message), Listen(), Idle(1 + rng.randrange(2))]
                if duplex:
                    kinds.append(SendListen(message))
                acts = tuple(
                    rng.choice(kinds) for _ in range(1 + rng.randrange(4))
                )
                heard.append((yield Steps(acts)))
            elif roll < 0.65:
                yield Send(message)
            elif roll < 0.8:
                heard.append((yield Listen()))
            elif duplex and roll < 0.85:
                heard.append((yield SendListen(message)))
            else:
                yield Idle(1 + rng.randrange(3))
        return (ctx.index, heard)

    return protocol


def _outcome(run):
    """``run()``'s comparable fields, or its SimulationTimeout message."""
    try:
        result = run()
    except SimulationTimeout as exc:
        return str(exc)
    return (result.outputs, result.energy, result.finish_slot,
            result.duration, result.gen_entries)


def _without_entries(outcome):
    # The oracle enters its per-slot plan driver once per slot, so its
    # generator-entry count is not the engines'.
    return outcome if isinstance(outcome, str) else outcome[:4]


#: What the plan differential's posted runs charged through
#: ``charge_listens``: examples run, examples that charged, and calls.
_POSTED_LISTENS = {"examples": 0, "posting": 0, "charges": 0}
_charge_listens = EnergyObserver.charge_listens


def _counting_charge_listens(self, v, count, last):
    _POSTED_LISTENS["charges"] += 1
    _charge_listens(self, v, count, last)


def _frame_examples(test):
    """One explicit example per model in which every node enters two
    frame rounds on a clean channel, so the posted run resolves listen
    windows whole."""
    for seed, model_name in enumerate(sorted(FIVE_MODELS)):
        test = example(
            seed=seed, n=6, model_name=model_name, lossy=False, fault=0,
            steps=2, time_limit=40, frames=[(0, 6), (2, 4)],
        )(test)
    return test


@settings(max_examples=200, deadline=None)
@_frame_examples
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=7),
    model_name=st.sampled_from(sorted(FIVE_MODELS)),
    lossy=st.booleans(),
    fault=st.sampled_from(range(len(FAULTS))),
    steps=st.integers(min_value=1, max_value=12),
    time_limit=st.integers(min_value=1, max_value=40),
    frames=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=8),
        ),
        max_size=3,
    ),
)
def _plan_differential(
    seed, n, model_name, lossy, fault, steps, time_limit, frames
):
    """One example of the plan differential: the oracle, and the serial
    engine posted (counting ``charge_listens`` calls) and stepped."""
    base = FIVE_MODELS[model_name]
    graph = random_gnp(n, 0.5, random.Random(seed))
    protocol = _plan_protocol(steps, base.full_duplex, frames)
    config = ExecutionConfig(time_limit=time_limit, **FAULTS[fault])

    def make():
        return LossyModel(base, 0.3, seed=seed) if lossy else base

    oracle = _outcome(lambda: ReferenceSimulator(
        graph, make(), seed=seed, time_limit=time_limit,
        faults=parse_fault_specs(config),
    ).run(protocol))
    charged = _POSTED_LISTENS["charges"]
    with mock.patch.object(
        EnergyObserver, "charge_listens", _counting_charge_listens
    ):
        posted = _outcome(lambda: Simulator(
            graph, make(), seed=seed, exec_config=config,
        ).run(protocol))
    _POSTED_LISTENS["examples"] += 1
    _POSTED_LISTENS["posting"] += _POSTED_LISTENS["charges"] > charged
    # Any observer besides the energy meter turns posting off.
    stepped = _outcome(lambda: Simulator(
        graph, make(), seed=seed, exec_config=config,
        observers=[SlotObserver()],
    ).run(protocol))
    assert _without_entries(posted) == _without_entries(oracle)
    assert stepped == posted


class TestPlansFaultsAndBudgets:
    def test_plan_protocols_match_the_oracle(self):
        """Posted and stepped runs of the serial engine equal the oracle,
        under every model, lossy or not, under each fault family, with
        budgets that often cut the run: the same results or the same
        timeout message (200 generated examples).  Frame rounds put
        every node into one frame, where the posted run resolves
        receivers' windows whole: at least the five explicit frame
        examples, one per model, must do so, where unsynchronised steps
        alone almost never leave a listener's neighbours all fixed."""
        _POSTED_LISTENS.update(examples=0, posting=0, charges=0)
        _plan_differential()
        assert _POSTED_LISTENS["posting"] >= 5, _POSTED_LISTENS


def _edge_outcomes(graph, protocol, time_limit):
    """The oracle's outcome of one run, after asserting that the serial
    engine, posted and stepped, and the lock-step dispatch all equal it."""
    config = ExecutionConfig(time_limit=time_limit)
    oracle = _without_entries(_outcome(lambda: ReferenceSimulator(
        graph, NO_CD, seed=0, time_limit=time_limit,
    ).run(protocol)))
    engines = {
        "posted": lambda: Simulator(
            graph, NO_CD, seed=0, exec_config=config,
        ).run(protocol),
        "stepped": lambda: Simulator(
            graph, NO_CD, seed=0, exec_config=config,
            observers=[SlotObserver()],
        ).run(protocol),
        "lockstep": lambda: run_trials(
            graph, NO_CD, protocol, [0],
            exec_config=config.replace(
                lockstep=True, resolution=RESOLUTIONS[-1]
            ),
        )[0],
    }
    for name, run in engines.items():
        assert _without_entries(_outcome(run)) == oracle, name
    return oracle


class TestSlotBudgetEdge:
    """A run may still end in slot ``time_limit + 1``: the oracle
    advances an idle in the slot where it ends, so a node whose idle or
    posted plan ends at ``time_limit + 1`` wakes and returns.  Every
    executor must agree, on results and on timeout messages."""

    def test_idle_ending_past_the_limit_completes(self):
        def protocol(ctx):
            yield Idle(3)
            return ctx.index

        outputs, _, _, duration = _edge_outcomes(path_graph(2), protocol, 2)
        assert (outputs, duration) == ([0, 1], 3)

    def test_posted_plan_ending_at_the_edge_completes(self):
        def protocol(ctx):
            yield Steps((Idle(2), Send("m"), Send("m")))
            return ctx.index

        outputs, _, _, duration = _edge_outcomes(path_graph(2), protocol, 3)
        assert (outputs, duration) == ([0, 1], 4)

    def test_timeout_counts_protocols_after_the_edge_wakeups(self):
        def protocol(ctx):
            yield Idle(3)
            if ctx.index:
                yield Idle(5)
            return ctx.index

        assert _edge_outcomes(path_graph(2), protocol, 2) == (
            "simulation exceeded 2 slots (1 protocols still running, seed 0)"
        )
