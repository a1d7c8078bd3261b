"""Posted sends: the serial engine's send-only plans.

With the energy meter as a trial's only observer, the engine posts a
``Steps`` plan that only sends and idles instead of stepping it (see
:mod:`repro.sim.engine`).  Posting must change nothing but the work done:
these tests pin what a posted plan puts on the air, what it charges,
which slots the engine still processes, what a plan turned down half-way
leaves behind, and, for every registry row, that a posted run equals the
same run stepped.  The SR frames that posting serves share their
per-geometry plans across frames and nodes; the SR frame tests pin that
every executor runs them alike and leaves them intact, and how a CD
sender draws its schedule.
"""

from __future__ import annotations

import dataclasses
import random
from functools import cached_property
from types import SimpleNamespace

import pytest

from repro.broadcast.base import BROADCAST_TIME_LIMIT, source_inputs
from repro.campaign.cells import knowledge_for
from repro.campaign.registry import GRAPH_FAMILIES, ROW_REGISTRY, get_row
from repro.core.sr_comm import CDParams, DecayParams, Role, sr_cd, sr_nocd
from repro.graphs import path_graph, random_gnp, star_graph
from repro.sim import (
    CD,
    CD_STAR,
    NO_CD,
    NOISE,
    SILENCE,
    ExecutionConfig,
    Idle,
    Listen,
    Send,
    Simulator,
    SlotObserver,
    Steps,
    numpy_available,
    run_trials,
)
from repro.sim.energy import EnergyReport
from repro.sim.faults import parse_fault_specs
from repro.sim.models import MODELS
from repro.sim.observers import EnergyObserver
from repro.sim.reference import ReferenceSimulator


def _run(graph, model, protocol, observed=False, **config):
    """One seed-0 run, posted, or stepped when ``observed``."""
    return Simulator(
        graph, model, seed=0, exec_config=ExecutionConfig(**config),
        observers=[SlotObserver()] if observed else (),
    ).run(protocol)


def _same_run(a, b):
    assert a.outputs == b.outputs
    assert a.energy == b.energy
    assert a.finish_slot == b.finish_slot
    assert a.duration == b.duration
    assert a.gen_entries == b.gen_entries


def test_charge_sends_is_one_run_level_charge():
    meter = EnergyObserver()
    meter.on_run_start(2)
    meter.on_slot(0, {}, [1], {}, {1: SILENCE})
    meter.charge_sends(1, 4, 9)
    assert meter.reports()[1] == EnergyReport(
        sends=4, listens=1, duplex=0, total=5, last_active_slot=9
    )


def test_a_slot_of_posted_sends_only_is_never_processed(monkeypatch):
    """Nobody listens: the sends are charged at once and no slot reaches
    the energy meter's per-slot hook, yet the run and its reports are
    the stepped run's."""
    slots = []
    on_slot = EnergyObserver.on_slot

    def counting(self, slot, *rest):
        slots.append(slot)
        on_slot(self, slot, *rest)

    monkeypatch.setattr(EnergyObserver, "on_slot", counting)

    def protocol(ctx):
        if ctx.index == 0:
            yield Steps((Send("a"), Idle(2), Send("b"), Send("b")))
            yield Steps((Send("c"),) * 3)
        else:
            yield Idle(9)
        return ctx.index

    posted = _run(path_graph(2), NO_CD, protocol)
    assert slots == []
    assert posted.energy[0] == EnergyReport(
        sends=6, listens=0, duplex=0, total=6, last_active_slot=7
    )
    assert posted.duration == 9
    stepped = _run(path_graph(2), NO_CD, protocol, observed=True)
    assert slots == [0, 3, 4, 5, 6, 7]
    _same_run(posted, stepped)


def test_steps_over_a_one_shot_iterable_runs_as_stepped():
    """Posting reads a plan's actions twice, so only a tuple is posted;
    ``Steps`` over a generator still runs, through the stepped path."""

    def protocol(ctx):
        if ctx.index == 0:
            yield Steps(Send(k) for k in range(3))
            return None
        yield Idle(2)
        return (yield Listen())

    posted = _run(path_graph(2), NO_CD, protocol)
    assert posted.outputs == [None, 2]
    assert posted.energy[0].sends == 3


def _posted_then_listened(listen_at):
    """Vertex 0 posts a frame; the others listen once at ``listen_at``."""

    def protocol(ctx):
        if ctx.index == 0:
            yield Steps((Send("a"), Idle(3), Send("b"), Idle(2)))
            return None
        if listen_at:
            yield Idle(listen_at)
        return (yield Listen())

    return protocol


@pytest.mark.parametrize("listen_at,heard", [
    (0, "a"), (1, SILENCE), (4, "b"), (5, SILENCE),
])
def test_listeners_hear_posted_senders(listen_at, heard):
    protocol = _posted_then_listened(listen_at)
    posted = _run(path_graph(2), NO_CD, protocol)
    assert posted.outputs == [None, heard]
    _same_run(posted, _run(path_graph(2), NO_CD, protocol, observed=True))


def test_a_down_posted_sender_is_off_the_air_but_charged():
    """Churn takes vertex 0's radio down in slot 4 (periodic, period 4):
    its posted send there vanishes, and it still pays for it."""
    protocol = _posted_then_listened(4)
    churn = "periodic:period=4,down=1"
    posted = _run(path_graph(2), NO_CD, protocol, churn=churn)
    assert posted.outputs == [None, SILENCE]
    assert posted.energy[0].sends == 2
    _same_run(posted, _run(
        path_graph(2), NO_CD, protocol, observed=True, churn=churn,
    ))


def test_the_reactive_jammer_counts_posted_transmitters():
    """Under CD* the hub hears the lowest leaf's message however many
    leaves send, unless the slot is jammed.  Two posted leaves reach the
    threshold of ``reactive:min=2``, so the hub hears the jam (noise);
    one does not."""

    def protocol(ctx):
        if ctx.index == 0:
            return (yield Listen())
        if ctx.index <= ctx.inputs["senders"]:
            yield Steps((Send(("leaf", ctx.index)),) * 2)
        return None

    for senders, heard in ((2, NOISE), (1, ("leaf", 1))):
        inputs = {v: {"senders": senders} for v in range(4)}
        runs = [
            Simulator(
                star_graph(4), CD_STAR, seed=0,
                exec_config=ExecutionConfig(jam="reactive:min=2"),
                observers=observers,
            ).run(protocol, inputs=inputs)
            for observers in ((), [SlotObserver()])
        ]
        assert runs[0].outputs[0] == heard
        _same_run(*runs)


def _half_posted(ctx):
    """Vertex 0's plan sends in slots 0 and 2, then listens in slot 3:
    ``post`` lays both sends before it reaches the listen and turns the
    plan down.  Vertex 1 listens in every other slot and answers in 3."""
    if ctx.index == 0:
        return (yield Steps((Send("a"), Idle(1), Send("a"), Listen(), Idle(2))))
    heard = []
    for slot in range(6):
        if slot == 3:
            yield Send("b")
        else:
            heard.append((yield Listen()))
    return tuple(heard)


@pytest.mark.parametrize("faults", [
    {}, {"churn": "periodic:period=3,down=1"}, {"jam": "reactive:min=1"},
], ids=["clean", "churn", "jam"])
def test_a_plan_turned_down_half_way_runs_as_stepped(faults):
    """The rows ``post`` laid before it met the listen change nothing:
    the run equals the stepped one and the oracle's."""
    graph = path_graph(2)
    config = ExecutionConfig(**faults)
    posted = _run(graph, CD, _half_posted, **faults)
    _same_run(posted, _run(graph, CD, _half_posted, observed=True, **faults))
    oracle = ReferenceSimulator(
        graph, CD, seed=0, faults=parse_fault_specs(config),
    ).run(_half_posted)
    assert posted.outputs == oracle.outputs
    assert posted.energy == oracle.energy
    assert posted.finish_slot == oracle.finish_slot
    assert posted.duration == oracle.duration
    if not faults:
        assert posted.outputs == [("b",), ("a", SILENCE, "a", SILENCE, SILENCE)]


# --- SR frames: shared per-geometry plans ------------------------------------

#: frame kind -> (params, frame generator); one params instance each, so
#: every run below shares its cached plans
SHARED_FRAMES = {
    "nocd": (DecayParams.for_graph(5, 0.05), sr_nocd),
    "cd": (CDParams.for_graph(5, 0.05), sr_cd),
    "cd-probe": (CDParams.for_graph(5, 0.05, probe=True), sr_cd),
    "cd-ack": (CDParams.for_graph(5, 0.05, ack=True), sr_cd),
}


def _shared_parts(params):
    """Every per-geometry part ``params`` builds once and keeps."""
    return {
        name: getattr(params, name)
        for name, attr in vars(type(params)).items()
        if isinstance(attr, cached_property)
    }


def _frame_outcomes(executor, graph):
    """Two frames of each kind per seed, every vertex's roles drawn from
    the seed, run by ``executor``: (kind, seed) -> what the run pins."""
    soa = "numpy" if numpy_available() else "bitmask"
    run = {
        "engine": lambda proto, seed: Simulator(graph, CD, seed=seed).run(proto),
        "lockstep": lambda proto, seed: run_trials(
            graph, CD, proto, [seed],
            exec_config=ExecutionConfig(lockstep=True, resolution=soa),
        )[0],
        "reference": lambda proto, seed: ReferenceSimulator(
            graph, CD, seed=seed,
        ).run(proto),
    }[executor]
    outcomes = {}
    for kind, (params, frame) in sorted(SHARED_FRAMES.items()):
        for seed in range(3):
            pick = random.Random(seed)
            roles = [
                [pick.choice((Role.SENDER, Role.RECEIVER, Role.IDLE))
                 for _ in range(graph.n)]
                for _ in range(2)
            ]

            def proto(ctx, roles=roles, params=params, frame=frame):
                got = []
                for frame_roles in roles:
                    got.append((yield from frame(
                        ctx, frame_roles[ctx.index], f"m{ctx.index}", params,
                    )))
                return got, ctx.rng.random()

            result = run(proto, seed)
            outcomes[kind, seed] = (
                result.outputs, result.energy, result.finish_slot,
                result.duration,
            )
    return outcomes


def test_shared_frame_plans_give_the_same_runs_everywhere_and_stay_intact():
    """Every executor, run twice in one process, sees the same frames:
    results agree across executors and runs, and afterwards each
    params' shared plans still equal freshly built ones."""
    graph = random_gnp(12, 0.4, random.Random(3))
    runs = [
        {ex: _frame_outcomes(ex, graph) for ex in ("engine", "lockstep", "reference")}
        for _ in range(2)
    ]
    first = runs[0]["engine"]
    assert any(
        message is not None
        for outputs, *_ in first.values()
        for got, _ in outputs
        for message in got
    )
    for by_executor in runs:
        for executor, outcomes in by_executor.items():
            assert outcomes == first, executor
    for kind, (params, _) in SHARED_FRAMES.items():
        shared = _shared_parts(params)
        assert shared, kind
        assert shared == _shared_parts(dataclasses.replace(params)), kind


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _cd_sender_slots(params, seed):
    """Drive one CD sender frame (no probe; nobody acks): per epoch
    slot, whether it sends, and the rng draws the frame made."""
    rng = _CountingRandom(seed)
    frame = sr_cd(SimpleNamespace(rng=rng), Role.SENDER, "m", params)
    sends = []
    feedback = None
    try:
        while True:
            plan = frame.send(feedback)
            if plan.__class__ is Listen:  # the ack slot
                feedback = SILENCE
                continue
            for act in plan.actions:
                if act.__class__ is Idle:
                    sends += [False] * act.duration
                else:
                    sends.append(True)
            feedback = ()
    except StopIteration:
        pass
    return sends, rng.draws


@pytest.mark.parametrize("ack", [False, True], ids=["no-ack", "ack"])
@pytest.mark.parametrize("max_degree", [2, 9, 40])
def test_a_cd_sender_draws_every_slot_and_sends_at_most_twice_an_epoch(
    max_degree, ack
):
    """Every epoch slot i draws once, in slot order; the sender sends in
    the first two slots whose draw is below 2^-(i+1)."""
    params = CDParams.for_graph(max_degree, 0.05, ack=ack)
    slots, epochs = params.slots_per_epoch, params.epochs
    for seed in range(10):
        sends, draws = _cd_sender_slots(params, seed)
        assert draws == slots * epochs
        assert len(sends) == slots * epochs
        same = random.Random(seed)
        for base in range(0, slots * epochs, slots):
            sent = [i for i in range(slots) if sends[base + i]]
            assert len(sent) <= 2
            hits = [i for i in range(slots) if same.random() < 2.0 ** -(i + 1)]
            assert sent == hits[:2]


# --- every registry row: posted == stepped ---------------------------------

ROW_FAULTS = {
    "clean": {},
    "churn": {"churn": "periodic:period=16,down=4,stagger=1"},
    "jam": {"jam": "random:rate=0.15"},
    "burst_loss": {"burst_loss": "p_gb=0.1,p_bg=0.3"},
}

BROADCAST_ROWS = sorted(
    name for name, row in ROW_REGISTRY.items()
    if row.custom_cell is None and not name.startswith("_")
)


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
@pytest.mark.parametrize("row", BROADCAST_ROWS)
def test_every_row_runs_the_same_posted_and_stepped(row, fault):
    """Each broadcast row at its smallest default size, seed 0, clean
    and under each fault family: the run with no extra observer (posted)
    equals the run with a no-op observer attached (stepped)."""
    definition = get_row(row)
    size = min(definition.default_sizes)
    graph = GRAPH_FAMILIES[definition.graph_family](size)
    config = ExecutionConfig(
        time_limit=BROADCAST_TIME_LIMIT, **ROW_FAULTS[fault]
    )

    def run(exec_config):
        (result,) = run_trials(
            graph, MODELS[definition.model],
            definition.builder(graph, {}), [0],
            inputs=source_inputs(0, "m"),
            knowledge=knowledge_for(graph, definition.id_space_from_n),
            exec_config=exec_config,
        )
        return result

    _same_run(
        run(config),
        run(config.replace(observer_factory=lambda seed: (SlotObserver(),))),
    )
