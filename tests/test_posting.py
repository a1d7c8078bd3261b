"""Posted sends and posted listens: the serial engine's fixed plans.

With the energy meter as a trial's only observer, the engine posts a
``Steps`` plan that only sends and idles instead of stepping it, and
resolves a padded ``ListenUntil`` whole at its first slot when every
neighbour is fixed through its end (see :mod:`repro.sim.engine`).
Posting must change nothing but the work done: these tests pin what a
posted plan puts on the air, what it charges, which slots the engine
still processes, what a plan turned down half-way leaves behind, which
listen windows are resolved whole and which stay stepped, and, for every
registry row, that a posted run equals the same run stepped.  The SR
frames that posting serves share their
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
from repro.experiments.bench import _sr_frame_protocol
from repro.graphs import clique, path_graph, random_gnp, star_graph
from repro.sim import (
    CD,
    CD_STAR,
    NO_CD,
    NOISE,
    SILENCE,
    ExecutionConfig,
    Idle,
    Listen,
    ListenUntil,
    LossyModel,
    Send,
    SimulationTimeout,
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


def _like_the_oracle(graph, model, protocol, run, **faults):
    """``run`` (a posted one) equals the stepped run and the oracle."""
    _same_run(run, _run(graph, model, protocol, observed=True, **faults))
    oracle = ReferenceSimulator(
        graph, model, seed=0,
        faults=parse_fault_specs(ExecutionConfig(**faults)),
    ).run(protocol)
    assert run.outputs == oracle.outputs
    assert run.energy == oracle.energy
    assert run.finish_slot == oracle.finish_slot
    assert run.duration == oracle.duration


def test_charge_sends_is_one_run_level_charge():
    meter = EnergyObserver()
    meter.on_run_start(2)
    meter.on_slot(0, {}, [1], {}, {1: SILENCE})
    meter.charge_sends(1, 4, 9)
    assert meter.reports()[1] == EnergyReport(
        sends=4, listens=1, duplex=0, total=5, last_active_slot=9
    )


def test_charge_listens_is_one_run_level_charge():
    meter = EnergyObserver()
    meter.on_run_start(2)
    meter.on_slot(0, {0: "m"}, [], {}, {0: None})
    meter.charge_listens(0, 5, 7)
    assert meter.reports()[0] == EnergyReport(
        sends=1, listens=5, duplex=0, total=6, last_active_slot=7
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
    posted = _run(graph, CD, _half_posted, **faults)
    _like_the_oracle(graph, CD, _half_posted, posted, **faults)
    if not faults:
        assert posted.outputs == [("b",), ("a", SILENCE, "a", SILENCE, SILENCE)]


# --- posted listens -----------------------------------------------------------


def _spies(monkeypatch):
    """Count the energy meter's per-slot calls and its run-level listen
    charges: (slots seen by ``on_slot``, ``charge_listens`` arguments)."""
    slots, charges = [], []
    on_slot = EnergyObserver.on_slot
    charge_listens = EnergyObserver.charge_listens

    def counting_slot(self, slot, *rest):
        slots.append(slot)
        on_slot(self, slot, *rest)

    def counting_charge(self, v, count, last):
        charges.append((v, count, last))
        charge_listens(self, v, count, last)

    monkeypatch.setattr(EnergyObserver, "on_slot", counting_slot)
    monkeypatch.setattr(EnergyObserver, "charge_listens", counting_charge)
    return slots, charges


#: One No-CD SR frame on a 5-path: two senders around a receiver that
#: hears them collide, a receiver beside an idle vertex, and that vertex.
DECAY = DecayParams.for_graph(2, 0.05)
DECAY_ROLES = (Role.SENDER, Role.RECEIVER, Role.SENDER, Role.RECEIVER, Role.IDLE)


def _decay_frame(ctx):
    heard = yield from sr_nocd(
        ctx, DECAY_ROLES[ctx.index], ("m", ctx.index), DECAY
    )
    return heard, ctx.rng.random()


def test_a_decay_frame_is_resolved_without_a_processed_slot(monkeypatch):
    """Every neighbour of each receiver is fixed for the whole frame, so
    both windows are resolved at slot 0, and no slot reaches the
    meter's per-slot hook: the senders' bursts are posted, and the
    receivers' listens charged at once."""
    slots, charges = _spies(monkeypatch)
    graph = path_graph(5)
    posted = _run(graph, NO_CD, _decay_frame)
    assert slots == []
    assert [v for v, _, _ in charges] == [1, 3]
    frame = DECAY.slots_per_phase * DECAY.phases
    assert posted.duration == frame
    # Vertex 3's only sender sends in the frame's first slot.
    assert posted.outputs[3][0] == ("m", 2)
    assert posted.energy[3].listens == 1
    assert posted.outputs[1][0] in (("m", 0), ("m", 2))
    _like_the_oracle(graph, NO_CD, _decay_frame, posted)


def test_the_lockstep_gate_frame_processes_every_slot(monkeypatch):
    """CI's lock-step gate frame: its senders idle, then burst with a
    stepped ``Repeat(Send)``, so every receiver's window has a neighbour
    that wakes inside it and is stepped, slot by slot."""
    slots, charges = _spies(monkeypatch)
    protocol = _sr_frame_protocol(windows=2)
    graph = clique(8)
    posted = _run(graph, NO_CD, protocol)
    assert charges == []
    assert slots == list(range(64))
    assert [e.listens for e in posted.energy[2:]] == [64] * 6
    _like_the_oracle(graph, NO_CD, protocol, posted)


def _first_rejected(ctx):
    """Vertex 0 posts "first" in slot 0 and "second" in slot 2; vertex 1
    accepts only "second"."""
    if ctx.index == 0:
        yield Steps((Send("first"), Idle(1), Send("second"), Idle(3)))
        return None
    return (yield ListenUntil(6, accept=lambda m: m == "second", pad=True))


def test_a_rejected_message_keeps_the_window_listening(monkeypatch):
    slots, charges = _spies(monkeypatch)
    posted = _run(path_graph(2), NO_CD, _first_rejected)
    assert posted.outputs == [None, "second"]
    assert charges == [(1, 3, 2)]
    assert slots == []
    assert posted.duration == 6
    _like_the_oracle(path_graph(2), NO_CD, _first_rejected, posted)


def test_an_unpadded_listen_until_is_stepped(monkeypatch):
    """After an early match an unpadded window hands control back to its
    protocol, which may act inside the window: it is never resolved
    whole, and it keeps a padded neighbour's window stepped.  On a
    3-path, vertex 1 hears vertex 2 in slot 0 and relays in slot 1,
    where vertex 0 hears it."""

    def protocol(ctx):
        if ctx.index == 2:
            yield Steps((Send("go"), Idle(3)))
            return None
        if ctx.index == 1:
            heard = yield ListenUntil(4)
            yield Send("relay")
            return heard
        return (yield ListenUntil(4, pad=True))

    slots, charges = _spies(monkeypatch)
    posted = _run(path_graph(3), NO_CD, protocol)
    assert posted.outputs == ["relay", "go", None]
    assert charges == []
    assert slots == [0, 1]
    _like_the_oracle(path_graph(3), NO_CD, protocol, posted)


def test_a_neighbour_whose_window_ends_first_keeps_the_listener_stepped(
    monkeypatch,
):
    """Vertex 1's padded window ends two slots before vertex 0's, then
    it sends: vertex 0, judged first, must hear that send.  Vertex 1's
    own window is resolved whole, since vertex 0 listens longer."""

    def protocol(ctx):
        if ctx.index == 1:
            yield ListenUntil(2, pad=True)
            yield Send("late")
            return None
        return (yield ListenUntil(4, pad=True))

    _, charges = _spies(monkeypatch)
    posted = _run(path_graph(2), NO_CD, protocol)
    assert posted.outputs == ["late", None]
    assert charges == [(1, 2, 1)]
    _like_the_oracle(path_graph(2), NO_CD, protocol, posted)


def test_a_window_cut_by_the_budget_times_out_as_stepped(monkeypatch):
    """The receiver's window is resolved at slot 0 and outlasts the
    budget: the run raises the stepped run's (and the oracle's)
    timeout message."""
    _, charges = _spies(monkeypatch)
    graph = path_graph(5)
    messages = set()
    for observed in (False, True):
        with pytest.raises(SimulationTimeout) as raised:
            _run(graph, NO_CD, _decay_frame, observed=observed, time_limit=5)
        messages.add(str(raised.value))
    with pytest.raises(SimulationTimeout) as raised:
        ReferenceSimulator(graph, NO_CD, seed=0, time_limit=5).run(
            _decay_frame
        )
    messages.add(str(raised.value))
    assert charges
    assert messages == {
        "simulation exceeded 5 slots (5 protocols still running, seed 0)"
    }


@pytest.mark.parametrize("faults,lossy", [
    ({"churn": "periodic:period=3,down=1"}, False),
    ({"jam": "random:rate=0.2"}, False),
    ({"burst_loss": "p_gb=0.2,p_bg=0.4"}, False),
    ({}, True),
], ids=["churn", "jam", "burst_loss", "loss_rate"])
def test_faulted_and_lossy_windows_stay_stepped(faults, lossy, monkeypatch):
    """Under churn, a slot-aware channel (jam, burst loss) or per-
    reception draws (a loss rate), a window's receptions are not the
    calendar's alone: every window is stepped, and the run equals the
    stepped one."""
    _, charges = _spies(monkeypatch)
    posted, stepped = (
        _run(
            path_graph(5),
            LossyModel(NO_CD, 0.3, seed=0) if lossy else NO_CD,
            _decay_frame, observed=observed, **faults,
        )
        for observed in (False, True)
    )
    assert charges == []
    _same_run(posted, stepped)


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
