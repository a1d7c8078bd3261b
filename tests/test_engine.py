"""Unit tests for the slot-synchronous simulator engine."""

from __future__ import annotations

import pytest

from repro.graphs import clique, path_graph, star_graph
from repro.sim import (
    ExecutionConfig,
    BEEP,
    BEEPING,
    CD,
    CD_FD,
    CD_STAR,
    LOCAL,
    NO_CD,
    NOISE,
    SILENCE,
    Idle,
    Listen,
    ProtocolError,
    Repeat,
    Send,
    SendListen,
    Simulator,
    SimulationTimeout,
)


def test_single_hop_delivery():
    def proto(ctx):
        if ctx.index == 0:
            yield Send("hello")
            return "sent"
        return (yield Listen())

    result = Simulator(path_graph(2), NO_CD, seed=1).run(proto)
    assert result.outputs == ["sent", "hello"]
    assert result.duration == 1
    assert [e.total for e in result.energy] == [1, 1]


def test_collision_semantics_cd_vs_nocd():
    def proto(ctx):
        if ctx.index in (0, 1):
            yield Send("x")
            return None
        return (yield Listen())

    assert Simulator(clique(3), CD, seed=0).run(proto).outputs[2] is NOISE
    assert Simulator(clique(3), NO_CD, seed=0).run(proto).outputs[2] is SILENCE


def test_silence_when_nobody_sends():
    def proto(ctx):
        if ctx.index == 0:
            return (yield Listen())
        yield Idle(1)
        return None

    for model in (CD, NO_CD):
        assert Simulator(path_graph(2), model, seed=0).run(proto).outputs[0] is SILENCE


def test_cd_star_picks_lowest_index_sender():
    def proto(ctx):
        if ctx.index != 0:
            yield Send(f"m{ctx.index}")
            return None
        return (yield Listen())

    result = Simulator(star_graph(4), CD_STAR, seed=0).run(proto)
    assert result.outputs[0] == "m1"


def test_beeping_model():
    def proto(ctx):
        if ctx.index != 0:
            yield Send("ignored")
            return None
        return (yield Listen())

    assert Simulator(star_graph(3), BEEPING, seed=0).run(proto).outputs[0] is BEEP


def test_local_hears_all_neighbors_sorted():
    def proto(ctx):
        if ctx.index != 0:
            yield Send(ctx.index)
            return None
        return (yield Listen())

    result = Simulator(star_graph(4), LOCAL, seed=0).run(proto)
    assert result.outputs[0] == (1, 2, 3)


def test_idle_is_free_and_skipped_quickly():
    def proto(ctx):
        yield Idle(1_000_000)
        yield Send("late")
        return ctx.time

    result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
    assert result.duration == 1_000_001
    assert all(e.total == 1 for e in result.energy)
    assert result.outputs == [1_000_001, 1_000_001]


def test_energy_not_charged_for_idle():
    def proto(ctx):
        yield Listen()
        yield Idle(10)
        yield Send("x")
        yield Idle(5)
        return None

    result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
    for report in result.energy:
        assert report.total == 2
        assert report.sends == 1
        assert report.listens == 1


def test_full_duplex_rejected_in_half_duplex_models():
    def proto(ctx):
        yield SendListen("x")
        return None

    with pytest.raises(ProtocolError):
        Simulator(path_graph(2), NO_CD, seed=0).run(proto)


def test_full_duplex_sender_does_not_hear_itself():
    def proto(ctx):
        if ctx.index == 0:
            return (yield SendListen("a"))
        return (yield SendListen("b"))

    result = Simulator(path_graph(2), CD_FD, seed=0).run(proto)
    assert result.outputs == ["b", "a"]


def test_full_duplex_sole_transmitter_hears_silence():
    def proto(ctx):
        if ctx.index == 0:
            return (yield SendListen("a"))
        return (yield Listen())

    result = Simulator(clique(3), CD_FD, seed=0).run(proto)
    assert result.outputs[0] is SILENCE
    assert result.outputs[1] == "a"


def test_timeout_raises():
    def proto(ctx):
        while True:
            yield Idle(1000)

    with pytest.raises(SimulationTimeout):
        Simulator(
            path_graph(2), NO_CD, seed=0,
            exec_config=ExecutionConfig(time_limit=10_000),
        ).run(proto)


def test_non_action_yield_raises():
    def proto(ctx):
        yield "not an action"

    with pytest.raises(ProtocolError):
        Simulator(path_graph(2), NO_CD, seed=0).run(proto)


class _MyIdle(Idle):
    pass


class _MySend(Send):
    pass


class _MyListen(Listen):
    pass


class _MySendListen(SendListen):
    pass


def test_action_subclasses_at_every_dispatch_site():
    # The slot loop tests the exact primitive classes first; a subclass
    # instance must still act as its base class where a node's action is
    # classified: its first action, the action after an idle wake-up,
    # and the action after an active slot.
    from repro.sim.reference import ReferenceSimulator

    def proto(ctx):
        if ctx.index == 0:
            yield _MySend("a")  # first action, slot 0
            yield _MyIdle(2)  # after an active slot
            yield _MySend("b")  # after an idle wake-up, slot 3
            yield _MySend("c")  # after an active slot, slot 4
            return "sent"
        if ctx.index == 1:
            first = yield _MyListen()  # first action, slot 0
            yield _MyIdle(2)  # after an active slot
            second = yield _MyListen()  # after an idle wake-up, slot 3
            third = yield _MyListen()  # after an active slot, slot 4
            return (first, second, third)
        yield _MyIdle(3)  # first action
        return (yield _MyListen())  # after an idle wake-up, slot 3

    fast = Simulator(clique(3), NO_CD, seed=0).run(proto)
    slow = ReferenceSimulator(clique(3), NO_CD, seed=0).run(proto)
    assert fast.outputs == ["sent", ("a", "b", "c"), "b"]
    assert fast.outputs == slow.outputs
    assert fast.energy == slow.energy
    assert fast.finish_slot == slow.finish_slot
    assert fast.duration == slow.duration == 5


def test_sendlisten_subclass_at_every_dispatch_site():
    from repro.sim.reference import ReferenceSimulator

    def proto(ctx):
        if ctx.index == 0:
            first = yield _MySendListen("a")  # first action, slot 0
            yield _MyIdle(1)  # after an active slot
            second = yield _MySendListen("b")  # after an idle wake-up
            third = yield _MySendListen("c")  # after an active slot
            return (first, second, third)
        return (yield Repeat(Listen(), 4))

    fast = Simulator(path_graph(2), CD_FD, seed=0).run(proto)
    slow = ReferenceSimulator(path_graph(2), CD_FD, seed=0).run(proto)
    assert fast.outputs == [(SILENCE, SILENCE, SILENCE), ("a", SILENCE, "b", "c")]
    assert fast.outputs == slow.outputs
    assert fast.energy == slow.energy
    assert fast.finish_slot == slow.finish_slot
    with pytest.raises(ProtocolError, match="SendListen is illegal"):
        Simulator(path_graph(2), NO_CD, seed=0).run(proto)


def test_per_node_rng_is_deterministic_per_seed():
    def proto(ctx):
        yield Idle(1)
        return ctx.rng.random()

    a = Simulator(path_graph(3), NO_CD, seed=42).run(proto).outputs
    b = Simulator(path_graph(3), NO_CD, seed=42).run(proto).outputs
    c = Simulator(path_graph(3), NO_CD, seed=43).run(proto).outputs
    assert a == b
    assert a != c
    assert len(set(a)) == 3  # private randomness differs across nodes


def test_resumed_sleeper_joins_current_slot():
    # Node 1 sleeps 3 slots then sends; node 0 listens exactly at slot 3.
    def proto(ctx):
        if ctx.index == 1:
            yield Idle(3)
            yield Send("wake")
            return None
        yield Idle(3)
        return (yield Listen())

    result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
    assert result.outputs[0] == "wake"


def test_trace_records_events():
    def proto(ctx):
        if ctx.index == 0:
            yield Send("m")
            return None
        return (yield Listen())

    sim = Simulator(path_graph(2), NO_CD, seed=0, exec_config=ExecutionConfig(record_trace=True))
    result = sim.run(proto)
    assert result.trace is not None
    kinds = sorted(e.kind for e in result.trace)
    assert kinds == ["listen", "send"]
    assert result.trace.receptions()[0].feedback == "m"


def test_finish_slot_and_duration():
    def proto(ctx):
        if ctx.index == 0:
            yield Send("a")
            yield Send("b")
            return None
        yield Listen()
        return None

    result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
    assert result.duration == 2
    assert result.finish_slot[0] == 1
    assert result.finish_slot[1] == 0


def test_uids_default_and_custom():
    def proto(ctx):
        yield Idle(1)
        return ctx.uid

    assert Simulator(path_graph(3), NO_CD, seed=0).run(proto).outputs == [1, 2, 3]
    sim = Simulator(path_graph(3), NO_CD, seed=0, uids=[7, 5, 9])
    assert sim.run(proto).outputs == [7, 5, 9]
    with pytest.raises(ValueError):
        Simulator(path_graph(3), NO_CD, uids=[1, 1, 2])


def test_inputs_keys_outside_range_raise():
    def proto(ctx):
        yield Idle(1)
        return None

    sim = Simulator(path_graph(3), NO_CD, seed=0)
    with pytest.raises(ValueError, match=r"inputs keys"):
        sim.run(proto, inputs={3: {"source": True}})
    with pytest.raises(ValueError, match=r"inputs keys"):
        sim.run(proto, inputs={-1: {"source": True}})
    with pytest.raises(ValueError, match=r"inputs keys"):
        sim.run(proto, inputs={"0": {"source": True}})
    # in-range keys still work
    assert sim.run(proto, inputs={2: {"x": 1}}).outputs == [None] * 3


def test_reference_rejects_out_of_range_inputs_too():
    from repro.sim.reference import ReferenceSimulator

    def proto(ctx):
        yield Idle(1)
        return None

    with pytest.raises(ValueError, match=r"inputs keys"):
        ReferenceSimulator(path_graph(2), NO_CD).run(proto, inputs={5: {}})


def test_invalid_resolution_mode_rejected():
    with pytest.raises(ValueError, match="resolution"):
        Simulator(
            path_graph(2), NO_CD,
            exec_config=ExecutionConfig(resolution="quantum"),
        )


def test_all_resolution_modes_accepted():
    from repro.sim import RESOLUTION_MODES

    assert set(RESOLUTION_MODES) == {"bitmask", "numpy"}
    for mode in RESOLUTION_MODES:
        Simulator(
            path_graph(2), NO_CD,
            exec_config=ExecutionConfig(resolution=mode),
        )


def test_custom_observer_sees_every_active_slot():
    from repro.sim import SlotObserver

    class Recorder(SlotObserver):
        def __init__(self):
            self.slots = []
            self.n = None

        def on_run_start(self, n):
            self.n = n

        def on_slot(self, slot, senders, listeners, duplexers, feedbacks):
            self.slots.append(
                (slot, sorted(senders), sorted(listeners), sorted(duplexers))
            )

    def proto(ctx):
        if ctx.index == 0:
            yield Send("a")
            yield Idle(3)
            yield Send("b")
            return None
        yield Listen()
        yield Idle(3)
        yield Listen()
        return None

    recorder = Recorder()
    Simulator(path_graph(2), NO_CD, seed=0, observers=[recorder]).run(proto)
    assert recorder.n == 2
    assert recorder.slots == [
        (0, [0], [1], []),
        (4, [0], [1], []),
    ]


def test_run_seed_override_matches_fresh_simulator():
    def proto(ctx):
        yield Idle(1)
        return ctx.rng.random()

    sim = Simulator(path_graph(3), NO_CD, seed=0)
    overridden = sim.run(proto, seed=42)
    fresh = Simulator(path_graph(3), NO_CD, seed=42).run(proto)
    assert overridden.outputs == fresh.outputs
    assert overridden.seed == 42
    # and the simulator's own seed is untouched
    assert sim.run(proto).seed == 0


def test_immediate_return_protocol():
    def proto(ctx):
        return "done"
        yield  # pragma: no cover

    result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
    assert result.outputs == ["done", "done"]
    assert result.duration == 0
