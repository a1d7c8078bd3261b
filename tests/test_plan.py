"""Phase plans (repro.sim.plan): vocabulary, determinism, differential.

Covers the slots-at-a-time stepping ABI:

* unit semantics of every plan primitive (resume values, padding,
  early exit, validation errors);
* the differential matrix: a protocol exercising every primitive (plus
  per-slot escape hatches) must be byte-identical phase-compiled, with
  its plans expanded per slot (``expand_plans``), and on the reference
  oracle, for all 5 paper models x lossy x every resolution backend x
  serial / lock-step execution;
* the rewired paper protocols (decay SR frames, LOCAL flooding) pinned
  phase-vs-slot;
* generator-entry accounting (``SimResult.gen_entries``), the stepping
  metric ``repro bench`` reports.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.graphs import clique, path_graph, random_gnp, star_graph
from repro.sim import (
    ExecutionConfig,
    BEEPING,
    CD,
    CD_FD,
    CD_STAR,
    LOCAL,
    NO_CD,
    Idle,
    Knowledge,
    Listen,
    ListenUntil,
    ProtocolError,
    Repeat,
    Send,
    SendListen,
    SILENCE,
    Simulator,
    Steps,
    numpy_available,
    run_trials,
)
from repro.sim.models import LossyModel
from repro.sim.node import NodeCtx
from repro.sim.plan import expand_plans, timeline
from repro.sim.reference import ReferenceSimulator
from tests.conftest import assert_same_run, bernoulli_steps, per_slot

FIVE_MODELS = {
    "LOCAL": LOCAL,
    "CD": CD,
    "No-CD": NO_CD,
    "CD*": CD_STAR,
    "BEEP": BEEPING,
}

RESOLUTIONS = ("bitmask",) + (("numpy",) if numpy_available() else ())


# ---------------------------------------------------------------------------
# Unit semantics
# ---------------------------------------------------------------------------


class TestPlanSemantics:
    def _run(self, proto, n=2, model=NO_CD, seed=1):
        return Simulator(path_graph(n), model, seed=seed).run(proto)

    def test_repeat_send_resumes_none(self):
        seen = {}

        def proto(ctx):
            if ctx.index == 0:
                seen["resume"] = yield Repeat(Send("m"), 3)
                return "done"
            fbs = yield Repeat(Listen(), 3)
            return fbs

        result = self._run(proto)
        assert seen["resume"] is None
        assert result.outputs[1] == ("m", "m", "m")
        assert result.energy[0].sends == 3
        assert result.energy[1].listens == 3

    def test_listen_until_early_exit_and_pad(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Idle(2)
                yield Send("hello")
                return None
            fb = yield ListenUntil(10, pad=True)
            return (fb, ctx.time)

        result = self._run(proto)
        fb, resume_time = result.outputs[1]
        assert fb == "hello"
        # Heard at slot 2, padded through slot 9, resumed at slot 10.
        assert resume_time == 10
        assert result.energy[1].listens == 3
        assert result.duration == 10

    def test_listen_until_no_pad_resumes_immediately(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Idle(2)
                yield Send("hello")
                return None
            fb = yield ListenUntil(10)
            return (fb, ctx.time)

        result = self._run(proto)
        assert result.outputs[1] == ("hello", 3)
        assert result.energy[1].listens == 3

    def test_listen_until_accept_filter(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Send(("skip",))
                yield Send(("take",))
                return None
            fb = yield ListenUntil(4, accept=lambda m: m[0] == "take")
            return fb

        result = self._run(proto)
        assert result.outputs[1] == ("take",)
        assert result.energy[1].listens == 2

    def test_listen_until_exhausted_returns_none(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Idle(5)
                return None
            return (yield ListenUntil(5))

        result = self._run(proto)
        assert result.outputs[1] is None
        assert result.energy[1].listens == 5

    def test_steps_collects_listening_feedbacks(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Steps((Send("a"), Idle(1), Send("b")))
                return None
            fbs = yield Steps((Listen(), Idle(1), Listen()))
            return fbs

        result = self._run(proto)
        assert result.outputs[1] == ("a", "b")
        assert result.energy[1].listens == 2

    def test_repeat_sendlisten_full_duplex(self):
        def proto(ctx):
            fbs = yield Repeat(SendListen(("d", ctx.index)), 2)
            return fbs

        result = Simulator(path_graph(2), CD_FD, seed=0).run(proto)
        assert result.outputs[0] == (("d", 1), ("d", 1))
        assert result.outputs[1] == (("d", 0), ("d", 0))

    def test_repeat_sendlisten_illegal_half_duplex(self):
        def proto(ctx):
            yield Repeat(SendListen("d"), 2)

        with pytest.raises(ProtocolError, match="SendListen is illegal"):
            self._run(proto)

    def test_repeat_idle_normalizes(self):
        def proto(ctx):
            if ctx.index == 0:
                yield Repeat(Idle(3), 2)
                yield Send("late")
                return None
            return (yield ListenUntil(8))

        result = self._run(proto)
        assert result.outputs[1] == "late"
        assert result.energy[0].sends == 1
        assert result.energy[0].total == 1  # idling is free

    def test_validation_errors(self):
        for bad in (
            Repeat(Send("m"), 0),
            Repeat("junk", 2),
            ListenUntil(0),
            Steps(()),
            Steps((Send("m"), "junk")),
            Steps((Repeat(Send("m"), 2),)),  # no nested plans
        ):
            def proto(ctx, bad=bad):
                yield bad

            with pytest.raises(ProtocolError):
                self._run(proto)

    def test_non_action_still_rejected(self):
        def proto(ctx):
            yield 42

        with pytest.raises(ProtocolError, match="non-action"):
            self._run(proto)

    def test_steps_mid_plan_sendlisten_illegal_half_duplex(self):
        # Regression: the duplex check must fire even when the
        # SendListen is not the first Steps action (the inline fast
        # path, not the classifier, dispatches it).
        def proto(ctx):
            yield Steps((Send("m"), SendListen("d")))

        with pytest.raises(ProtocolError, match="SendListen is illegal"):
            self._run(proto)
        with pytest.raises(ProtocolError, match="SendListen is illegal"):
            self._run(per_slot(proto))
        # Same contract under lock-step dispatch.
        with pytest.raises(ProtocolError, match="SendListen is illegal"):
            run_trials(
                path_graph(2), NO_CD, proto, (0,),
                exec_config=ExecutionConfig(lockstep=True),
            )

    def test_steps_normalizes_action_subclasses(self):
        # Regression: subclasses of the primitive actions are accepted
        # (isinstance validation) and must behave identically under the
        # phase engines' exact-class fast paths.
        class MyListen(Listen):
            pass

        class MySend(Send):
            pass

        def proto(ctx):
            if ctx.index == 0:
                yield Steps((Idle(1), MySend("a")))
                return None
            fbs = yield Steps((Listen(), MyListen()))
            return fbs

        runs = {"phase": self._run(proto), "slot": self._run(per_slot(proto))}
        assert runs["phase"].outputs[1] == (SILENCE, "a")
        assert_same_run(runs["phase"], runs["slot"])


class TestTimeline:
    """timeline(events, length): a fixed schedule's per-slot actions."""

    def test_one_idle_per_gap_and_for_the_tail(self):
        send, listen = Send("m"), Listen()
        assert timeline([(2, send), (3, listen), (7, send)], 10) == (
            Idle(2), send, listen, Idle(3), send, Idle(2),
        )

    def test_events_at_both_ends_leave_no_edge_idle(self):
        send, listen = Send("m"), Listen()
        assert timeline([(0, listen), (4, send)], 5) == (listen, Idle(3), send)

    def test_no_events_is_one_idle(self):
        assert timeline([], 6) == (Idle(6),)
        assert timeline((), 1) == (Idle(1),)

    @pytest.mark.parametrize("events,length,where", [
        ([(2, "a"), (2, "b")], 5, "(2, 'b') does not come after slot 2"),
        ([(3, "a"), (1, "b")], 5, "(1, 'b') does not come after slot 3"),
        ([(7, "a")], 5, "(7, 'a') lies outside the 5-slot schedule"),
        ([(0, "a"), (5, "b")], 5, "(5, 'b') lies outside the 5-slot schedule"),
        ([(-1, "a")], 5, "(-1, 'a') lies outside the 5-slot schedule"),
    ], ids=["repeat", "backwards", "beyond", "at-length", "negative"])
    def test_a_malformed_schedule_raises_naming_the_event(
        self, events, length, where
    ):
        # Unchecked, the repeat laid out 6 slots and the beyond case 8
        # for a 5-slot schedule: a frame silently longer than its peers'.
        with pytest.raises(ValueError, match=re.escape(where)):
            timeline(events, length)

    def test_runs_length_slots_as_one_steps_plan(self):
        # Vertex 0 sends at slot 3 of a 9-slot schedule; vertex 1
        # listens at slots 2 and 3.
        events = {0: [(3, Send("m"))], 1: [(2, Listen()), (3, Listen())]}

        def proto(ctx):
            heard = yield Steps(timeline(events[ctx.index], 9))
            return heard

        result = Simulator(path_graph(2), NO_CD, seed=0).run(proto)
        assert result.outputs == [(), (SILENCE, "m")]
        assert result.duration == 9
        assert result.gen_entries == 4


# ---------------------------------------------------------------------------
# Differential matrix
# ---------------------------------------------------------------------------


def _plan_protocol(steps: int, duplex: bool):
    """Exercises every plan primitive plus per-slot escape hatches, with
    feedback- and randomness-driven divergence between nodes."""

    def protocol(ctx):
        heard = 0
        for step in range(steps):
            roll = ctx.rng.random()
            if roll < 0.12:
                yield Send(("m", ctx.index, step, heard))
            elif roll < 0.24:
                yield Repeat(Send(("r", ctx.index, step)), 1 + ctx.rng.randrange(3))
            elif roll < 0.36:
                fbs = yield Repeat(Listen(), 1 + ctx.rng.randrange(4))
                heard += sum(
                    1 for f in fbs
                    if f not in (None, ()) and not isinstance(f, str)
                )
            elif roll < 0.48:
                fb = yield ListenUntil(
                    1 + ctx.rng.randrange(5),
                    pad=bool(ctx.rng.randrange(2)),
                )
                if fb is not None:
                    heard += 1
            elif roll < 0.58:
                yield bernoulli_steps(
                    ctx, ("p", ctx.index), 0.4, 1 + ctx.rng.randrange(5)
                )
            elif roll < 0.70:
                acts = []
                for _ in range(1 + ctx.rng.randrange(4)):
                    sub = ctx.rng.random()
                    if sub < 0.3:
                        acts.append(Send(("s", ctx.index)))
                    elif sub < 0.6:
                        acts.append(Listen())
                    elif sub < 0.8:
                        acts.append(Idle(1 + ctx.rng.randrange(3)))
                    elif duplex:
                        acts.append(SendListen(("d", ctx.index)))
                    else:
                        acts.append(Listen())
                fbs = yield Steps(tuple(acts))
                heard += sum(
                    1 for f in fbs
                    if f not in (None, ()) and not isinstance(f, str)
                )
            elif roll < 0.78 and duplex:
                fbs = yield Repeat(SendListen(("x", ctx.index)), 1 + ctx.rng.randrange(2))
                heard += sum(1 for f in fbs if f)
            elif roll < 0.88:
                feedback = yield Listen()  # per-slot escape hatch
                if feedback not in (None, ()) and not isinstance(feedback, str):
                    heard += 1
            else:
                yield Idle(1 + ctx.rng.randrange(4))
        return (ctx.index, heard)

    return protocol


class TestPhaseSlotReferenceEquivalence:
    """Phase-compiled vs per-slot-expanded vs reference oracle."""

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_models_by_resolution(self, model_name, resolution):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(5))
        protocol = _plan_protocol(12, duplex=False)
        for seed in (0, 3):
            slow = ReferenceSimulator(graph, model, seed=seed).run(protocol)
            for form in (protocol, per_slot(protocol)):
                fast = Simulator(
                    graph, model, seed=seed,
                    exec_config=ExecutionConfig(resolution=resolution),
                ).run(form)
                assert_same_run(fast, slow)

    def test_full_duplex_clique(self):
        graph = clique(5)
        protocol = _plan_protocol(10, duplex=True)
        for seed in (0, 1):
            slow = ReferenceSimulator(graph, CD_FD, seed=seed).run(protocol)
            for form in (protocol, per_slot(protocol)):
                fast = Simulator(graph, CD_FD, seed=seed).run(form)
                assert_same_run(fast, slow)

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_lossy_model(self, resolution):
        # Stateful per-transmission model: plans must preserve the
        # ascending-vertex reception order the oracle uses.
        graph = star_graph(6)
        protocol = _plan_protocol(10, duplex=False)
        for seed in (0, 2):
            slow = ReferenceSimulator(
                graph, LossyModel(NO_CD, 0.3, seed=77), seed=seed
            ).run(protocol)
            for form in (protocol, per_slot(protocol)):
                fast = Simulator(
                    graph, LossyModel(NO_CD, 0.3, seed=77), seed=seed,
                    exec_config=ExecutionConfig(resolution=resolution),
                ).run(form)
                assert_same_run(fast, slow)

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_lockstep_matches_serial(self, model_name, resolution):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(8, 0.5, random.Random(11))
        protocol = _plan_protocol(10, duplex=False)
        seeds = (0, 1, 5)
        serial = run_trials(graph, model, protocol, seeds)
        for form in (protocol, per_slot(protocol)):
            lockstep = run_trials(
                graph, model, form, seeds,
                exec_config=ExecutionConfig(
                    lockstep=True, resolution=resolution
                ),
            )
            for a, b in zip(serial, lockstep):
                assert_same_run(b, a)
                assert b.seed == a.seed

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_lockstep_matches_reference(self, model_name):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(8, 0.5, random.Random(11))
        protocol = _plan_protocol(10, duplex=False)
        seeds = (0, 1, 5)
        oracle = [
            ReferenceSimulator(graph, model, seed=seed).run(protocol)
            for seed in seeds
        ]
        for resolution in RESOLUTIONS:
            for form in (protocol, per_slot(protocol)):
                lockstep = run_trials(
                    graph, model, form, seeds,
                    exec_config=ExecutionConfig(
                        lockstep=True, resolution=resolution
                    ),
                )
                for slow, fast in zip(oracle, lockstep):
                    assert_same_run(fast, slow)
                    assert fast.seed == slow.seed

    def test_lossy_lockstep_matches_reference(self):
        # Per-trial stateful channels under lock-step: plans must keep
        # the oracle's ascending-vertex reception order in every trial.
        graph = star_graph(6)
        protocol = _plan_protocol(10, duplex=False)
        seeds = (0, 2, 3)
        factory = lambda seed: LossyModel(NO_CD, 0.3, seed=seed)
        oracle = [
            ReferenceSimulator(graph, factory(seed), seed=seed).run(protocol)
            for seed in seeds
        ]
        for resolution in RESOLUTIONS:
            for form in (protocol, per_slot(protocol)):
                lockstep = run_trials(
                    graph, NO_CD, form, seeds,
                    exec_config=ExecutionConfig(
                        lockstep=True, resolution=resolution,
                        model_factory=factory,
                    ),
                )
                for slow, fast in zip(oracle, lockstep):
                    assert_same_run(fast, slow)


# ---------------------------------------------------------------------------
# Rewired paper protocols: phase path vs per-slot oracle
# ---------------------------------------------------------------------------


class TestRewiredProtocols:
    def _compare(self, graph, model, protocol, inputs=None, knowledge=None):
        sim = Simulator(graph, model, seed=3, knowledge=knowledge)
        runs = {
            "phase": sim.run(protocol, inputs=inputs),
            "slot": sim.run(per_slot(protocol), inputs=inputs),
        }
        assert_same_run(runs["phase"], runs["slot"])
        return runs

    def test_decay_broadcast(self):
        from repro.broadcast.base import source_inputs
        from repro.broadcast.flooding import decay_broadcast_protocol

        graph = random_gnp(12, 0.35, random.Random(2))
        runs = self._compare(
            graph, NO_CD, decay_broadcast_protocol(), source_inputs(0, "m"),
        )
        assert runs["phase"].outputs == ["m"] * graph.n
        # The stepping metric: phase-compiled frames re-enter their
        # generators far less often than the per-slot oracle.
        assert runs["phase"].gen_entries < runs["slot"].gen_entries / 1.4

    def test_local_flood(self):
        from repro.broadcast.base import source_inputs
        from repro.broadcast.flooding import local_flood_protocol

        graph = path_graph(7)
        runs = self._compare(
            graph, LOCAL, local_flood_protocol(), source_inputs(0, "m"),
            knowledge=Knowledge(n=7, max_degree=2, diameter=6),
        )
        assert runs["phase"].outputs == ["m"] * 7

    def test_sr_frames_on_star(self):
        from repro.core.sr_comm import DecayParams, Role, sr_nocd

        n = 9
        graph = star_graph(n)
        params = DecayParams.for_graph(n - 1, 0.05)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})

        def proto(ctx):
            result = yield from sr_nocd(
                ctx, roles[ctx.index], f"m{ctx.index}", params
            )
            return result

        self._compare(graph, NO_CD, proto)

    def test_gen_entries_plain_protocols_unchanged(self):
        # A plan-free protocol costs the same entries under both modes.
        def proto(ctx):
            for step in range(5):
                if (ctx.index + step) % 2:
                    yield Send("x")
                else:
                    yield Listen()
            return ctx.index

        sim = Simulator(clique(4), NO_CD, seed=0)
        runs = {"phase": sim.run(proto), "slot": sim.run(per_slot(proto))}
        assert_same_run(runs["phase"], runs["slot"])
        # 4 nodes x (5 per-action entries + 1 final StopIteration).
        assert runs["phase"].gen_entries == 4 * 6
        assert runs["slot"].gen_entries == 4 * 6


def _ctx():
    return NodeCtx(
        index=0, uid=1, knowledge=Knowledge(n=1, max_degree=1), seed=0
    )


class TestExpandPlans:
    def test_passthrough_for_plain_generators(self):
        def gen():
            fb = yield Send("a")
            assert fb is None
            fb = yield Listen()
            return ("done", fb)

        driver = expand_plans(gen())
        assert next(driver) == Send("a")
        assert driver.send(None) == Listen()
        with pytest.raises(StopIteration) as stop:
            driver.send(SILENCE)
        assert stop.value.value == ("done", SILENCE)

    def test_expands_repeat(self):
        def gen():
            fbs = yield Repeat(Listen(), 3)
            return fbs

        driver = expand_plans(gen())
        assert next(driver) == Listen()
        assert driver.send("a") == Listen()
        assert driver.send("b") == Listen()
        with pytest.raises(StopIteration) as stop:
            driver.send("c")
        assert stop.value.value == ("a", "b", "c")
