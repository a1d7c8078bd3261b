"""Tests for the path algorithm (Section 8, Algorithm 1, Theorem 21)."""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import run_broadcast
from repro.broadcast.path import path_broadcast_protocol, sample_blocking_time
from repro.graphs import path_graph
from repro.sim import (
    LOCAL,
    ExecutionConfig,
    Idle,
    Knowledge,
    Listen,
    Send,
    SendListen,
    Simulator,
    Steps,
)
from repro.sim.faults import parse_fault_specs
from repro.sim.reference import ReferenceSimulator
from repro.util import ceil_log2


def _knowledge(n):
    return Knowledge(n=n, max_degree=2, diameter=n - 1)


class TestBlockingTime:
    def test_support_is_powers_of_two_capped_at_n(self):
        rng = random.Random(0)
        for _ in range(500):
            b = sample_blocking_time(rng, 64)
            assert b in {2, 4, 8, 16, 32, 64}

    def test_distribution_shape(self):
        rng = random.Random(1)
        samples = [sample_blocking_time(rng, 1024) for _ in range(20000)]
        frac2 = sum(1 for s in samples if s == 2) / len(samples)
        frac4 = sum(1 for s in samples if s == 4) / len(samples)
        assert 0.45 < frac2 < 0.55  # Pr[B=2] = 1/2
        assert 0.20 < frac4 < 0.30  # Pr[B=4] = 1/4


class TestOriented:
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_delivers_on_all_sizes(self, n):
        g = path_graph(n)
        for seed in range(4):
            out = run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=_knowledge(n), seed=seed,
            )
            assert out.delivered, f"n={n} seed={seed}"

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_worst_case_time_at_most_2n(self, n):
        g = path_graph(n)
        n_pow2 = 2 ** math.ceil(math.log2(n))
        for seed in range(6):
            out = run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=_knowledge(n), seed=seed,
            )
            assert out.duration <= 2 * n_pow2

    def test_expected_energy_logarithmic(self):
        # Theorem 21: expected per-vertex energy O(log n).  Check both an
        # absolute bound ~ (4e/(e-2)) ln(2n) and sublinear growth.
        means = {}
        for n in (16, 256):
            g = path_graph(n)
            runs = [
                run_broadcast(
                    g, LOCAL, path_broadcast_protocol(oriented=True),
                    knowledge=_knowledge(n), seed=s,
                ).mean_energy
                for s in range(5)
            ]
            means[n] = statistics.mean(runs)
        bound_const = 4 * math.e / (math.e - 2)  # Lemma 23's constant
        assert means[256] <= bound_const * math.log(2 * 256) + 4
        # 16x more vertices should cost far less than 16x energy.
        assert means[256] / means[16] < 5

    def test_source_must_be_zero_in_oriented_mode(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=_knowledge(4), source=2, seed=0,
            )

    def test_source_quits_after_one_slot(self):
        g = path_graph(8)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(oriented=True),
            knowledge=_knowledge(8), seed=0,
        )
        assert out.sim.energy[0].total == 1


class TestUnoriented:
    @pytest.mark.parametrize("source", [0, 3, 7])
    def test_delivers_from_any_source(self, source):
        n = 8
        g = path_graph(n)
        for seed in range(3):
            out = run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=False),
                knowledge=_knowledge(n), source=source, seed=seed,
            )
            assert out.delivered, f"source={source} seed={seed}"

    def test_energy_roughly_doubles_oriented(self):
        n = 64
        g = path_graph(n)
        oriented = statistics.mean(
            run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=_knowledge(n), seed=s,
            ).mean_energy
            for s in range(4)
        )
        unoriented = statistics.mean(
            run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=False),
                knowledge=_knowledge(n), seed=s,
            ).mean_energy
            for s in range(4)
        )
        assert unoriented <= 3.0 * oriented

    def test_two_vertex_path(self):
        g = path_graph(2)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(oriented=False),
            knowledge=_knowledge(2), source=1, seed=0,
        )
        assert out.delivered


class TestTraceStructure:
    def test_payload_advances_one_hop_per_slot_after_blocking(self):
        # Every reception of the payload happens at strictly increasing
        # times along the path (the message never teleports or stalls
        # beyond blocking).
        n = 16
        g = path_graph(n)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(oriented=True),
            knowledge=_knowledge(n), seed=2,
            exec_config=ExecutionConfig(record_trace=True),
        )
        assert out.delivered
        arrival = {}
        for event in out.sim.trace.receptions():
            for msg in (event.feedback if isinstance(event.feedback, tuple) else ()):
                if isinstance(msg, tuple) and msg[0] == "path":
                    for to, part in msg[2]:
                        if part[0] == "payload" and to == event.node:
                            arrival.setdefault(event.node, event.slot)
        order = [arrival[v] for v in sorted(arrival)]
        assert order == sorted(order)


class TestGenEntries:
    def test_oriented_run_entries_are_pinned(self):
        # Each event that follows an idle gap enters the generator twice,
        # once to yield the Idle and once to yield the slot's action; an
        # event with nothing to do at t merges into its gap's Idle.
        n = 16
        out = run_broadcast(
            path_graph(n), LOCAL, path_broadcast_protocol(oriented=True),
            knowledge=_knowledge(n), seed=2,
        )
        assert out.delivered
        assert out.duration == 24
        assert out.sim.gen_entries == 131


# ---------------------------------------------------------------------------
# The event loop against the loop it replaced
# ---------------------------------------------------------------------------
#
# _StepsInstance and _steps_path_protocol are Algorithm 1 as it was before
# the event loop: a dataclass instance with per-event before_slot /
# receive / heard_nothing / after_slot / next_event calls, and one
# Steps((Idle(gap), action)) plan per event.  Kept as the oracle.

_SYNC = "sync"
_PAYLOAD = "payload"


@dataclass
class _StepsInstance:
    upstream: Optional[int]
    downstream: Optional[int]
    blocking_time: int
    is_source: bool
    payload: Any = None
    sends: Dict[int, Any] = field(default_factory=dict)
    listens: Set[int] = field(default_factory=set)
    send_alarm: Optional[int] = None
    got_payload: bool = False
    done: bool = False
    _quit_after: Optional[int] = None

    def start(self) -> None:
        if self.is_source:
            self.got_payload = True
            if self.downstream is not None:
                self.sends[1] = (_PAYLOAD, self.payload)
                self._quit_after = 1
            else:
                self.done = True
            return
        if self.downstream is not None:
            self.sends[1] = (_SYNC, self.blocking_time - 1)
            self.send_alarm = self.blocking_time
        if self.upstream is not None:
            self.listens.add(1)
        if self.downstream is None and self.upstream is None:
            self.done = True

    def before_slot(self, t: int) -> None:
        if self.send_alarm != t or self.done:
            return
        self.send_alarm = None
        if self.got_payload:
            self.sends[t] = (_PAYLOAD, self.payload)
            self._quit_after = t
            return
        future = [x for x in self.listens if x >= t]
        if future:
            next_alarm = min(future)
            self.sends[t] = (_SYNC, next_alarm + 1 - t)
        else:
            self._quit_after = t if t in self.sends else None
            if self._quit_after is None:
                self.done = True

    def receive(self, t: int, part) -> None:
        kind = part[0]
        if kind == _SYNC:
            self.listens.add(t + part[1])
        elif kind == _PAYLOAD:
            self.got_payload = True
            self.payload = part[1]
        if t >= self.blocking_time:
            if self.downstream is not None:
                self.sends[t + 1] = part
                if kind == _PAYLOAD:
                    self._quit_after = t + 1
            elif kind == _PAYLOAD:
                self.done = True

    def heard_nothing(self, t: int) -> None:
        if not any(x > t for x in self.listens) and self.send_alarm is None:
            if not any(x > t for x in self.sends):
                self.done = True

    def after_slot(self, t: int) -> None:
        self.listens.discard(t)
        self.sends.pop(t, None)
        if self._quit_after is not None and t >= self._quit_after:
            self.done = True
        if (
            not self.done
            and not self.listens
            and not self.sends
            and self.send_alarm is None
        ):
            self.done = True

    def next_event(self) -> Optional[int]:
        if self.done:
            return None
        times: List[int] = list(self.listens) + list(self.sends)
        if self.send_alarm is not None:
            times.append(self.send_alarm)
        return min(times) if times else None


def _steps_path_protocol(oriented: bool = True):
    def protocol(ctx):
        n = ctx.n
        n_pow2 = 2 ** ceil_log2(max(2, n))
        v = ctx.index
        left = v - 1 if v > 0 else None
        right = v + 1 if v < n - 1 else None
        is_source = bool(ctx.inputs.get("source"))
        payload = ctx.inputs.get("payload")
        if oriented and is_source and v != 0:
            raise ValueError("oriented mode assumes the source is vertex 0")

        instances: List[_StepsInstance] = []
        if oriented:
            instances.append(
                _StepsInstance(left, right,
                               sample_blocking_time(ctx.rng, n_pow2),
                               is_source, payload)
            )
        else:
            for upstream, downstream in ((left, right), (right, left)):
                instances.append(
                    _StepsInstance(upstream, downstream,
                                   sample_blocking_time(ctx.rng, n_pow2),
                                   is_source, payload)
                )
        for inst in instances:
            inst.start()

        now = 0
        while True:
            upcoming = [
                t for t in (inst.next_event() for inst in instances)
                if t is not None
            ]
            if not upcoming:
                break
            t = min(upcoming)
            for inst in instances:
                inst.before_slot(t)
            outgoing = []
            listening = False
            for inst in instances:
                if inst.done:
                    continue
                part = inst.sends.get(t)
                if part is not None and inst.downstream is not None:
                    outgoing.append((inst.downstream, part))
                if t in inst.listens:
                    listening = True
            gap = (t - 1) - now
            feedback = None
            if outgoing and listening:
                act: Any = SendListen(("path", v, tuple(outgoing)))
            elif outgoing:
                act = Send(("path", v, tuple(outgoing)))
            elif listening:
                act = Listen()
            else:
                act = Idle(1)
            if gap > 0:
                if act.__class__ is Idle:
                    yield Idle(gap + 1)
                else:
                    heard_fb = yield Steps((Idle(gap), act))
                    if listening:
                        feedback = heard_fb[0]
            else:
                feedback = yield act
                if not listening:
                    feedback = None
            now = t

            heard: Dict[int, Any] = {}
            if feedback:
                for msg in feedback:
                    if isinstance(msg, tuple) and msg and msg[0] == "path":
                        _, sender, parts = msg
                        for to, part in parts:
                            if to == v:
                                heard[sender] = part
            for inst in instances:
                if inst.done:
                    continue
                if t in inst.listens:
                    part = heard.get(inst.upstream)
                    if part is not None:
                        inst.receive(t, part)
                    else:
                        inst.heard_nothing(t)
                inst.after_slot(t)

        for inst in instances:
            if inst.got_payload:
                return inst.payload
        return None

    return protocol


#: channel -> fault specs of the run's ExecutionConfig (the faults.json
#: path rows' churn and burst loss)
_PATH_CHANNELS = {
    "clean": {},
    "churn": {"churn": "random:p=0.3,period=24,down=4"},
    "burst-loss": {"burst_loss": "p_gb=0.03,p_bg=0.3,bad=0.7"},
}


def _then_next_draw(factory):
    """The protocol's output paired with the node's next rng draw, which
    pins how far the run consumed the node's rng stream."""

    def protocol(ctx):
        out = yield from factory(ctx)
        return out, ctx.rng.random()

    return protocol


class TestEventLoopMatchesStepsLoop:
    """Slots, energy, traces, outputs and the rng stream of the event loop
    equal those of the Steps-per-event loop it replaced, on the engine
    and on the per-slot reference simulator."""

    @staticmethod
    def _check(n, seed, oriented, source, channel):
        graph = path_graph(n)
        inputs = {source: {"source": True, "payload": ("m", seed)}}
        config = ExecutionConfig(record_trace=True, **_PATH_CHANNELS[channel])
        new, old = (
            _then_next_draw(make(oriented))
            for make in (path_broadcast_protocol, _steps_path_protocol)
        )
        where = (
            f"n={n} seed={seed} oriented={oriented} source={source} {channel}"
        )

        fast = [
            Simulator(graph, LOCAL, seed=seed, exec_config=config)
            .run(protocol, inputs)
            for protocol in (new, old)
        ]
        assert fast[0].outputs == fast[1].outputs, where
        assert fast[0].energy == fast[1].energy, where
        assert fast[0].duration == fast[1].duration, where
        assert fast[0].finish_slot == fast[1].finish_slot, where
        assert list(fast[0].trace) == list(fast[1].trace), where

        plan = parse_fault_specs(config)
        slow = [
            ReferenceSimulator(graph, LOCAL, seed=seed, faults=plan)
            .run(protocol, inputs)
            for protocol in (new, old)
        ]
        for result in slow:
            assert result.outputs == fast[0].outputs, where
            assert result.energy == fast[0].energy, where
            assert result.duration == fast[0].duration, where
            assert result.finish_slot == fast[0].finish_slot, where

    @pytest.mark.parametrize("channel", sorted(_PATH_CHANNELS))
    @pytest.mark.parametrize(
        "oriented", [True, False], ids=["oriented", "unoriented"]
    )
    def test_matches_on_a_seed_sweep(self, oriented, channel):
        pick = random.Random(f"{oriented}-{channel}")
        for seed in range(12):
            n = pick.randint(1, 48)
            source = 0 if oriented else pick.randrange(n)
            self._check(n, seed, oriented, source, channel)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=10_000),
        oriented=st.booleans(),
        source=st.integers(min_value=0, max_value=79),
        channel=st.sampled_from(sorted(_PATH_CHANNELS)),
    )
    def test_matches_on_generated_runs(
        self, n, seed, oriented, source, channel
    ):
        source = 0 if oriented else source % n
        self._check(n, seed, oriented, source, channel)

    def test_matches_with_unoriented_sources_away_from_vertex_zero(self):
        # The other tests draw unoriented sources anywhere; these pin an
        # interior vertex, the middle and the far end.
        for source in (1, 9, 19):
            self._check(20, 3, False, source, "clean")
