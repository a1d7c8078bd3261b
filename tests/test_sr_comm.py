"""Tests for SR-communication (Lemmas 7, 8, 24; Remark 9)."""

from __future__ import annotations

import random
from typing import Any, Optional

import pytest

from repro.core.sr_comm import (
    _ACK,
    _PROBE,
    CDParams,
    DecayParams,
    Role,
    UniformController,
    det_frame_length,
    sr_cd,
    sr_det_cd,
    sr_det_cd_payload,
    sr_local,
    sr_nocd,
)
from repro.graphs import Graph, clique, k2k_gadget, path_graph, random_gnp, star_graph
from repro.sim import (
    CD,
    LOCAL,
    NO_CD,
    SILENCE,
    ExecutionConfig,
    Idle,
    Listen,
    Repeat,
    Send,
    Simulator,
    Steps,
)
from repro.sim.feedback import is_message
from repro.sim.models import LossyModel


def _run_sr(graph, model, roles, messages, maker, seed=0):
    """Drive one SR frame: roles/messages are per-vertex; maker(ctx, role,
    message) returns the generator."""

    def proto(ctx):
        role = roles[ctx.index]
        message = messages.get(ctx.index)
        result = yield from maker(ctx, role, message)
        return result

    return Simulator(graph, model, seed=seed).run(proto)


class TestDecayNoCD:
    def test_single_sender_delivers(self):
        params = DecayParams.for_graph(2, 0.01)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2),
            NO_CD,
            roles,
            {0: "m"},
            lambda c, r, m: sr_nocd(c, r, m, params),
        )
        assert result.outputs[1] == "m"

    def test_high_contention_star(self):
        # Star center listens; all leaves send.  Decay must break the tie.
        n = 17
        g = star_graph(n)
        params = DecayParams.for_graph(n - 1, 0.01)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        delivered = 0
        for seed in range(8):
            result = _run_sr(
                g, NO_CD, roles, messages, lambda c, r, m: sr_nocd(c, r, m, params),
                seed=seed,
            )
            if result.outputs[0] in messages.values():
                delivered += 1
        assert delivered >= 7  # f = 0.01 per frame

    def test_receiver_stops_listening_after_reception(self):
        params = DecayParams.for_graph(2, 0.001)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2), NO_CD, roles, {0: "m"},
            lambda c, r, m: sr_nocd(c, r, m, params),
        )
        # Energy far below the full frame once the message lands early.
        assert result.energy[1].total <= 2 * params.slots_per_phase

    def test_idle_role_consumes_frame_without_energy(self):
        params = DecayParams.for_graph(4, 0.05)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}
        result = _run_sr(g, NO_CD, roles, {0: "m"},
                         lambda c, r, m: sr_nocd(c, r, m, params))
        assert result.energy[2].total == 0
        assert result.outputs[1] == "m"

    def test_frame_lengths_align(self):
        params = DecayParams.for_graph(8, 0.02)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            yield from sr_nocd(ctx, roles[ctx.index], "m", params)
            return ctx.time

        result = Simulator(g, NO_CD, seed=0).run(proto)
        assert len(set(result.outputs)) == 1
        assert result.outputs[0] == params.frame_length

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DecayParams.for_graph(4, 0.0)


class TestCDGeneric:
    def test_single_sender(self):
        params = CDParams.for_graph(2, 0.01)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2), CD, roles, {0: "m"},
            lambda c, r, m: sr_cd(c, r, m, params),
        )
        assert result.outputs[1] == "m"

    def test_high_contention_receiver_energy_is_small(self):
        n = 33
        g = star_graph(n)
        params = CDParams.for_graph(n - 1, 0.02)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        got = 0
        max_receiver_energy = 0
        for seed in range(8):
            result = _run_sr(
                g, CD, roles, messages, lambda c, r, m: sr_cd(c, r, m, params),
                seed=seed,
            )
            if result.outputs[0] in messages.values():
                got += 1
            max_receiver_energy = max(max_receiver_energy, result.energy[0].total)
        assert got >= 7
        # Receiver listens once per epoch: energy <= #epochs, far below the
        # full frame length.
        assert max_receiver_energy <= params.epochs
        assert params.frame_length > 3 * params.epochs

    def test_probe_opt_out_saves_energy(self):
        # Receiver with no sender neighbor pays O(1) with probes.
        g = path_graph(3)  # 0 - 1 - 2; sender 0, receiver 2 (not adjacent)
        params = CDParams.for_graph(2, 0.02, probe=True)
        roles = {0: Role.SENDER, 1: Role.IDLE, 2: Role.RECEIVER}
        result = _run_sr(g, CD, roles, {0: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.outputs[2] is None
        assert result.energy[2].total <= 2

    def test_probe_sender_without_receiver_opts_out(self):
        g = path_graph(3)
        params = CDParams.for_graph(2, 0.02, probe=True)
        roles = {0: Role.RECEIVER, 1: Role.IDLE, 2: Role.SENDER}
        result = _run_sr(g, CD, roles, {2: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.energy[2].total <= 2

    def test_probe_still_delivers_when_adjacent(self):
        params = CDParams.for_graph(2, 0.01, probe=True)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(path_graph(2), CD, roles, {0: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.outputs[1] == "m"

    def test_ack_lets_senders_terminate_early(self):
        # K_{2,k} flipped: middle vertices send, s and t receive; each
        # sender is adjacent to both receivers, so use a star to honour the
        # <=1 receiver-neighbor precondition of the ack variant.
        n = 9
        g = star_graph(n)
        params = CDParams.for_graph(n - 1, 0.01, ack=True)
        params_no = CDParams.for_graph(n - 1, 0.01, ack=False)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        with_ack = _run_sr(g, CD, roles, messages,
                           lambda c, r, m: sr_cd(c, r, m, params), seed=3)
        without = _run_sr(g, CD, roles, messages,
                          lambda c, r, m: sr_cd(c, r, m, params_no), seed=3)
        assert with_ack.outputs[0] in messages.values()
        sender_ack = max(with_ack.energy[v].total for v in range(1, n))
        sender_no = max(without.energy[v].total for v in range(1, n))
        assert sender_ack <= sender_no

    def test_frame_lengths_align(self):
        params = CDParams.for_graph(8, 0.02, probe=True)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            yield from sr_cd(ctx, roles[ctx.index], "m", params)
            return ctx.time

        result = Simulator(g, CD, seed=0).run(proto)
        assert set(result.outputs) == {params.frame_length}


class TestLocal:
    def test_one_slot_delivery(self):
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(path_graph(2), LOCAL, roles, {0: "m"}, sr_local)
        assert result.outputs[1] == "m"
        assert result.duration == 1

    def test_receiver_gets_lowest_index_message(self):
        g = star_graph(4)
        roles = {0: Role.RECEIVER, 1: Role.SENDER, 2: Role.SENDER, 3: Role.SENDER}
        result = _run_sr(g, LOCAL, roles, {1: "a", 2: "b", 3: "c"}, sr_local)
        assert result.outputs[0] == "a"

    def test_slots_argument_guard(self):
        with pytest.raises(ValueError):
            list(sr_local(None, Role.IDLE, None, slots=2))


class TestDeterministicCD:
    def test_min_value_learned(self):
        g = star_graph(5)
        space = 16
        values = {1: 9, 2: 3, 3: 12, 4: 7}
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in values})
        result = _run_sr(g, CD, roles, values,
                         lambda c, r, m: sr_det_cd(c, r, m, space))
        assert result.outputs[0] == 3

    def test_both_role_folds_own_value(self):
        g = path_graph(2)
        space = 8
        roles = {0: Role.BOTH, 1: Role.BOTH}
        values = {0: 5, 1: 2}

        def maker(ctx, role, message):
            return sr_det_cd(ctx, role, values[ctx.index], space)

        result = _run_sr(g, CD, roles, values, maker)
        assert result.outputs == [2, 2]

    def test_receiver_with_no_sender_returns_none(self):
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.IDLE, 2: Role.RECEIVER}
        result = _run_sr(g, CD, roles, {0: 1},
                         lambda c, r, m: sr_det_cd(c, r, m, 8))
        assert result.outputs[2] is None

    def test_energy_logarithmic_in_space(self):
        space = 256
        g = star_graph(9)
        values = {v: (v * 29) % space for v in range(1, 9)}
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in values})
        result = _run_sr(g, CD, roles, values,
                         lambda c, r, m: sr_det_cd(c, r, m, space))
        assert result.outputs[0] == min(values.values())
        # Receiver: <=2 listens per bit; senders: 1 send per bit.
        assert result.energy[0].total <= 2 * 8
        assert all(result.energy[v].total <= 8 for v in range(1, 9))
        assert result.duration <= det_frame_length(space)

    def test_frame_alignment(self):
        space = 32
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            value = 4 if roles[ctx.index] is Role.SENDER else None
            yield from sr_det_cd(ctx, roles[ctx.index], value, space)
            return ctx.time

        result = Simulator(g, CD, seed=0).run(proto)
        assert set(result.outputs) == {det_frame_length(space)}

    def test_sender_needs_value(self):
        with pytest.raises(ValueError):
            list(sr_det_cd(None, Role.SENDER, None, 8))

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            list(sr_det_cd(None, Role.SENDER, 99, 8))

    def test_payload_variant_delivers_arbitrary_objects(self):
        g = star_graph(4)
        id_space = 8
        payloads = {1: ("big", "object", 1), 2: ("x",), 3: ("y", 2)}
        roles = {0: Role.RECEIVER, 1: Role.SENDER, 2: Role.SENDER, 3: Role.SENDER}

        def proto(ctx):
            role = roles[ctx.index]
            payload = payloads.get(ctx.index)
            result = yield from sr_det_cd_payload(
                ctx, role, ctx.uid if role is Role.SENDER else None,
                payload, id_space,
            )
            return result

        result = Simulator(g, CD, seed=0).run(proto)
        # Lowest sender uid is vertex 1 (uid 2).
        assert result.outputs[0] == (2, payloads[1])


# ---------------------------------------------------------------------------
# Whole-frame sender plans against the per-phase / per-epoch loops
# ---------------------------------------------------------------------------


def _sr_nocd_per_phase(ctx, role, message, params, accept=None):
    """``sr_nocd`` with its earlier per-phase sender loop: one ``Send`` or
    ``Repeat`` burst and one ``Idle`` per phase (receivers and bystanders
    run today's code, which that change left alone)."""
    if role is not Role.SENDER:
        return (yield from sr_nocd(ctx, role, message, params, accept))
    slots, phases = params.slots_per_phase, params.phases
    rand = ctx.rng.random
    for _ in range(phases):
        length = 1
        while length < slots and rand() < 0.5:
            length += 1
        if length == 1:
            yield Send(message)
        else:
            yield Repeat(Send(message), length)
        if slots > length:
            yield Idle(slots - length)
    return None


def _sr_cd_per_epoch(ctx, role, message, params, accept=None):
    """``sr_cd`` as it was with per-epoch sender plans: one ``Steps`` per
    epoch for senders, and one ``Idle`` per epoch for a receiver that
    already holds its message."""
    total = params.frame_length
    spent = 0

    def idle_rest():
        if total > spent:
            yield Idle(total - spent)

    if role is Role.IDLE:
        yield from idle_rest()
        return None

    if params.probe:
        if role is Role.SENDER:
            yield Send(_PROBE)
            fb_r = None
        else:
            fb_r = yield Listen()
        if role is Role.RECEIVER:
            yield Send(_PROBE)
        else:
            fb_s = yield Listen()
        spent += 2
        if role is Role.RECEIVER and fb_r is SILENCE:
            yield from idle_rest()
            return None
        if role is Role.SENDER and fb_s is SILENCE:
            yield from idle_rest()
            return None

    slots = params.slots_per_epoch
    if role is Role.SENDER:
        for _ in range(params.epochs):
            picks = [
                i for i in range(slots) if ctx.rng.random() < 2.0 ** -(i + 1)
            ][:2]
            acts = []
            cursor = 0
            for i in picks:
                if i > cursor:
                    acts.append(Idle(i - cursor))
                acts.append(Send(message))
                cursor = i + 1
            if slots > cursor:
                acts.append(Idle(slots - cursor))
            if len(acts) == 1:
                yield acts[0]
            else:
                yield Steps(tuple(acts))
            spent += slots
            if params.ack:
                feedback = yield Listen()
                spent += 1
                if feedback is not SILENCE:
                    yield from idle_rest()
                    return None
        return None

    controller = UniformController(max_k=slots)
    received: Optional[Any] = None
    for _ in range(params.epochs):
        if received is None:
            k = controller.next_k()
            acts = []
            if k > 1:
                acts.append(Idle(k - 1))
            acts.append(Listen())
            if slots > k:
                acts.append(Idle(slots - k))
            feedback = (yield Steps(tuple(acts)))[0]
            if is_message(feedback):
                if accept is None or accept(feedback):
                    received = feedback
            else:
                controller.observe(k, feedback)
            spent += slots
            if params.ack:
                if received is not None:
                    yield Send(_ACK)
                else:
                    yield Idle(1)
                spent += 1
        else:
            if params.ack:
                yield from idle_rest()
                break
            yield Idle(slots)
            spent += slots
    return received


#: frame kind -> (params for (max_degree, failure), today's frame, oracle)
_FRAMES = {
    "nocd": (DecayParams.for_graph, sr_nocd, _sr_nocd_per_phase),
    "cd": (CDParams.for_graph, sr_cd, _sr_cd_per_epoch),
    "cd-probe": (
        lambda d, f: CDParams.for_graph(d, f, probe=True), sr_cd, _sr_cd_per_epoch,
    ),
    "cd-ack": (
        lambda d, f: CDParams.for_graph(d, f, ack=True), sr_cd, _sr_cd_per_epoch,
    ),
}

#: channel -> (model for a seed, churn spec)
_CHANNELS = {
    "No-CD": (lambda seed: NO_CD, None),
    "CD": (lambda seed: CD, None),
    "lossy": (lambda seed: LossyModel(NO_CD, 0.3, seed=seed + 50), None),
    "churn": (lambda seed: CD, "random:p=0.4,period=12,down=5"),
}


class TestWholeFrameSenders:
    """Senders yield one plan per frame; the slots, rng stream, energy and
    outputs are those of the per-phase (decay) and per-epoch (CD) loops."""

    @staticmethod
    def _run(frame, channel, seed):
        graph = random_gnp(10, 0.4, random.Random(7))
        make_params, new, old = _FRAMES[frame]
        params = make_params(graph.max_degree, 0.05)
        model_for, churn = _CHANNELS[channel]
        pick = random.Random(seed)
        roles = [
            [pick.choice((Role.SENDER, Role.RECEIVER, Role.IDLE))
             for _ in range(graph.n)]
            for _ in range(2)
        ]
        config = ExecutionConfig(record_trace=True, churn=churn)

        def protocol(maker):
            def proto(ctx):
                got = []
                for frame_roles in roles:
                    got.append((yield from maker(
                        ctx, frame_roles[ctx.index], f"m{ctx.index}", params,
                    )))
                # The draw after the frames pins the node's rng stream.
                return got, ctx.rng.random()

            return proto

        return [
            Simulator(graph, model_for(seed), seed=seed, exec_config=config)
            .run(protocol(maker))
            for maker in (new, old)
        ]

    @pytest.mark.parametrize("channel", sorted(_CHANNELS))
    @pytest.mark.parametrize("frame", sorted(_FRAMES))
    def test_matches_per_phase_loop(self, frame, channel):
        for seed in range(3):
            new, old = self._run(frame, channel, seed)
            assert new.outputs == old.outputs
            assert new.energy == old.energy
            assert new.duration == old.duration
            assert new.finish_slot == old.finish_slot
            assert list(new.trace) == list(old.trace)

    @pytest.mark.parametrize(
        "model,params",
        [(NO_CD, DecayParams.for_graph(5, 0.02)), (CD, CDParams.for_graph(5, 0.02))],
        ids=["nocd", "cd"],
    )
    def test_sender_frame_costs_two_entries(self, model, params):
        frame = sr_nocd if model is NO_CD else sr_cd

        def proto(ctx):
            yield from frame(ctx, Role.SENDER, "m", params)

        n = 6
        result = Simulator(clique(n), model, seed=1).run(proto)
        assert result.duration == params.frame_length
        # Per sender: the entry that yields the frame's plan, and the
        # one that resumes after it.
        assert result.gen_entries == 2 * n

    def test_satisfied_cd_receiver_idles_out_in_one_idle(self):
        params = CDParams.for_graph(2, 0.01)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(path_graph(2), CD, roles, {0: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.outputs[1] == "m"
        epochs_listened = result.energy[1].listens
        assert epochs_listened < params.epochs
        # Sender: 2 entries.  Receiver: the first entry, one per listened
        # epoch, then one after the Idle that covers the rest.
        assert result.gen_entries == 2 + (1 + epochs_listened + 1)
