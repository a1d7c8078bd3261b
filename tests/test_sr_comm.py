"""Tests for SR-communication (Lemmas 7, 8, 24; Remark 9)."""

from __future__ import annotations

import random

import pytest

from repro.core.sr_comm import (
    CDParams,
    DecayParams,
    Role,
    det_frame_length,
    sr_cd,
    sr_det_cd,
    sr_det_cd_payload,
    sr_local,
    sr_nocd,
)
from repro.graphs import clique, path_graph, random_gnp, star_graph
from repro.sim import CD, LOCAL, NO_CD, ExecutionConfig, Simulator
from repro.sim.models import LossyModel
from tests.conftest import assert_pinned, run_digest


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
# Whole-frame sender plans, pinned by result
# ---------------------------------------------------------------------------

#: frame kind -> (params for (max_degree, failure), frame generator)
_FRAMES = {
    "nocd": (DecayParams.for_graph, sr_nocd),
    "cd": (CDParams.for_graph, sr_cd),
    "cd-probe": (lambda d, f: CDParams.for_graph(d, f, probe=True), sr_cd),
    "cd-ack": (lambda d, f: CDParams.for_graph(d, f, ack=True), sr_cd),
}

#: channel -> (model for a seed, churn spec)
_CHANNELS = {
    "No-CD": (lambda seed: NO_CD, None),
    "CD": (lambda seed: CD, None),
    "lossy": (lambda seed: LossyModel(NO_CD, 0.3, seed=seed + 50), None),
    "churn": (lambda seed: CD, "random:p=0.4,period=12,down=5"),
}


def _frame_run(frame, channel, seed, traced):
    """Two ``frame`` frames back to back on a 10-vertex gnp graph, each
    vertex's role in each frame drawn from ``seed``.  ``traced`` records
    the trace, which keeps every plan stepped; untraced, the engine
    posts the send-only plans."""
    graph = random_gnp(10, 0.4, random.Random(7))
    make_params, maker = _FRAMES[frame]
    params = make_params(graph.max_degree, 0.05)
    model_for, churn = _CHANNELS[channel]
    pick = random.Random(seed)
    roles = [
        [pick.choice((Role.SENDER, Role.RECEIVER, Role.IDLE))
         for _ in range(graph.n)]
        for _ in range(2)
    ]

    def proto(ctx):
        got = []
        for frame_roles in roles:
            got.append((yield from maker(
                ctx, frame_roles[ctx.index], f"m{ctx.index}", params,
            )))
        # The draw after the frames pins the node's rng stream.
        return got, ctx.rng.random()

    config = ExecutionConfig(record_trace=traced, churn=churn)
    return Simulator(
        graph, model_for(seed), seed=seed, exec_config=config
    ).run(proto)


#: (frame, channel, seed) -> run digests (``conftest.run_digest``) of
#: the traced (stepped) and the untraced (posted) run.  Recorded from
#: frames that matched, slot for slot and draw for draw, the per-phase
#: decay sender loop (one burst and one Idle per phase) and the
#: per-epoch CD loops (one Steps per sender epoch, one Idle per epoch
#: for a satisfied receiver), which are no longer kept.
_PINNED = {
    ('cd', 'CD', 0): ('9c8985ad60c399b6', 'df189e16bcf897b5'),
    ('cd', 'CD', 1): ('d5ef7ca99b98d5f2', '5c146c804269ddfb'),
    ('cd', 'CD', 2): ('dfbe29a3bbd5eff3', 'a42267186a7f16a4'),
    ('cd', 'No-CD', 0): ('fd981c0d2e308e5d', 'df189e16bcf897b5'),
    ('cd', 'No-CD', 1): ('d5ef7ca99b98d5f2', '5c146c804269ddfb'),
    ('cd', 'No-CD', 2): ('8da289b7e63aeb89', '86a169ad194e99ac'),
    ('cd', 'churn', 0): ('a20ece3ad2aceae7', 'f42332fe0fbd36dd'),
    ('cd', 'churn', 1): ('d32dcb2887da9242', 'a84cd1c4be0c4436'),
    ('cd', 'churn', 2): ('444ec8e25dc3d211', 'c29bf7483b93d416'),
    ('cd', 'lossy', 0): ('32f06f768c439d08', 'e7b069f729a90139'),
    ('cd', 'lossy', 1): ('70f8bb0c863e1f53', '99b6167f315e5618'),
    ('cd', 'lossy', 2): ('380770ac28a172a6', 'aec7af20c19528ff'),
    ('cd-ack', 'CD', 0): ('ca813f61f223c86f', 'cf5a3626ea081a78'),
    ('cd-ack', 'CD', 1): ('d0a9e2cefa2337ac', '696843dbf8767093'),
    ('cd-ack', 'CD', 2): ('98541c84d5abc060', 'c3426a043892f83d'),
    ('cd-ack', 'No-CD', 0): ('eb4cd0fadd35ea2b', 'c8a112408d0737d4'),
    ('cd-ack', 'No-CD', 1): ('74da9daf942748b1', '96ad04c455cd40f3'),
    ('cd-ack', 'No-CD', 2): ('1b53721c480eb077', 'ecdb1a7d4e7f18c0'),
    ('cd-ack', 'churn', 0): ('3f7e2f3929c58648', '7af4abc2091641a6'),
    ('cd-ack', 'churn', 1): ('6831a1edbe169c18', '1a29358189a6f00e'),
    ('cd-ack', 'churn', 2): ('4e0a8bea72219c2c', 'a728f048943f8c1e'),
    ('cd-ack', 'lossy', 0): ('1f66916996898de1', 'f6cb5284136b2c62'),
    ('cd-ack', 'lossy', 1): ('0d42877b094a33e7', '084a6049d8b95853'),
    ('cd-ack', 'lossy', 2): ('3adea185c063fdce', '183eeb53206f2f28'),
    ('cd-probe', 'CD', 0): ('437f93eac9125f30', '0efffa950629d33a'),
    ('cd-probe', 'CD', 1): ('b68993ef8a6b9aa6', '30b6bf2f0fe68654'),
    ('cd-probe', 'CD', 2): ('fb0489a806058dfd', '9cc53f2dcb9d6f72'),
    ('cd-probe', 'No-CD', 0): ('577118d56004d7e2', '657982b54ff36a3c'),
    ('cd-probe', 'No-CD', 1): ('350bd47096e3152b', 'ac21a65edd55c92e'),
    ('cd-probe', 'No-CD', 2): ('0224f8cbfecc3cf3', '931d52d92c068470'),
    ('cd-probe', 'churn', 0): ('89dc51d97acba6b2', 'c6cd8c41e26fd32d'),
    ('cd-probe', 'churn', 1): ('57d9ee6fe3a3e253', 'cc484cf62d17203d'),
    ('cd-probe', 'churn', 2): ('41b6ddc3f8b23f0e', '18e1b1b0138641f4'),
    ('cd-probe', 'lossy', 0): ('8687768a6d1f81de', '22d3950d75d23caf'),
    ('cd-probe', 'lossy', 1): ('6e69d17f465af4e1', '8885d3356073e15c'),
    ('cd-probe', 'lossy', 2): ('0191f1e4d8661770', 'c67f97e42cdc5243'),
    ('nocd', 'CD', 0): ('562df857c9977d8d', 'c70e8c0617ebbc4f'),
    ('nocd', 'CD', 1): ('91ebba7da9aa86e8', 'ccbedd01db61c090'),
    ('nocd', 'CD', 2): ('ab2b9e6f0d10f033', 'b43c623492c42b5e'),
    ('nocd', 'No-CD', 0): ('61103679a046a019', 'c70e8c0617ebbc4f'),
    ('nocd', 'No-CD', 1): ('956f39591cfda287', 'ccbedd01db61c090'),
    ('nocd', 'No-CD', 2): ('0552768273ea0244', 'b43c623492c42b5e'),
    ('nocd', 'churn', 0): ('734b79f549e3bbb0', '389442515217908a'),
    ('nocd', 'churn', 1): ('9dfd4e54427f126d', '299793a0f1da8d5b'),
    ('nocd', 'churn', 2): ('74c31547dc0eb986', '1f1cf3aa44497b29'),
    ('nocd', 'lossy', 0): ('292337a025b62598', 'b495e3cabdba1c0e'),
    ('nocd', 'lossy', 1): ('9390ea9b625aab6f', '4f1aa039816db94e'),
    ('nocd', 'lossy', 2): ('79cb15d0447a3d5d', '6a9405ca5cf81077'),
}


class TestWholeFrameSenders:
    """Senders yield one plan per frame; the slots, rng stream, energy,
    outputs and generator entries stay those of the per-phase (decay)
    and per-epoch (CD) loops, pinned by digest."""

    @pytest.mark.parametrize("channel", sorted(_CHANNELS))
    @pytest.mark.parametrize("frame", sorted(_FRAMES))
    def test_matches_per_phase_loop(self, frame, channel):
        assert_pinned(_PINNED, {
            (frame, channel, seed): tuple(
                run_digest(_frame_run(frame, channel, seed, traced))
                for traced in (True, False)
            )
            for seed in (0, 1, 2)
        })

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
