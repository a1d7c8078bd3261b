"""One schedule for every layered sweep and fixed slot grid.

:func:`repro.core.casts.sweep` is Lemma 10's two-positions-per-vertex
schedule; :func:`repro.sim.plan.timeline` gives the per-slot actions of a
fixed slot schedule.  The casts and grids that run through them are
checked here against copies of the hand-written loops they replaced (the
``_loop_*`` oracles): over random roles and seeds, the same outputs,
energy, duration, finish slots, trace and next rng draw, on the engine
and on the per-slot :class:`ReferenceSimulator`.  Only idle runs merge
and generator entries drop.
"""

from __future__ import annotations

import random

import pytest

from repro.core.casts import down_cast, identity, sweep, up_cast
from repro.core.cluster_casts import cluster_down_cast, cluster_sr, cluster_up_cast
from repro.core.det_tree import (
    DetCDScheme,
    det_down_cast,
    det_downward,
    det_up_cast,
    det_upward,
    downward_slots,
    upward_slots,
)
from repro.core.schemes import SRScheme
from repro.core.sr_comm import (
    CDParams,
    Role,
    det_frame_length,
    sr_cd,
    sr_det_cd_payload,
)
from repro.core.tree_clusters import (
    TreeParams,
    learn_ind,
    sample_colors,
    tree_down_cast,
    tree_downward,
    tree_up_cast,
    tree_upward,
)
from repro.graphs import random_gnp
from repro.sim import (
    CD,
    LOCAL,
    NO_CD,
    SILENCE,
    ExecutionConfig,
    Idle,
    Listen,
    Send,
    Simulator,
    Steps,
)
from repro.sim.faults import parse_fault_specs
from repro.sim.feedback import is_message
from repro.sim.reference import ReferenceSimulator
from repro.util import ceil_log2


# ---------------------------------------------------------------------------
# sweep, driven by hand
# ---------------------------------------------------------------------------


def _drive(gen):
    """Run a sweep with scripted steps: returns (yields, result).  Each
    step below yields one marker action; receive steps resume with
    nothing and return their message."""
    yields = []
    try:
        action = next(gen)
        while True:
            yields.append(action)
            action = gen.send(None)
    except StopIteration as stop:
        return yields, stop.value


def _receive(message):
    def receive(at):
        yield Listen()
        return message

    return receive


def _send(at, value):
    yield Send((at, value))


class TestSweep:
    def test_received_value_is_sent_on_at_next_position(self):
        yields, value = _drive(sweep(
            4, 5, 1, 2, None, _receive("m"), _send, lambda m: m + "!",
        ))
        assert yields == [Idle(5), Listen(), Send((2, "m!")), Idle(5)]
        assert value == "m!"

    def test_nothing_received_means_nothing_sent(self):
        yields, value = _drive(sweep(
            4, 5, 1, 2, None, _receive(None), _send, identity,
        ))
        # The send position idles with the tail.
        assert yields == [Idle(5), Listen(), Idle(10)]
        assert value is None

    def test_holder_sends_at_its_position_only(self):
        yields, value = _drive(sweep(
            4, 5, 0, 3, "v", _receive("x"), _send, identity,
        ))
        assert yields == [Idle(15), Send((3, "v"))]
        assert value == "v"

    @pytest.mark.parametrize("recv_at,send_at", [
        (-1, 4), (4, 9), (-3, -2), (7, -1),
    ])
    def test_positions_out_of_range_are_skipped(self, recv_at, send_at):
        for value in (None, "v"):
            yields, result = _drive(sweep(
                4, 5, recv_at, send_at, value, _receive("x"), _send, identity,
            ))
            assert yields == [Idle(20)]
            assert result == value

    @pytest.mark.parametrize("positions,unit", [(1, 1), (3, 7), (6, 40)])
    def test_bystander_idles_exactly_positions_times_unit(self, positions, unit):
        # Holding a value at its receive position, or nothing at its
        # send position, a vertex has nothing to do: one Idle.
        for value, recv_at, send_at in (
            ("v", 0, positions), (None, -1, positions - 1),
        ):
            yields, result = _drive(sweep(
                positions, unit, recv_at, send_at, value,
                _receive("x"), _send, identity,
            ))
            assert yields == [Idle(positions * unit)]
            assert result == value

    def test_one_position_receives_or_sends_once(self):
        # recv_at == send_at: a holder sends, a non-holder only receives.
        yields, value = _drive(sweep(
            3, 2, 1, 1, None, _receive("m"), _send, identity,
        ))
        assert yields == [Idle(2), Listen(), Idle(2)]
        assert value == "m"
        yields, _ = _drive(sweep(3, 2, 1, 1, "v", _receive("m"), _send, identity))
        assert yields == [Idle(2), Send((1, "v")), Idle(2)]

    def test_empty_sweep_yields_nothing(self):
        assert _drive(sweep(0, 5, 0, 1, "v", _receive("m"), _send, identity)) \
            == ([], "v")


class TestUpwardGridsRefuseSendAndListen:
    def test_det_upward(self):
        with pytest.raises(ValueError, match="either sends or listens"):
            next(det_upward(None, 1, "v", True, 4))

    def test_tree_upward(self):
        params = TreeParams(2, 3, CDParams.for_graph(3, 0.1))
        with pytest.raises(ValueError, match="either sends or listens"):
            next(tree_upward(None, params, (0, 1), (1, 2), 0, "v", True))


# ---------------------------------------------------------------------------
# The loops sweep and timeline replaced (oracles)
# ---------------------------------------------------------------------------


def _idle(slots):
    if slots > 0:
        yield Idle(slots)


def _loop_sr_det_cd(ctx, role, value, space):
    bits = max(1, ceil_log2(max(2, space)))
    total = det_frame_length(space)
    if role is Role.IDLE:
        yield from _idle(total)
        return None
    sending = role in (Role.SENDER, Role.BOTH)
    listening = role in (Role.RECEIVER, Role.BOTH)
    prefix = 0
    dead = False
    for x in range(bits):
        round_slots = 2 ** (x + 1)
        shift = bits - x - 1
        own_prefix = (value >> shift) if value is not None else None
        events = []
        cand0 = cand1 = None
        if sending:
            events.append((own_prefix, True))
        if listening and not dead:
            cand0, cand1 = 2 * prefix, 2 * prefix + 1
            for cand in (cand0, cand1):
                if cand != own_prefix:
                    events.append((cand, False))
        occupied = {}
        acts = []
        listen_slots = []
        cursor = 0
        for slot, is_send in sorted(events):
            if slot > cursor:
                acts.append(Idle(slot - cursor))
            if is_send:
                acts.append(Send(("det", slot)))
            else:
                acts.append(Listen())
                listen_slots.append(slot)
            cursor = slot + 1
        if round_slots > cursor:
            acts.append(Idle(round_slots - cursor))
        if listen_slots:
            heard = yield Steps(tuple(acts))
            for slot, feedback in zip(listen_slots, heard):
                occupied[slot] = feedback is not SILENCE
        elif len(acts) == 1:
            yield acts[0]
        elif acts:
            yield Steps(tuple(acts))
        if listening and not dead:
            occ0 = occupied.get(cand0, False) or own_prefix == cand0
            occ1 = occupied.get(cand1, False) or own_prefix == cand1
            if occ0:
                prefix = cand0
            elif occ1:
                prefix = cand1
            else:
                dead = True
    if not listening:
        return None
    if dead:
        return value
    if value is not None:
        return min(prefix, value)
    return prefix


def _loop_sr_det_cd_payload(ctx, role, uid, payload, id_space):
    sending = role in (Role.SENDER, Role.BOTH)
    value = (uid - 1) if (uid is not None and sending) else None
    learned = yield from _loop_sr_det_cd(ctx, role, value, id_space)
    result = None
    own_payload = False
    listened = False
    acts = []
    cursor = 0
    if role in (Role.RECEIVER, Role.BOTH) and learned is not None:
        if learned > cursor:
            acts.append(Idle(learned - cursor))
        if sending and learned == value:
            acts.append(Send(("payload", uid, payload)))
            own_payload = True
        else:
            acts.append(Listen())
            listened = True
        cursor = learned + 1
        if sending and learned != value:
            if value > cursor:
                acts.append(Idle(value - cursor))
            acts.append(Send(("payload", uid, payload)))
            cursor = value + 1
    elif sending:
        if value > cursor:
            acts.append(Idle(value - cursor))
        acts.append(Send(("payload", uid, payload)))
        cursor = value + 1
    if id_space > cursor:
        acts.append(Idle(id_space - cursor))
    if acts:
        if len(acts) == 1 and not listened:
            yield acts[0]
            heard = ()
        else:
            heard = yield Steps(tuple(acts))
    else:
        heard = ()
    if own_payload:
        result = (uid, payload)
    elif listened:
        feedback = heard[0]
        if is_message(feedback) and feedback[0] == "payload":
            result = (feedback[1], feedback[2])
    return result


class _LoopDetCDScheme(DetCDScheme):
    """DetCDScheme on the loop form of Lemma 24's primitive."""

    def communicate(self, ctx, role, message=None, accept=None):
        def run():
            got = yield from _loop_sr_det_cd_payload(
                ctx, role, ctx.uid if role is Role.SENDER else None,
                message, self.id_space,
            )
            if got is None:
                return None
            payload = got[1]
            if accept is not None and not accept(payload):
                return None
            return payload

        return run()


def _loop_down_cast(ctx, scheme, layer, value, max_layers, transform=identity,
                    accept=None):
    frames = max_layers - 1
    recv_frame = layer - 1
    send_frame = layer
    cursor = 0
    for i in (recv_frame, send_frame):
        if not 0 <= i < frames:
            continue
        if i > cursor:
            yield from _idle((i - cursor) * scheme.frame_length)
        if i == recv_frame and value is None:
            received = yield from scheme.communicate(ctx, Role.RECEIVER, accept=accept)
            if received is not None:
                value = transform(received)
        elif i == send_frame and value is not None:
            yield from scheme.communicate(ctx, Role.SENDER, value)
        else:
            yield from scheme.communicate(ctx, Role.IDLE)
        cursor = i + 1
    if frames > cursor:
        yield from _idle((frames - cursor) * scheme.frame_length)
    return value


def _loop_up_cast(ctx, scheme, layer, value, max_layers, transform=identity,
                  accept=None):
    frames = max_layers - 1
    recv_frame = layer + 1
    send_frame = layer
    cursor = 0
    for i in (recv_frame, send_frame):
        if not 1 <= i <= max_layers - 1:
            continue
        position = max_layers - 1 - i
        if position > cursor:
            yield from _idle((position - cursor) * scheme.frame_length)
        if i == recv_frame and value is None:
            received = yield from scheme.communicate(ctx, Role.RECEIVER, accept=accept)
            if received is not None:
                value = transform(received)
        elif i == send_frame and value is not None:
            yield from scheme.communicate(ctx, Role.SENDER, value)
        else:
            yield from scheme.communicate(ctx, Role.IDLE)
        cursor = position + 1
    if frames > cursor:
        yield from _idle((frames - cursor) * scheme.frame_length)
    return value


def _loop_cluster_sweep(ctx, scheme, recv_position, send_position, positions,
                        value, send_message, seed, tag, contention, reps,
                        accept, transform):
    """``cluster_casts._sweep``."""
    frame = scheme.frame_length
    cursor = 0
    for position in sorted({recv_position, send_position}):
        if not 0 <= position < positions:
            continue
        if position > cursor:
            yield from _idle((position - cursor) * reps * frame)
        if position == recv_position and value is None:
            got = yield from cluster_sr(
                ctx, scheme, Role.RECEIVER, None, seed,
                (tag, position), contention, reps, accept,
            )
            if got is not None:
                value = transform(got)
        elif position == send_position and value is not None:
            yield from cluster_sr(
                ctx, scheme, Role.SENDER, send_message(value), seed,
                (tag, position), contention, reps, accept,
            )
        else:
            yield from _idle(reps * frame)
        cursor = position + 1
    if positions > cursor:
        yield from _idle((positions - cursor) * reps * frame)
    return value


def _loop_cluster_down_cast(ctx, scheme, layer, cid, seed, value, max_layers,
                            contention, reps, tag, transform):
    return _loop_cluster_sweep(
        ctx, scheme, layer - 1, layer, max_layers - 1, value,
        lambda val: (cid, val), seed, ("dc", tag), contention, reps,
        lambda message: message[0] == cid, lambda msg: transform(msg[1]),
    )


def _loop_cluster_up_cast(ctx, scheme, layer, cid, seed, value, max_layers,
                          contention, reps, tag, transform):
    return _loop_cluster_sweep(
        ctx, scheme, (max_layers - 1) - (layer + 1),
        (max_layers - 1) - layer if layer >= 1 else -1, max_layers - 1,
        value, lambda val: (cid, val), seed, ("uc", tag), contention, reps,
        lambda message: message[0] == cid, lambda msg: transform(msg[1]),
    )


def _loop_det_downward(ctx, parent_uid, value, listening, id_space):
    send_slot = (ctx.uid - 1) if value is not None else None
    listen_slot = (parent_uid - 1) if (listening and parent_uid is not None) else None
    if listen_slot is not None and listen_slot == send_slot:
        listen_slot = None
    received = None
    cursor = 0
    for slot in sorted(
        ({send_slot} if send_slot is not None else set())
        | ({listen_slot} if listen_slot is not None else set())
    ):
        if slot > cursor:
            yield Idle(slot - cursor)
        if slot == send_slot:
            yield Send(("dt", value))
        else:
            feedback = yield Listen()
            if is_message(feedback) and feedback[0] == "dt":
                received = feedback[1]
        cursor = slot + 1
    if id_space > cursor:
        yield Idle(id_space - cursor)
    return received


def _loop_det_upward(ctx, parent_uid, value, listening, id_space):
    frame = det_frame_length(id_space) + id_space
    send_block = (parent_uid - 1) if (value is not None and parent_uid is not None) else None
    listen_block = (ctx.uid - 1) if listening else None
    received = None
    cursor = 0
    for block in sorted(
        ({send_block} if send_block is not None else set())
        | ({listen_block} if listen_block is not None else set())
    ):
        if block > cursor:
            yield Idle((block - cursor) * frame)
        if block == send_block:
            yield from _loop_sr_det_cd_payload(ctx, Role.SENDER, ctx.uid, value, id_space)
        else:
            got = yield from _loop_sr_det_cd_payload(
                ctx, Role.RECEIVER, None, None, id_space
            )
            if got is not None:
                received = got
        cursor = block + 1
    if id_space > cursor:
        yield Idle((id_space - cursor) * frame)
    return received


def _loop_det_sweep(ctx, recv_position, send_position, positions, grid,
                    grid_len, parent_uid, value, transform, id_space):
    """``det_tree._det_sweep``."""
    cursor = 0
    for position in sorted({recv_position, send_position}):
        if not 0 <= position < positions:
            continue
        if position > cursor:
            yield Idle((position - cursor) * grid_len)
        if position == recv_position and value is None:
            got = yield from grid(ctx, parent_uid, None, True, id_space)
            if got is not None:
                value = transform(got)
        elif position == send_position and value is not None:
            yield from grid(ctx, parent_uid, value, False, id_space)
        else:
            yield Idle(grid_len)
        cursor = position + 1
    if positions > cursor:
        yield Idle((positions - cursor) * grid_len)
    return value


def _loop_det_down_cast(ctx, layer, parent_uid, value, max_layers, id_space,
                        transform):
    return _loop_det_sweep(
        ctx, layer - 1, layer, max_layers - 1, _loop_det_downward,
        downward_slots(id_space), parent_uid, value, transform, id_space,
    )


def _loop_det_up_cast(ctx, layer, parent_uid, value, max_layers, id_space,
                      transform):
    return _loop_det_sweep(
        ctx, (max_layers - 1) - (layer + 1),
        (max_layers - 1) - layer if layer >= 1 else -1, max_layers - 1,
        _loop_det_upward, upward_slots(id_space), parent_uid, value,
        transform, id_space,
    )


def _loop_learn_ind(ctx, params, my_colors, parent_colors):
    ind = None
    for j in range(params.num_colorings):
        own_k = my_colors[j]
        listen_k = None
        if parent_colors is not None and parent_colors[j] != own_k:
            listen_k = parent_colors[j]
        events = sorted({own_k} | ({listen_k} if listen_k is not None else set()))
        cursor = 0
        for k in events:
            if k > cursor:
                yield Idle(k - cursor)
            if k == own_k:
                yield Send(("ind", j, own_k))
            else:
                feedback = yield Listen()
                if ind is None and is_message(feedback):
                    ind = j
            cursor = k + 1
        if params.num_colors > cursor:
            yield Idle(params.num_colors - cursor)
    return ind


def _loop_tree_downward(ctx, params, my_colors, parent_colors, ind, value,
                        listening):
    received = None
    for j in range(params.num_colorings):
        send_k = my_colors[j] if value is not None else None
        listen_k = None
        if (
            listening
            and ind == j
            and parent_colors is not None
            and received is None
            and parent_colors[j] != send_k
        ):
            listen_k = parent_colors[j]
        events = sorted(
            ({send_k} if send_k is not None else set())
            | ({listen_k} if listen_k is not None else set())
        )
        cursor = 0
        for k in events:
            if k > cursor:
                yield Idle(k - cursor)
            if k == send_k:
                yield Send(value)
            else:
                feedback = yield Listen()
                if is_message(feedback):
                    received = feedback
            cursor = k + 1
        if params.num_colors > cursor:
            yield Idle(params.num_colors - cursor)
    return received


def _loop_tree_upward(ctx, params, my_colors, parent_colors, ind, value,
                      listening):
    frame = params.sr.frame_length
    received = None
    send_block = None
    if value is not None and ind is not None and parent_colors is not None:
        send_block = (ind, parent_colors[ind])
    for j in range(params.num_colorings):
        listen_k = my_colors[j] if listening else None
        send_k = send_block[1] if (send_block is not None and send_block[0] == j) else None
        blocks = sorted(
            ({send_k} if send_k is not None else set())
            | ({listen_k} if listen_k is not None else set())
        )
        cursor = 0
        for k in blocks:
            if k > cursor:
                yield Idle((k - cursor) * frame)
            if k == send_k:
                yield from sr_cd(ctx, Role.SENDER, value, params.sr)
            else:
                got = yield from sr_cd(
                    ctx, Role.RECEIVER if received is None else Role.IDLE,
                    None, params.sr,
                )
                if got is not None:
                    received = got
            cursor = k + 1
        if params.num_colors > cursor:
            yield Idle((params.num_colors - cursor) * frame)
    return received


def _loop_tree_sweep(ctx, params, recv_position, send_position, positions,
                     grid, grid_slots, value, transform, my_colors,
                     parent_colors, ind):
    """``tree_clusters._tree_sweep``."""
    cursor = 0
    for position in sorted({recv_position, send_position}):
        if not 0 <= position < positions:
            continue
        if position > cursor:
            yield Idle((position - cursor) * grid_slots)
        if position == recv_position and value is None:
            got = yield from grid(ctx, params, my_colors, parent_colors, ind, None, True)
            if got is not None:
                value = transform(got)
        elif position == send_position and value is not None:
            yield from grid(ctx, params, my_colors, parent_colors, ind, value, False)
        else:
            yield Idle(grid_slots)
        cursor = position + 1
    if positions > cursor:
        yield Idle((positions - cursor) * grid_slots)
    return value


def _loop_tree_down_cast(ctx, params, layer, value, max_layers, my_colors,
                         parent_colors, ind, transform):
    return _loop_tree_sweep(
        ctx, params, layer - 1, layer, max_layers - 1, _loop_tree_downward,
        params.downward_slots, value, transform, my_colors, parent_colors, ind,
    )


def _loop_tree_up_cast(ctx, params, layer, value, max_layers, my_colors,
                       parent_colors, ind, transform):
    return _loop_tree_sweep(
        ctx, params, (max_layers - 1) - (layer + 1),
        (max_layers - 1) - layer if layer >= 1 else -1, max_layers - 1,
        _loop_tree_upward, params.upward_slots, value, transform, my_colors,
        parent_colors, ind,
    )


# ---------------------------------------------------------------------------
# Differential: today's casts and grids against the loops
# ---------------------------------------------------------------------------

#: the casts and grids under test: today's and the loop each replaced
_NEW = {
    "down_cast": down_cast, "up_cast": up_cast, "DetCDScheme": DetCDScheme,
    "cluster_down_cast": cluster_down_cast, "cluster_up_cast": cluster_up_cast,
    "det_downward": det_downward, "det_upward": det_upward,
    "det_down_cast": det_down_cast, "det_up_cast": det_up_cast,
    "learn_ind": learn_ind, "tree_downward": tree_downward,
    "tree_upward": tree_upward,
    "tree_down_cast": tree_down_cast, "tree_up_cast": tree_up_cast,
}
_LOOP = {
    "down_cast": _loop_down_cast, "up_cast": _loop_up_cast,
    "DetCDScheme": _LoopDetCDScheme,
    "cluster_down_cast": _loop_cluster_down_cast,
    "cluster_up_cast": _loop_cluster_up_cast,
    "det_downward": _loop_det_downward, "det_upward": _loop_det_upward,
    "det_down_cast": _loop_det_down_cast, "det_up_cast": _loop_det_up_cast,
    "learn_ind": _loop_learn_ind, "tree_downward": _loop_tree_downward,
    "tree_upward": _loop_tree_upward,
    "tree_down_cast": _loop_tree_down_cast, "tree_up_cast": _loop_tree_up_cast,
}

_CHURN = "random:p=0.3,period=15,down=4"


def _assert_same(graph, model, scenario, seed, churn=None):
    """Run ``scenario(impl)`` with today's casts and with the loops, on the
    engine and on the reference: every run reports the same."""
    config = ExecutionConfig(record_trace=True, churn=churn)
    faults = parse_fault_specs(config)
    runs = []
    for impl in (_NEW, _LOOP):
        protocol = scenario(impl)
        runs.append(Simulator(graph, model, seed=seed, exec_config=config)
                    .run(protocol))
        runs.append(ReferenceSimulator(graph, model, seed=seed, faults=faults)
                    .run(protocol))
    engine_new, _, engine_loop, _ = runs
    for other in runs[1:]:
        assert other.outputs == runs[0].outputs
        assert other.energy == runs[0].energy
        assert other.duration == runs[0].duration
        assert other.finish_slot == runs[0].finish_slot
    assert list(engine_new.trace) == list(engine_loop.trace)
    # Only idle runs merge: the loops never enter a generator less.
    assert engine_new.gen_entries <= engine_loop.gen_entries


def _layered(seed, n=8):
    """A connected random graph with its BFS tree from vertex 0: each
    vertex's (parent or None, layer), the shape the casts run on."""
    graph = random_gnp(n, 0.3, random.Random(seed), ensure_connected=True)
    tree = {0: (None, 0)}
    frontier = [0]
    while frontier:
        v = frontier.pop(0)
        for w in graph.neighbors(v):
            if w not in tree:
                tree[w] = (v, tree[v][1] + 1)
                frontier.append(w)
    return graph, [tree[v] for v in range(n)]


def _values(pick, tree):
    """Values for a Down-cast and for an Up-cast: the root, or every
    deepest vertex, holds one; any other vertex does with probability
    0.3."""
    deepest = max(layer for _, layer in tree)
    return [
        [
            f"v{v}" if (layer == source or pick.random() < 0.3) else None
            for v, (_, layer) in enumerate(tree)
        ]
        for source in (0, deepest)
    ]


def _grid_roles(pick, n):
    """Roles in one grid: hold a value (0.4), listen (0.4) or neither."""
    roles = []
    for v in range(n):
        draw = pick.random()
        roles.append((f"g{v}", False) if draw < 0.4 else (None, draw < 0.8))
    return roles


@pytest.mark.parametrize("seed", range(4))
def test_det_cd_payload_matches_loop(seed):
    # Lemma 24's rounds and its payload slot are timelines now; every
    # role, Role.BOTH included, over two frames.
    graph, _ = _layered(seed)
    pick = random.Random(seed)
    roles = [
        [pick.choice(list(Role)) for _ in range(graph.n)] for _ in range(2)
    ]

    def scenario(impl):
        payload = sr_det_cd_payload if impl is _NEW else _loop_sr_det_cd_payload

        def proto(ctx):
            got = []
            for frame in roles:
                role = frame[ctx.index]
                got.append((yield from payload(
                    ctx, role, ctx.uid, f"p{ctx.index}", graph.n,
                )))
            return got, ctx.rng.random()

        return proto

    _assert_same(graph, CD, scenario, seed)


@pytest.mark.parametrize("scheme", ["LOCAL", "CD", "No-CD", "det-CD"])
@pytest.mark.parametrize("seed", range(4))
def test_casts_match_loops(scheme, seed):
    graph, tree = _layered(seed)
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    max_layers = max(layer for _, layer in tree) + pick.randint(1, 2)
    model = {"LOCAL": LOCAL, "No-CD": NO_CD}.get(scheme, CD)

    def scenario(impl):
        def proto(ctx):
            if scheme == "det-CD":
                sr = impl["DetCDScheme"](graph.n)
            else:
                sr = SRScheme(scheme, graph.max_degree, failure=0.2)
            v, layer = ctx.index, tree[ctx.index][1]
            down = yield from impl["down_cast"](
                ctx, sr, layer, down_values[v], max_layers, lambda m: m + "d",
            )
            up = yield from impl["up_cast"](
                ctx, sr, layer, up_values[v], max_layers, lambda m: m + "u",
            )
            return down, up, ctx.rng.random()

        return proto

    _assert_same(graph, model, scenario, seed)


@pytest.mark.parametrize("channel", ["CD", "No-CD", "churn"])
@pytest.mark.parametrize("seed", range(3))
def test_cluster_casts_match_loops(channel, seed):
    graph, tree = _layered(seed)
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    cids = [pick.choice((0, 0, 0, 1)) for _ in tree]
    max_layers = max(layer for _, layer in tree) + 1
    reps = pick.randint(2, 4)
    model = NO_CD if channel == "No-CD" else CD

    def scenario(impl):
        def proto(ctx):
            sr = SRScheme(
                "No-CD" if channel == "No-CD" else "CD",
                graph.max_degree, failure=0.3,
            )
            v, layer, cid = ctx.index, tree[ctx.index][1], cids[ctx.index]
            down = yield from impl["cluster_down_cast"](
                ctx, sr, layer, cid, 1000 + cid, down_values[v], max_layers,
                2, reps, "t", lambda m: m + "d",
            )
            up = yield from impl["cluster_up_cast"](
                ctx, sr, layer, cid, 1000 + cid, up_values[v], max_layers,
                2, reps, "t", lambda m: m + "u",
            )
            return down, up, ctx.rng.random()

        return proto

    _assert_same(graph, model, scenario, seed,
                 churn=_CHURN if channel == "churn" else None)


@pytest.mark.parametrize("churn", [None, _CHURN], ids=["clean", "churn"])
@pytest.mark.parametrize("seed", range(4))
def test_det_grids_and_casts_match_loops(churn, seed):
    graph, tree = _layered(seed)
    n = graph.n
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    grid = _grid_roles(pick, n)
    max_layers = max(layer for _, layer in tree) + 1

    def scenario(impl):
        def proto(ctx):
            v = ctx.index
            parent, layer = tree[v]
            parent_uid = None if parent is None else parent + 1
            down = yield from impl["det_downward"](ctx, parent_uid, *grid[v], n)
            up = yield from impl["det_upward"](ctx, parent_uid, *grid[v], n)
            cast_down = yield from impl["det_down_cast"](
                ctx, layer, parent_uid, down_values[v], max_layers, n,
                lambda m: m + "d",
            )
            cast_up = yield from impl["det_up_cast"](
                ctx, layer, parent_uid, up_values[v], max_layers, n,
                lambda m: m[1] + "u",
            )
            return down, up, cast_down, cast_up, ctx.rng.random()

        return proto

    _assert_same(graph, CD, scenario, seed, churn=churn)


@pytest.mark.parametrize("churn", [None, _CHURN], ids=["clean", "churn"])
@pytest.mark.parametrize("seed", range(4))
def test_tree_grids_and_casts_match_loops(churn, seed):
    graph, tree = _layered(seed, n=7)
    n = graph.n
    pick = random.Random(seed)
    params = TreeParams(
        num_colorings=pick.randint(1, 3), num_colors=pick.randint(6, 10),
        sr=CDParams.for_graph(graph.max_degree, 0.3, probe=True, ack=True),
    )
    colors = [sample_colors(pick, params) for _ in range(n)]
    down_values, up_values = _values(pick, tree)
    grid = _grid_roles(pick, n)
    max_layers = max(layer for _, layer in tree) + 1

    def scenario(impl):
        def proto(ctx):
            v = ctx.index
            parent, layer = tree[v]
            parent_colors = None if parent is None else colors[parent]
            mine = colors[v]
            ind = yield from impl["learn_ind"](ctx, params, mine, parent_colors)
            down = yield from impl["tree_downward"](
                ctx, params, mine, parent_colors, ind, *grid[v],
            )
            up = yield from impl["tree_upward"](
                ctx, params, mine, parent_colors, ind, *grid[v],
            )
            cast_down = yield from impl["tree_down_cast"](
                ctx, params, layer, down_values[v], max_layers, mine,
                parent_colors, ind, lambda m: m + "d",
            )
            cast_up = yield from impl["tree_up_cast"](
                ctx, params, layer, up_values[v], max_layers, mine,
                parent_colors, ind, lambda m: m + "u",
            )
            return ind, down, up, cast_down, cast_up, ctx.rng.random()

        return proto

    _assert_same(graph, CD, scenario, seed, churn=churn)


# ---------------------------------------------------------------------------
# A fixed grid is one plan per vertex
# ---------------------------------------------------------------------------


class TestGridsAreOnePlan:
    """Each vertex enters its generator twice for a whole grid: once to
    get the grid's plan and once to resume after it (the loops entered
    once per action: 1 + up to 5 for a sending and listening vertex)."""

    def test_det_downward(self):
        graph = random_gnp(8, 0.5, random.Random(3), ensure_connected=True)
        n = graph.n

        def proto(ctx):
            v = ctx.index
            out = yield from det_downward(
                ctx, (v + 3) % n + 1 if v % 3 else None,
                f"v{v}" if v % 2 else None, v % 3 != 0, n,
            )
            return out

        result = Simulator(graph, CD, seed=0).run(proto)
        assert result.gen_entries == 2 * n
        # The loop's entries for the same grid: one per action.
        loop = Simulator(graph, CD, seed=0).run(
            lambda ctx: _loop_det_downward(
                ctx, (ctx.index + 3) % n + 1 if ctx.index % 3 else None,
                f"v{ctx.index}" if ctx.index % 2 else None,
                ctx.index % 3 != 0, n,
            )
        )
        assert loop.outputs == result.outputs
        assert loop.gen_entries > result.gen_entries

    def test_learn_ind_and_tree_downward(self):
        graph = random_gnp(7, 0.5, random.Random(4), ensure_connected=True)
        n = graph.n
        pick = random.Random(4)
        params = TreeParams(3, 5, CDParams.for_graph(graph.max_degree, 0.3))
        colors = [sample_colors(pick, params) for _ in range(n)]

        def proto(ctx):
            v = ctx.index
            parent = colors[(v + 1) % n] if v else None
            ind = yield from learn_ind(ctx, params, colors[v], parent)
            got = yield from tree_downward(
                ctx, params, colors[v], parent, ind,
                f"v{v}" if v % 2 else None, v % 2 == 0,
            )
            return ind, got

        result = Simulator(graph, CD, seed=0).run(proto)
        # Two grids: the first entry, one resume per grid.
        assert result.gen_entries == 3 * n
