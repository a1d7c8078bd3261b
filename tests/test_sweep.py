"""One schedule for every layered sweep and fixed slot grid.

:func:`repro.core.casts.sweep` is Lemma 10's two-positions-per-vertex
schedule; :func:`repro.sim.plan.timeline` gives the per-slot actions of a
fixed slot schedule.  The casts and grids that run through them are
pinned here by run digest (:func:`tests.conftest.run_digest`) over
random roles and seeds, and each run is checked against the per-slot
:class:`ReferenceSimulator`.  The pins were recorded from runs that
matched, in outputs, energy, duration, finish slots, trace and next rng
draw, the hand-written loops the casts and grids replaced, which entered
their generators no less often.
"""

from __future__ import annotations

import random

import pytest

from repro.core.casts import down_cast, identity, sweep, up_cast
from repro.core.cluster_casts import cluster_down_cast, cluster_up_cast
from repro.core.det_tree import (
    DetCDScheme,
    det_down_cast,
    det_downward,
    det_up_cast,
    det_upward,
)
from repro.core.schemes import SRScheme
from repro.core.sr_comm import CDParams, Role, sr_det_cd_payload
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
    ExecutionConfig,
    Idle,
    Listen,
    Send,
    Simulator,
)
from repro.sim.faults import parse_fault_specs
from repro.sim.reference import ReferenceSimulator
from tests.conftest import assert_pinned, assert_same_run, run_digest


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
# Differential: the casts and grids over random roles, pinned by digest
# ---------------------------------------------------------------------------

_CHURN = "random:p=0.3,period=15,down=4"

#: case -> run digest of the engine run.  Recorded from runs that matched
#: the loops each cast and grid replaced: the per-round loop of Lemma
#: 24's primitive, the per-frame cast and cluster-cast loops, and the
#: per-action grid loops.
_PINNED = {
    ('det_cd_payload', 0): '9bb0cc5f9eb77200',
    ('det_cd_payload', 1): 'a983c04b2688f4da',
    ('det_cd_payload', 2): '9221fb5b3a4cbd06',
    ('det_cd_payload', 3): '3a36da2d67573a02',
    ('casts', 'LOCAL', 0): '86e8285b30fed62a',
    ('casts', 'CD', 0): '04dcb236f6a79559',
    ('casts', 'No-CD', 0): 'ec441b7bdf0e4c1c',
    ('casts', 'det-CD', 0): '2be5897d63c32ed4',
    ('casts', 'LOCAL', 1): '995c8df64e5fd4f1',
    ('casts', 'CD', 1): 'f465ce36c6f05477',
    ('casts', 'No-CD', 1): '2e077675614a7e25',
    ('casts', 'det-CD', 1): '82c29f08311b9a95',
    ('casts', 'LOCAL', 2): '7c489e2437387083',
    ('casts', 'CD', 2): '28a3d42c1751ca41',
    ('casts', 'No-CD', 2): '7d5f3a9372ac0ac1',
    ('casts', 'det-CD', 2): 'af1e9ed038ac6f26',
    ('casts', 'LOCAL', 3): '7ddf9952d575a8ef',
    ('casts', 'CD', 3): '8ecc3edfa7d9fa53',
    ('casts', 'No-CD', 3): 'd6c4f793c4ddda01',
    ('casts', 'det-CD', 3): '51214aa26488d69e',
    ('cluster_casts', 'CD', 0): '75b3cff7264cce0a',
    ('cluster_casts', 'No-CD', 0): '6c30d8584998fe6d',
    ('cluster_casts', 'churn', 0): '75b3cff7264cce0a',
    ('cluster_casts', 'CD', 1): '524d8ee77530cb3d',
    ('cluster_casts', 'No-CD', 1): '8a9b8bdf82cd2aee',
    ('cluster_casts', 'churn', 1): '524d8ee77530cb3d',
    ('cluster_casts', 'CD', 2): '5910a6a8eb728dc5',
    ('cluster_casts', 'No-CD', 2): 'cd5a0c9f1eeb941e',
    ('cluster_casts', 'churn', 2): '88351157cebad611',
    ('det_grids', 'clean', 0): 'fb4ed3b5e27d1c2e',
    ('det_grids', 'churn', 0): 'fb4ed3b5e27d1c2e',
    ('det_grids', 'clean', 1): '32a565056f4ef694',
    ('det_grids', 'churn', 1): '1ad1f9d08cf5c3ed',
    ('det_grids', 'clean', 2): '45ed9163ee75ca50',
    ('det_grids', 'churn', 2): 'bb0812038076406c',
    ('det_grids', 'clean', 3): '047c25a3c7722029',
    ('det_grids', 'churn', 3): '047c25a3c7722029',
    ('tree_grids', 'clean', 0): '79f470993bb25a69',
    ('tree_grids', 'churn', 0): '8a617a4a626144f5',
    ('tree_grids', 'clean', 1): 'bbbbfca33792ad04',
    ('tree_grids', 'churn', 1): '8eb454d08fe8019e',
    ('tree_grids', 'clean', 2): '6f9be4ee634f68e8',
    ('tree_grids', 'churn', 2): 'ad8fa02233b358bf',
    ('tree_grids', 'clean', 3): '79a8c385b10ade11',
    ('tree_grids', 'churn', 3): '4aceed433edf7916',
    ('one_plan', 'det_downward'): 'd0dd43dc946f7fdb',
    ('one_plan', 'learn_ind_and_tree_downward'): 'c27838d337433b42',
}


def _pinned_run(key, graph, model, protocol, seed, churn=None, trace=True):
    """``protocol``'s engine run, checked against the per-slot reference
    (the same outputs, energy, duration, finish slots and trace) and
    against the pinned digest of case ``key``."""
    config = ExecutionConfig(record_trace=trace, churn=churn)
    engine = Simulator(
        graph, model, seed=seed, exec_config=config
    ).run(protocol)
    reference = ReferenceSimulator(
        graph, model, seed=seed, faults=parse_fault_specs(config),
        record_trace=trace,
    ).run(protocol)
    assert_same_run(engine, reference, str(key))
    assert_pinned(_PINNED, {key: run_digest(engine)})
    return engine


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
    """Lemma 24's rounds and its payload slot, as timelines, for every
    role (``Role.BOTH`` included) over two frames; pinned from runs that
    matched the per-round loop."""
    graph, _ = _layered(seed)
    pick = random.Random(seed)
    roles = [
        [pick.choice(list(Role)) for _ in range(graph.n)] for _ in range(2)
    ]

    def proto(ctx):
        got = []
        for frame in roles:
            got.append((yield from sr_det_cd_payload(
                ctx, frame[ctx.index], ctx.uid, f"p{ctx.index}", graph.n,
            )))
        return got, ctx.rng.random()

    _pinned_run(("det_cd_payload", seed), graph, CD, proto, seed)


@pytest.mark.parametrize("scheme", ["LOCAL", "CD", "No-CD", "det-CD"])
@pytest.mark.parametrize("seed", range(4))
def test_casts_match_loops(scheme, seed):
    """A Down-cast then an Up-cast; pinned from runs that matched the
    per-frame loops, on the per-round loop of Lemma 24's primitive for
    det-CD."""
    graph, tree = _layered(seed)
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    max_layers = max(layer for _, layer in tree) + pick.randint(1, 2)
    model = {"LOCAL": LOCAL, "No-CD": NO_CD}.get(scheme, CD)

    def proto(ctx):
        if scheme == "det-CD":
            sr = DetCDScheme(graph.n)
        else:
            sr = SRScheme(scheme, graph.max_degree, failure=0.2)
        v, layer = ctx.index, tree[ctx.index][1]
        down = yield from down_cast(
            ctx, sr, layer, down_values[v], max_layers, lambda m: m + "d",
        )
        up = yield from up_cast(
            ctx, sr, layer, up_values[v], max_layers, lambda m: m + "u",
        )
        return down, up, ctx.rng.random()

    _pinned_run(("casts", scheme, seed), graph, model, proto, seed)


@pytest.mark.parametrize("channel", ["CD", "No-CD", "churn"])
@pytest.mark.parametrize("seed", range(3))
def test_cluster_casts_match_loops(channel, seed):
    """Lemma 17's cluster casts; pinned from runs that matched the
    per-frame loop."""
    graph, tree = _layered(seed)
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    cids = [pick.choice((0, 0, 0, 1)) for _ in tree]
    max_layers = max(layer for _, layer in tree) + 1
    reps = pick.randint(2, 4)
    model = NO_CD if channel == "No-CD" else CD

    def proto(ctx):
        sr = SRScheme(
            "No-CD" if channel == "No-CD" else "CD",
            graph.max_degree, failure=0.3,
        )
        v, layer, cid = ctx.index, tree[ctx.index][1], cids[ctx.index]
        down = yield from cluster_down_cast(
            ctx, sr, layer, cid, 1000 + cid, down_values[v], max_layers,
            2, reps, "t", lambda m: m + "d",
        )
        up = yield from cluster_up_cast(
            ctx, sr, layer, cid, 1000 + cid, up_values[v], max_layers,
            2, reps, "t", lambda m: m + "u",
        )
        return down, up, ctx.rng.random()

    _pinned_run(("cluster_casts", channel, seed), graph, model, proto, seed,
                churn=_CHURN if channel == "churn" else None)


@pytest.mark.parametrize("churn", [None, _CHURN], ids=["clean", "churn"])
@pytest.mark.parametrize("seed", range(4))
def test_det_grids_and_casts_match_loops(churn, seed):
    """Lemma 28's Downward and Upward grids and their casts; pinned from
    runs that matched the per-action grid loops."""
    graph, tree = _layered(seed)
    n = graph.n
    pick = random.Random(seed)
    down_values, up_values = _values(pick, tree)
    grid = _grid_roles(pick, n)
    max_layers = max(layer for _, layer in tree) + 1

    def proto(ctx):
        v = ctx.index
        parent, layer = tree[v]
        parent_uid = None if parent is None else parent + 1
        down = yield from det_downward(ctx, parent_uid, *grid[v], n)
        up = yield from det_upward(ctx, parent_uid, *grid[v], n)
        cast_down = yield from det_down_cast(
            ctx, layer, parent_uid, down_values[v], max_layers, n,
            lambda m: m + "d",
        )
        cast_up = yield from det_up_cast(
            ctx, layer, parent_uid, up_values[v], max_layers, n,
            lambda m: m[1] + "u",
        )
        return down, up, cast_down, cast_up, ctx.rng.random()

    key = ("det_grids", "churn" if churn else "clean", seed)
    _pinned_run(key, graph, CD, proto, seed, churn=churn)


@pytest.mark.parametrize("churn", [None, _CHURN], ids=["clean", "churn"])
@pytest.mark.parametrize("seed", range(4))
def test_tree_grids_and_casts_match_loops(churn, seed):
    """Section 7.1's Ind learning, colored grids and casts; pinned from
    runs that matched the per-action grid loops."""
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

    def proto(ctx):
        v = ctx.index
        parent, layer = tree[v]
        parent_colors = None if parent is None else colors[parent]
        mine = colors[v]
        ind = yield from learn_ind(ctx, params, mine, parent_colors)
        down = yield from tree_downward(
            ctx, params, mine, parent_colors, ind, *grid[v],
        )
        up = yield from tree_upward(
            ctx, params, mine, parent_colors, ind, *grid[v],
        )
        cast_down = yield from tree_down_cast(
            ctx, params, layer, down_values[v], max_layers, mine,
            parent_colors, ind, lambda m: m + "d",
        )
        cast_up = yield from tree_up_cast(
            ctx, params, layer, up_values[v], max_layers, mine,
            parent_colors, ind, lambda m: m + "u",
        )
        return ind, down, up, cast_down, cast_up, ctx.rng.random()

    key = ("tree_grids", "churn" if churn else "clean", seed)
    _pinned_run(key, graph, CD, proto, seed, churn=churn)


# ---------------------------------------------------------------------------
# A fixed grid is one plan per vertex
# ---------------------------------------------------------------------------


class TestGridsAreOnePlan:
    """Each vertex enters its generator twice for a whole grid: once to
    get the grid's plan and once to resume after it (the per-action loops
    these grids replaced entered once per action: 1 + up to 5 for a
    sending and listening vertex).  Both runs are pinned by digest,
    recorded from runs whose outputs, energy and slots matched those
    loops'."""

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

        key = ("one_plan", "det_downward")
        result = _pinned_run(key, graph, CD, proto, 0, trace=False)
        assert result.gen_entries == 2 * n

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

        key = ("one_plan", "learn_ind_and_tree_downward")
        result = _pinned_run(key, graph, CD, proto, 0, trace=False)
        # Two grids: the first entry, one resume per grid.
        assert result.gen_entries == 3 * n
