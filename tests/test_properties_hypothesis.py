"""Property-based tests (hypothesis) on core invariants.

Invariants covered:
* engine: energy meters equal the count of active slots in the trace;
  duration equals the last active slot + 1; protocols consuming the same
  schedule finish at the same slot (fixed-frame contract).
* labelings: BFS layers always form a good labeling; refinement output is
  always good in LOCAL.
* decay/CD frame geometry: monotone in the failure parameter.
* deterministic SR: the receiver's learned minimum matches ground truth
  for arbitrary value assignments.
* blocking-time distribution support.
* graph facts: the diameter (two BFS passes on trees) equals the
  maximum all-pairs BFS eccentricity.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.labeling import is_good_labeling
from repro.core.sr_comm import (
    CDParams,
    DecayParams,
    Role,
    det_frame_length,
    sr_det_cd,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    diameter,
    grid_graph,
    k2k_gadget,
    path_graph,
    random_gnp,
    random_tree,
    star_graph,
)
from repro.sim import CD, NO_CD, ExecutionConfig, Idle, Listen, Send, Simulator


# --- engine invariants ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.sampled_from(["send", "listen", "idle"]),
                  st.integers(min_value=1, max_value=5)),
        min_size=1, max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_energy_equals_active_slots(plan, seed):
    def proto(ctx):
        for kind, amount in plan:
            if kind == "send":
                for _ in range(amount):
                    yield Send("x")
            elif kind == "listen":
                for _ in range(amount):
                    yield Listen()
            else:
                yield Idle(amount)
        return None

    sim = Simulator(path_graph(2), NO_CD, seed=seed, exec_config=ExecutionConfig(record_trace=True))
    result = sim.run(proto)
    expected = sum(a for k, a in plan if k in ("send", "listen"))
    for v in (0, 1):
        assert result.energy[v].total == expected
        assert len(result.trace.events_for(v)) == expected
    total_slots = sum(a for _, a in plan)
    assert result.duration == total_slots
    # finish slot = last slot of the final action.
    assert all(f <= total_slots - 1 for f in result.finish_slot)


@settings(max_examples=20, deadline=None)
@given(
    idles=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=6),
)
def test_fixed_frame_contract_alignment(idles):
    """Two nodes executing the same slot schedule observe the same time."""

    def proto(ctx):
        for duration in idles:
            yield Idle(duration)
        yield Send("done")
        return ctx.time

    result = Simulator(path_graph(3), NO_CD, seed=0).run(proto)
    assert len(set(result.outputs)) == 1
    assert result.outputs[0] == sum(idles) + 1


# --- labelings --------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=999),
    source=st.integers(min_value=0, max_value=39),
)
def test_bfs_layers_are_good_labelings(n, seed, source):
    graph = random_tree(n, random.Random(seed))
    labels = bfs_distances(graph, source % n)
    assert is_good_labeling(graph, labels)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=99),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_refinement_always_good_local(n, seed, rounds):
    from repro.core.clustering import refine_labeling
    from repro.core.schemes import SRScheme
    from repro.sim import LOCAL

    graph = random_tree(n, random.Random(seed))
    scheme = SRScheme("LOCAL", max(graph.max_degree, 1))

    def proto(ctx):
        label = 0
        for _ in range(rounds):
            label = yield from refine_labeling(
                ctx, scheme, label, survive_p=0.5, spread_s=1, max_layers=ctx.n
            )
        return label

    labels = Simulator(graph, LOCAL, seed=seed).run(proto).outputs
    assert is_good_labeling(graph, labels)


# --- SR-communication geometry ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    delta=st.integers(min_value=1, max_value=512),
    f1=st.floats(min_value=0.001, max_value=0.4),
)
def test_decay_params_monotone_in_failure(delta, f1):
    f2 = f1 / 2
    loose = DecayParams.for_graph(delta, f1)
    tight = DecayParams.for_graph(delta, f2)
    assert tight.phases >= loose.phases
    assert tight.frame_length >= loose.frame_length
    assert loose.slots_per_phase == tight.slots_per_phase
    assert loose.slots_per_phase >= math.log2(max(2, delta))


@settings(max_examples=40, deadline=None)
@given(
    delta=st.integers(min_value=1, max_value=512),
    failure=st.floats(min_value=0.001, max_value=0.4),
)
def test_cd_params_geometry(delta, failure):
    plain = CDParams.for_graph(delta, failure)
    probed = CDParams.for_graph(delta, failure, probe=True)
    acked = CDParams.for_graph(delta, failure, ack=True)
    assert probed.frame_length == plain.frame_length + 2
    assert acked.frame_length == plain.frame_length + plain.epochs
    assert plain.epochs >= 1


# --- deterministic SR correctness -------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=8,
        unique=True,
    ),
)
def test_det_sr_learns_true_minimum(values):
    n = len(values) + 1
    graph = star_graph(n)
    space = 64

    def proto(ctx):
        if ctx.index == 0:
            out = yield from sr_det_cd(ctx, Role.RECEIVER, None, space)
        else:
            out = yield from sr_det_cd(
                ctx, Role.SENDER, values[ctx.index - 1], space
            )
        return out

    result = Simulator(graph, CD, seed=0).run(proto)
    assert result.outputs[0] == min(values)
    assert result.duration <= det_frame_length(space)


# --- path blocking times -----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    log_n=st.integers(min_value=1, max_value=14),
)
def test_blocking_time_support(seed, log_n):
    from repro.broadcast.path import sample_blocking_time

    n = 2**log_n
    value = sample_blocking_time(random.Random(seed), n)
    assert value in {2**b for b in range(1, log_n + 1)} or value == n
    assert 2 <= value <= n


# --- graph facts ---------------------------------------------------------------


def _all_pairs_diameter(graph: Graph) -> int:
    return max(max(bfs_distances(graph, v)) for v in range(graph.n))


def _relabel(n, edges, labels):
    return Graph(n, [(labels[u], labels[v]) for u, v in edges])


@st.composite
def _trees(draw):
    """Random trees with shuffled labels, so vertex 0 may sit anywhere."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    return _relabel(n, edges, draw(st.permutations(range(n))))


_CONNECTED_GRAPHS = st.one_of(
    _trees(),
    st.integers(min_value=1, max_value=40).map(path_graph),
    st.integers(min_value=2, max_value=40).map(star_graph),
    st.integers(min_value=1, max_value=12).map(lambda k: k2k_gadget(k)[0]),
    st.integers(min_value=3, max_value=30).map(cycle_graph),
    st.tuples(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    ).map(lambda shape: grid_graph(*shape)),
    st.tuples(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=10_000),
    ).map(lambda a: random_gnp(a[0], a[1], random.Random(a[2]))),
)


@settings(max_examples=150, deadline=None)
@given(graph=_CONNECTED_GRAPHS)
def test_diameter_equals_all_pairs_bfs(graph):
    assert diameter(graph) == _all_pairs_diameter(graph)


@settings(max_examples=40, deadline=None)
@given(
    cycle=st.integers(min_value=3, max_value=12),
    rest=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@example(cycle=3, rest=1, data=None)  # a triangle plus an isolated vertex
def test_diameter_rejects_disconnected_graphs_with_tree_edge_count(
    cycle, rest, data
):
    # A cycle (as many edges as vertices) beside a tree on the other
    # vertices has n - 1 edges in all, yet is no tree.
    n = cycle + rest
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(cycle + v - 1, cycle + v) for v in range(1, rest)]
    labels = (
        list(range(n)) if data is None
        else data.draw(st.permutations(range(n)))
    )
    graph = _relabel(n, edges, labels)
    assert len(graph.edges) == n - 1
    with pytest.raises(ValueError):
        diameter(graph)
