"""TrialSetup (repro.sim.trial): the one routine that starts a trial.

The serial engine, the trial-SoA engine and the reference oracle all
start their trials here, so its contracts are pinned directly:

* the knowledge and uid defaults, and the uid validation;
* master seed -> one ``NodeCtx`` and private 64-bit seed per node, in
  vertex order, with per-node copies of the inputs;
* the lazy rng: a node's ``random.Random`` is built from its seed on
  the first ``ctx.rng`` read, so streams do not depend on read order
  and a protocol that never draws builds none, on any executor;
* every generator entered once, plans handed on as yielded (the
  reference oracle expands them per slot itself), and nodes that return
  on their first entry reported as outputs;
* ``faults`` realizing the batch's fault plan for each trial seed;
* every executor starting each trial through this one routine.
"""

from __future__ import annotations

import copy
import random
from types import SimpleNamespace

import pytest

import repro.sim.node as node_module
from repro.graphs import Graph, clique, path_graph, star_graph
from repro.sim import (
    NO_CD,
    ExecutionConfig,
    FaultPlan,
    Idle,
    Knowledge,
    Listen,
    ListenUntil,
    NodeCtx,
    Repeat,
    Send,
    Simulator,
    Steps,
    numpy_available,
    run_trials,
)
from repro.sim.reference import ReferenceSimulator
from repro.sim.trial import TrialSetup

CHURN = "random:p=0.4,period=4,down=2"
BURST = "p_gb=0.3,p_bg=0.3"


def _listener(ctx):
    return (yield Listen())


def _chatter(ctx):
    heard = 0
    for step in range(6):
        if ctx.rng.random() < 0.4:
            yield Send((ctx.index, step))
        elif (yield Listen()) not in (None, ()):
            heard += 1
    return heard


def _drawless(ctx):
    """Idles, plans and fixed steps only: never reads ``ctx.rng``."""
    yield Idle(1 + ctx.index % 2)
    if ctx.index == 0:
        yield Repeat(Send("m"), 2)
    else:
        yield ListenUntil(3, pad=True)
    heard = yield Steps((Listen(), Idle(1), Send(ctx.index)))
    return len(heard)


def _master_streams(seed, n):
    """Each node's first three draws, derived by hand from the master
    seed: one 64-bit child seed per node, in vertex order."""
    master = random.Random(seed)
    rngs = [random.Random(master.getrandbits(64)) for _ in range(n)]
    return [[rng.random() for _ in range(3)] for rng in rngs]


def _draws(ctx):
    return [ctx.rng.random() for _ in range(3)]


@pytest.fixture
def built_rngs(monkeypatch):
    """The seed of every ``random.Random`` a ``NodeCtx`` builds."""
    seeds = []

    def counting_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(
        node_module, "random", SimpleNamespace(Random=counting_random)
    )
    return seeds


class TestDefaults:
    def test_knowledge_defaults_to_n_and_max_degree(self):
        setup = TrialSetup(star_graph(5))
        assert setup.knowledge == Knowledge(n=5, max_degree=4, diameter=None)

    def test_default_max_degree_is_at_least_one(self):
        # Protocols divide by Delta; an edgeless graph still reports 1.
        assert TrialSetup(Graph(3, [])).knowledge.max_degree == 1

    def test_explicit_knowledge_reaches_every_node(self):
        knowledge = Knowledge(n=10, max_degree=3, diameter=4, id_space=99)
        ctxs, _, _, _ = TrialSetup(path_graph(4), knowledge).start(
            _listener, 0
        )
        assert all(ctx.knowledge is knowledge for ctx in ctxs)

    def test_uids_default_to_one_through_n(self):
        ctxs, _, _, _ = TrialSetup(path_graph(4)).start(_listener, 0)
        assert [ctx.uid for ctx in ctxs] == [1, 2, 3, 4]

    def test_explicit_uids_reach_their_vertices(self):
        ctxs, _, _, _ = TrialSetup(path_graph(3), uids=(30, 10, 20)).start(
            _listener, 0
        )
        assert [ctx.uid for ctx in ctxs] == [30, 10, 20]

    @pytest.mark.parametrize(
        "uids",
        [(1, 2), (1, 2, 3, 4), (1, 1, 2)],
        ids=["too-few", "too-many", "duplicate"],
    )
    def test_bad_uids_rejected(self, uids):
        with pytest.raises(ValueError, match="uids"):
            TrialSetup(path_graph(3), uids=uids)


class TestStart:
    def test_node_rngs_come_from_the_master_seed_in_vertex_order(self):
        ctxs, _, _, _ = TrialSetup(clique(4)).start(_listener, 17)
        assert [_draws(ctx) for ctx in ctxs] == _master_streams(17, 4)

    def test_reading_node_rngs_in_reverse_order_gives_the_same_streams(self):
        # Seeds are drawn at start; a node's stream does not depend on
        # when its rng is first read.
        ctxs, _, _, _ = TrialSetup(clique(4)).start(_listener, 17)
        streams = [_draws(ctx) for ctx in reversed(ctxs)]
        assert streams[::-1] == _master_streams(17, 4)

    def test_streams_depend_on_the_seed_only(self):
        setup = TrialSetup(clique(3))

        def draws(seed):
            ctxs, _, _, _ = setup.start(_listener, seed)
            return [ctx.rng.random() for ctx in ctxs]

        assert draws(5) == draws(5)  # the setup keeps no per-trial state
        assert draws(5) != draws(6)
        assert len(set(draws(5))) == 3  # one private stream per node

    def test_inputs_are_copied_per_node(self):
        inputs = {0: {"source": True}}
        ctxs, _, _, _ = TrialSetup(path_graph(2)).start(_listener, 0, inputs)
        ctxs[0].inputs["source"] = False
        assert inputs == {0: {"source": True}}
        assert ctxs[1].inputs == {}

    def test_input_keys_must_be_vertices(self):
        with pytest.raises(ValueError, match="vertex indices"):
            TrialSetup(path_graph(2)).start(_listener, 0, {2: {}})

    def test_generators_entered_once_in_vertex_order(self):
        entered = []

        def protocol(ctx):
            entered.append(ctx.index)
            yield Listen()

        ctxs, gens, _, _ = TrialSetup(clique(4)).start(protocol, 0)
        assert entered == [0, 1, 2, 3]
        assert len(gens) == len(ctxs) == 4

    def test_first_emissions_and_immediate_returns(self):
        def protocol(ctx):
            if ctx.index % 2:
                return ("done", ctx.index)
            yield Send(ctx.index)

        _, _, outputs, first = TrialSetup(path_graph(5)).start(protocol, 0)
        assert first == [(0, Send(0)), (2, Send(2)), (4, Send(4))]
        assert outputs == [None, ("done", 1), None, ("done", 3), None]

    def test_oracle_starts_with_plans_expanded(self, monkeypatch):
        def protocol(ctx):
            yield Repeat(Send("x"), 3)

        graph = path_graph(2)
        _, _, _, phase = TrialSetup(graph).start(protocol, 0)
        assert phase == [(0, Repeat(Send("x"), 3)), (1, Repeat(Send("x"), 3))]
        # The reference oracle starts the same trial with its plans
        # expanded into per-slot yields.
        starts = []
        start = TrialSetup.start

        def recording_start(setup, protocol_factory, seed, inputs=None):
            started = start(setup, protocol_factory, seed, inputs)
            starts.append(started[3])
            return started

        monkeypatch.setattr(TrialSetup, "start", recording_start)
        ReferenceSimulator(graph, NO_CD).run(protocol)
        assert starts == [[(0, Send("x")), (1, Send("x"))]]


class TestLazyRng:
    """A node's ``random.Random`` is built from its seed on the first
    ``ctx.rng`` read, whichever executor runs the trial."""

    SEEDS = [3, 1]

    def _run(self, executor, graph, protocol):
        if executor == "reference":
            return [
                ReferenceSimulator(graph, NO_CD, seed=seed).run(protocol)
                for seed in self.SEEDS
            ]
        config = {
            "serial": ExecutionConfig(),
            "soa": ExecutionConfig(lockstep=True, resolution="numpy"),
            "fallback": ExecutionConfig(lockstep=True),
        }[executor]
        return run_trials(
            graph, NO_CD, protocol, self.SEEDS, exec_config=config
        )

    @pytest.mark.parametrize(
        "executor", ["serial", "soa", "fallback", "reference"]
    )
    def test_only_protocols_that_draw_build_rngs(self, executor, built_rngs):
        if executor == "soa" and not numpy_available():
            pytest.skip("the SoA engine needs numpy")
        graph = clique(5)
        results = self._run(executor, graph, _drawless)
        assert built_rngs == []
        assert results[0].outputs == [1] * graph.n
        expected_reason = {"soa": "ok", "fallback": "resolution"}
        assert results[0].soa_reason == expected_reason.get(executor)
        # The control: a protocol that draws builds one rng per node.
        self._run(executor, graph, _chatter)
        assert len(built_rngs) == graph.n * len(self.SEEDS)

    def test_rng_is_built_once_and_kept_on_the_instance(self, built_rngs):
        ctx = NodeCtx(index=0, uid=1, knowledge=Knowledge(1, 1), seed=5)
        assert "rng" not in vars(ctx)
        rng = ctx.rng
        assert vars(ctx)["rng"] is rng and ctx.rng is rng
        assert built_rngs == [5]

    def test_takes_exactly_one_of_rng_and_seed(self):
        knowledge = Knowledge(1, 1)
        with pytest.raises(TypeError, match="exactly one"):
            NodeCtx(index=0, uid=1, knowledge=knowledge)
        with pytest.raises(TypeError, match="exactly one"):
            NodeCtx(
                index=0, uid=1, knowledge=knowledge,
                rng=random.Random(5), seed=5,
            )

    def test_copy_and_hasattr_are_safe_before_the_first_read(self):
        ctx = NodeCtx(index=0, uid=1, knowledge=Knowledge(1, 1), seed=5)
        assert not hasattr(ctx, "missing")
        twin = copy.copy(ctx)
        assert _draws(twin) == _draws(ctx)


class TestFaults:
    def test_clean_channel_passes_the_model_through(self):
        assert TrialSetup(clique(3)).faults(NO_CD, 4) == (NO_CD, None)

    def test_faulted_trial_realizes_the_plan_for_its_seed(self):
        plan = FaultPlan(churn=CHURN, burst_loss=BURST)
        setup = TrialSetup(clique(3), fault_plan=plan)

        def realization(model, churn):
            downs = [churn.down(v, s) for v in range(3) for s in range(40)]
            heard = []
            for slot in range(40):
                model.begin_slot(slot, 1)
                heard.append(model.resolve(["m"]))
            return downs, heard

        for seed in (0, 1):
            assert realization(*setup.faults(NO_CD, seed)) == realization(
                *plan.for_trial(NO_CD, seed)
            )
        assert realization(*setup.faults(NO_CD, 0)) != realization(
            *setup.faults(NO_CD, 1)
        )


class TestEveryExecutorStartsHere:
    """Each executor starts each trial through ``TrialSetup.start`` and
    realizes its faults through ``TrialSetup.faults``, once per trial,
    in seed order."""

    SEEDS = [3, 1, 4]

    def _run(self, executor, graph):
        config = ExecutionConfig(churn=CHURN)
        if executor == "serial":
            run_trials(graph, NO_CD, _chatter, self.SEEDS, exec_config=config)
        elif executor == "soa":
            run_trials(
                graph, NO_CD, _chatter, self.SEEDS,
                exec_config=ExecutionConfig(
                    lockstep=True, resolution="numpy", burst_loss=BURST
                ),
            )
        elif executor == "fallback":
            run_trials(
                graph, NO_CD, _chatter, self.SEEDS,
                exec_config=config.replace(lockstep=True),
            )
        else:
            for seed in self.SEEDS:
                ReferenceSimulator(
                    graph, NO_CD, seed=seed, faults=FaultPlan(churn=CHURN)
                ).run(_chatter)

    @pytest.mark.parametrize(
        "executor", ["serial", "soa", "fallback", "reference"]
    )
    def test_one_start_and_one_realization_per_trial(
        self, executor, monkeypatch
    ):
        if executor == "soa" and not numpy_available():
            pytest.skip("the SoA engine needs numpy")
        calls = {"start": [], "faults": []}
        start, faults = TrialSetup.start, TrialSetup.faults

        def counting_start(setup, protocol_factory, seed, inputs=None):
            calls["start"].append(seed)
            return start(setup, protocol_factory, seed, inputs)

        def counting_faults(setup, model, seed):
            calls["faults"].append(seed)
            return faults(setup, model, seed)

        monkeypatch.setattr(TrialSetup, "start", counting_start)
        monkeypatch.setattr(TrialSetup, "faults", counting_faults)
        self._run(executor, clique(5))
        assert calls == {"start": self.SEEDS, "faults": self.SEEDS}

    def test_simulator_and_oracle_start_identical_trials(self):
        graph = star_graph(6)
        knowledge = Knowledge(n=6, max_degree=5, diameter=2)
        uids = (6, 5, 4, 3, 2, 1)
        engine = Simulator(graph, NO_CD, knowledge=knowledge, uids=uids)
        oracle = ReferenceSimulator(
            graph, NO_CD, knowledge=knowledge, uids=uids
        )

        def snapshot(setup):
            ctxs, _, _, first = setup.start(_chatter, 9)
            return (
                [(c.index, c.uid, c.knowledge, c.rng.random()) for c in ctxs],
                first,
            )

        assert snapshot(engine.setup) == snapshot(oracle.setup)
