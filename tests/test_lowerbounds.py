"""Tests for the lower-bound harnesses (Section 2)."""

from __future__ import annotations

import math

import pytest

from repro.broadcast import (
    cluster_broadcast_protocol,
    decay_broadcast_protocol,
    run_broadcast,
    run_broadcast_trials,
    theorem11_params,
)
from repro.broadcast.path import path_broadcast_protocol
from repro.graphs import k2k_gadget, path_graph
from repro.lowerbounds import (
    LeaderElectionObserver,
    PreReceptionObserver,
    derive_leader_election,
    energy_before_reception,
)
from repro.sim import (
    CD,
    CD_FD,
    LOCAL,
    NO_CD,
    NO_CD_FD,
    ExecutionConfig,
    Idle,
    Knowledge,
    Listen,
    Send,
    SendListen,
)

from tests.conftest import knowledge_for


def _k2k_run(k, model, protocol, seed):
    g, s, t = k2k_gadget(k)
    knowledge = Knowledge(n=g.n, max_degree=g.max_degree, diameter=2)
    out = run_broadcast(
        g, model, protocol, source=s, knowledge=knowledge, seed=seed,
        exec_config=ExecutionConfig(record_trace=True),
    )
    return out, s, t


class TestTheorem2Reduction:
    def test_reduction_requires_trace(self):
        g, s, t = k2k_gadget(3)
        out = run_broadcast(
            g, NO_CD, decay_broadcast_protocol(failure=0.05), source=s,
            knowledge=Knowledge(n=g.n, max_degree=g.max_degree, diameter=2),
            seed=0,
        )
        with pytest.raises(ValueError):
            derive_leader_election(out, s, t)

    def test_derived_le_elects_a_middle_vertex(self):
        out, s, t = _k2k_run(6, NO_CD, decay_broadcast_protocol(failure=0.01), 1)
        report = derive_leader_election(out, s, t)
        assert report.elected
        assert report.winner not in (s, t)
        assert 2 <= report.winner <= 7

    def test_accounting_inequality_holds(self):
        # T_LE <= 2E across algorithms, models, gadget widths, seeds.
        for k in (2, 5, 9):
            for seed in (0, 3):
                out, s, t = _k2k_run(
                    k, NO_CD, decay_broadcast_protocol(failure=0.01), seed
                )
                report = derive_leader_election(out, s, t)
                assert report.bound_holds
                assert report.le_time <= report.st_energy

    def test_reduction_on_clustering_algorithm_cd(self):
        g, s, t = k2k_gadget(6)
        params = theorem11_params(g.n, "CD", failure=0.01)
        out, s, t = _k2k_run(6, CD, cluster_broadcast_protocol(params), 2)
        report = derive_leader_election(out, s, t)
        assert report.elected
        assert report.bound_holds

    def test_le_time_grows_with_k_for_decay(self):
        # More contention -> the derived LE needs more meaningful slots
        # (this is the engine of the Omega(log Delta log n) bound).
        import statistics

        times = {}
        for k in (2, 16):
            values = []
            for seed in range(5):
                out, s, t = _k2k_run(
                    k, NO_CD, decay_broadcast_protocol(failure=0.01), seed
                )
                values.append(derive_leader_election(out, s, t).le_time)
            times[k] = statistics.median(values)
        assert times[16] >= times[2]


class TestTheorem1PathQuantity:
    def _worst(self, n, seed):
        g = path_graph(n)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(), seed=seed,
            knowledge=Knowledge(n=n, max_degree=2, diameter=n - 1),
            exec_config=ExecutionConfig(record_trace=True),
        )
        assert out.delivered
        return energy_before_reception(out).worst

    def test_exceeds_one_fifth_log(self):
        # Theorem 1: some vertex spends >= (1/5) log2 n before reception
        # (with probability 1/2; our optimal algorithm satisfies it on
        # every observed seed at these sizes).
        for n in (64, 256):
            hits = sum(
                self._worst(n, seed) >= math.log2(n) / 5 for seed in range(5)
            )
            assert hits >= 3

    def test_grows_with_n(self):
        import statistics

        small = statistics.median([self._worst(32, s) for s in range(5)])
        large = statistics.median([self._worst(1024, s) for s in range(5)])
        assert large > small

    def test_per_vertex_shape(self):
        g = path_graph(32)
        out = run_broadcast(
            g, LOCAL, path_broadcast_protocol(), seed=1,
            knowledge=Knowledge(n=32, max_degree=2, diameter=31),
            exec_config=ExecutionConfig(record_trace=True),
        )
        report = energy_before_reception(out)
        assert len(report.per_vertex) == 32
        assert report.per_vertex[report.worst_vertex] == report.worst
        # The source spends nothing before "receiving" (it starts with m).
        assert report.per_vertex[0] == 0


def _observed_trials(
    graph, model, protocol, seeds, make_observer, source=0, **config
):
    """Traced runs with one ``make_observer()`` attached per seed, as
    ``(outcome, observer)`` pairs in seed order."""
    attached = {}

    def observer_factory(seed):
        attached[seed] = make_observer()
        return (attached[seed],)

    outcomes = run_broadcast_trials(
        graph, model, protocol, seeds, source=source,
        knowledge=knowledge_for(graph),
        exec_config=ExecutionConfig(
            record_trace=True, observer_factory=observer_factory, **config
        ),
    )
    return [(outcome, attached[seed]) for seed, outcome in zip(seeds, outcomes)]


class TestPreReceptionObserver:
    """The Theorem 1 observer equals the trace reference on the same runs."""

    @pytest.mark.parametrize("n", (64, 256))
    def test_matches_trace_reference_on_lb_path(self, n):
        runs = _observed_trials(
            path_graph(n), LOCAL, path_broadcast_protocol(oriented=True),
            range(5), PreReceptionObserver,
        )
        for outcome, observer in runs:
            assert outcome.delivered
            reference = energy_before_reception(outcome)
            report = observer.report(outcome)
            assert report.per_vertex == reference.per_vertex
            assert report.worst == reference.worst
            assert report.worst_vertex == reference.worst_vertex

    def test_matches_trace_reference_under_churn(self):
        # Down radios still pay for what they attempt, and a churned run
        # may leave vertices that never hear the payload.
        ((outcome, observer),) = _observed_trials(
            path_graph(64), LOCAL, path_broadcast_protocol(oriented=True),
            (0,), PreReceptionObserver, churn="random:p=0.3,period=24,down=4",
        )
        assert not outcome.delivered
        assert observer.report(outcome) == energy_before_reception(outcome)

    def test_rejects_a_run_with_another_payload(self):
        graph = path_graph(8)
        observer = PreReceptionObserver()
        outcome = run_broadcast(
            graph, LOCAL, path_broadcast_protocol(oriented=True), payload="x",
            knowledge=knowledge_for(graph),
            exec_config=ExecutionConfig(observer_factory=lambda seed: (observer,)),
        )
        with pytest.raises(ValueError, match="payload"):
            observer.report(outcome)


def _random_slots_protocol(slots):
    """Every device draws Send, Listen, SendListen or Idle each slot."""
    actions = (Send, Listen, SendListen, Idle)

    def protocol(ctx):
        for _ in range(slots):
            action = ctx.rng.choice(actions)
            if action is Idle:
                yield Idle(1)
            elif action is Listen:
                yield Listen()
            else:
                yield action(("hello", ctx.index))
        return None

    return protocol


class TestLeaderElectionObserver:
    """The Theorem 2 observer equals the trace reference on the same runs."""

    @pytest.mark.parametrize("model", (NO_CD, CD), ids=("nocd", "cd"))
    @pytest.mark.parametrize("k", (2, 4, 8, 16))
    def test_matches_trace_reference_on_k2k(self, model, k):
        graph, s, t = k2k_gadget(k)
        runs = _observed_trials(
            graph, model, decay_broadcast_protocol(failure=0.01), range(3),
            lambda: LeaderElectionObserver(s, t), source=s,
        )
        for outcome, observer in runs:
            reference = derive_leader_election(outcome, s, t)
            assert reference.elected
            assert observer.report(outcome) == reference

    @pytest.mark.parametrize("model", (NO_CD_FD, CD_FD), ids=("nocd-fd", "cd-fd"))
    def test_matches_trace_reference_with_duplex_slots(self, model):
        # Random full-duplex traffic: s and t send, listen and duplex in
        # every combination, and some runs never elect.
        graph, s, t = k2k_gadget(3)
        runs = _observed_trials(
            graph, model, _random_slots_protocol(4), range(20),
            lambda: LeaderElectionObserver(s, t), source=s,
        )
        reports = []
        for outcome, observer in runs:
            reports.append(derive_leader_election(outcome, s, t))
            assert observer.report(outcome) == reports[-1]
        assert {report.elected for report in reports} == {True, False}
