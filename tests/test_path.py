"""Tests for the path algorithm (Section 8, Algorithm 1, Theorem 21)."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import run_broadcast
from repro.broadcast.path import path_broadcast_protocol, sample_blocking_time
from repro.graphs import path_graph
from repro.sim import LOCAL, ExecutionConfig, Knowledge, Simulator
from repro.sim.faults import parse_fault_specs
from repro.sim.reference import ReferenceSimulator
from tests.conftest import assert_pinned, assert_same_run, run_digest


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
# The event loop, pinned by run digest
# ---------------------------------------------------------------------------

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


#: (n, seed, oriented, source, channel) -> run digest of the traced engine
#: run.  Recorded from runs that matched, in outputs, energy, duration,
#: finish slots, trace and next rng draw, Algorithm 1 as it was before
#: the event loop: one object per directional instance with per-event
#: calls, and one ``Steps((Idle(gap), action))`` plan per event.
_PINNED = {
    (22, 0, True, 0, 'burst-loss'): '0847cd5ed69a5f12',
    (26, 1, True, 0, 'burst-loss'): '2ed9bb83e51ce217',
    (19, 2, True, 0, 'burst-loss'): 'e3a6748732ef18f5',
    (7, 3, True, 0, 'burst-loss'): '793e8b912e60e351',
    (36, 4, True, 0, 'burst-loss'): 'e31277a9901304d3',
    (43, 5, True, 0, 'burst-loss'): 'ada2622c1e95c133',
    (37, 6, True, 0, 'burst-loss'): '4e7fe0070f1857ec',
    (33, 7, True, 0, 'burst-loss'): '1be222943a057578',
    (13, 8, True, 0, 'burst-loss'): 'a76e91a2e91c53c9',
    (8, 9, True, 0, 'burst-loss'): '1ce8d8cc1d65375b',
    (26, 10, True, 0, 'burst-loss'): '3f99a3258df2178c',
    (17, 11, True, 0, 'burst-loss'): 'e088391648c0bdb9',
    (7, 0, True, 0, 'churn'): '3a8c1706e27fd543',
    (33, 1, True, 0, 'churn'): '1b268ef2b1d73d7b',
    (25, 2, True, 0, 'churn'): 'b3539c622ebaeb6b',
    (40, 3, True, 0, 'churn'): '828eb72e73f56526',
    (42, 4, True, 0, 'churn'): 'f4bd864730cbe6be',
    (24, 5, True, 0, 'churn'): '2f21d8c2b1fc9e7f',
    (40, 6, True, 0, 'churn'): '4ac0150c4a9a7b31',
    (34, 7, True, 0, 'churn'): 'e3e5e24347850d2b',
    (13, 8, True, 0, 'churn'): 'ffef2c82b550b0e5',
    (20, 9, True, 0, 'churn'): '9b66f6bd868e61f9',
    (21, 10, True, 0, 'churn'): 'be35261c0550dc7d',
    (36, 11, True, 0, 'churn'): '4112864bc4ca9ff7',
    (27, 0, True, 0, 'clean'): '6da8f16ceb7808c5',
    (19, 1, True, 0, 'clean'): 'e6c355d5b500eb71',
    (16, 2, True, 0, 'clean'): '1039602942ad434e',
    (25, 3, True, 0, 'clean'): '7067bb994399c602',
    (25, 4, True, 0, 'clean'): '64a8d0ddedf3a282',
    (28, 5, True, 0, 'clean'): '073cc741ab131e43',
    (29, 6, True, 0, 'clean'): 'd7d00322765d2792',
    (37, 7, True, 0, 'clean'): '05e04f1d6decfc31',
    (48, 8, True, 0, 'clean'): '0246ce58ffd37d47',
    (33, 9, True, 0, 'clean'): '2f9dfca5dbedd9e8',
    (38, 10, True, 0, 'clean'): '7a866406cedfc4b0',
    (15, 11, True, 0, 'clean'): '2c135c67f33452d1',
    (40, 0, False, 11, 'burst-loss'): 'ce49cbb392033277',
    (19, 1, False, 3, 'burst-loss'): 'b0555595300fe801',
    (5, 2, False, 1, 'burst-loss'): '6c0ad5f5698bc3c7',
    (33, 3, False, 32, 'burst-loss'): '296b22ce935e3ce0',
    (12, 4, False, 11, 'burst-loss'): '3635db3e3375e7ce',
    (31, 5, False, 28, 'burst-loss'): 'd1d2dc2861d73676',
    (13, 6, False, 10, 'burst-loss'): '9beeea37fadf7e65',
    (45, 7, False, 25, 'burst-loss'): 'd73e20e47cca5321',
    (43, 8, False, 19, 'burst-loss'): '058bfca332f52cbc',
    (21, 9, False, 1, 'burst-loss'): '82cb63c421226729',
    (6, 10, False, 1, 'burst-loss'): 'b1eb77cce2c8cd05',
    (29, 11, False, 15, 'burst-loss'): '701ac15bd741a2cb',
    (48, 0, False, 12, 'churn'): 'da2fb064312b6fcd',
    (2, 1, False, 1, 'churn'): '2b9f14351ddfb881',
    (23, 2, False, 2, 'churn'): 'f41407a6eeb1843c',
    (18, 3, False, 15, 'churn'): '3f0c092284f0450f',
    (37, 4, False, 28, 'churn'): 'd8f00694b849bf5f',
    (31, 5, False, 24, 'churn'): 'bfc92a19560adbe9',
    (6, 6, False, 1, 'churn'): '2b8efc13a6fad7e3',
    (19, 7, False, 8, 'churn'): '6f542d703354fcf1',
    (38, 8, False, 29, 'churn'): '4cff9cda0b544280',
    (35, 9, False, 1, 'churn'): '1534755f05dc266e',
    (16, 10, False, 13, 'churn'): 'ee0a439e03670c3e',
    (4, 11, False, 1, 'churn'): '4096ad30d1fb5798',
    (31, 0, False, 2, 'clean'): '1b6f490869b2b33a',
    (42, 1, False, 15, 'clean'): '8ef160eaacc574ed',
    (5, 2, False, 2, 'clean'): 'b890143f974b4a6c',
    (3, 3, False, 0, 'clean'): '84c1fb923d7de8ba',
    (32, 4, False, 1, 'clean'): '59bd1fed1ac88c6f',
    (7, 5, False, 5, 'clean'): '01d7fdd23123c5f5',
    (13, 6, False, 8, 'clean'): 'a1a7591038c63216',
    (33, 7, False, 30, 'clean'): 'a01b5dd6cb053ecc',
    (40, 8, False, 3, 'clean'): '1d42af35e0ac63a1',
    (3, 9, False, 1, 'clean'): '83c7634af549a37b',
    (15, 10, False, 1, 'clean'): 'fd0f76d50f32bae8',
    (4, 11, False, 3, 'clean'): '6f0930f52504b9db',
    (20, 3, False, 1, 'clean'): 'ea174b0857728947',
    (20, 3, False, 9, 'clean'): '7d8ac9fbbc358f75',
    (20, 3, False, 19, 'clean'): 'fe3e7329d3bf46bb',
}


class TestEventLoopMatchesStepsLoop:
    """Algorithm 1's event loop agrees with the per-slot reference
    simulator.  Its fixed runs are pinned by digest (slots, energy,
    traces, generator entries, outputs and the rng stream), recorded from
    runs that matched the Steps-per-event loop it replaced; its generated
    runs on the clean channel meet Theorem 21."""

    @staticmethod
    def _check(n, seed, oriented, source, channel):
        """Run Algorithm 1, traced, on the engine and on the reference;
        check that they agree, traces included, and return the engine's
        result."""
        graph = path_graph(n)
        inputs = {source: {"source": True, "payload": ("m", seed)}}
        config = ExecutionConfig(record_trace=True, **_PATH_CHANNELS[channel])
        protocol = _then_next_draw(path_broadcast_protocol(oriented))
        where = (
            f"n={n} seed={seed} oriented={oriented} source={source} {channel}"
        )
        fast = Simulator(graph, LOCAL, seed=seed, exec_config=config).run(
            protocol, inputs
        )
        slow = ReferenceSimulator(
            graph, LOCAL, seed=seed, faults=parse_fault_specs(config),
            record_trace=True,
        ).run(protocol, inputs)
        assert_same_run(fast, slow, where)
        return fast

    def _pinned(self, *keys):
        assert_pinned(_PINNED, {
            key: run_digest(self._check(*key)) for key in keys
        })

    @pytest.mark.parametrize("channel", sorted(_PATH_CHANNELS))
    @pytest.mark.parametrize(
        "oriented", [True, False], ids=["oriented", "unoriented"]
    )
    def test_matches_on_a_seed_sweep(self, oriented, channel):
        pick = random.Random(f"{oriented}-{channel}")
        keys = []
        for seed in range(12):
            n = pick.randint(1, 48)
            source = 0 if oriented else pick.randrange(n)
            keys.append((n, seed, oriented, source, channel))
        self._pinned(*keys)

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
        result = self._check(n, seed, oriented, source, channel)
        if channel == "clean":
            # Theorem 21: every vertex outputs the payload within 2n
            # slots, n rounded up to a power of two.
            assert [out for out, _ in result.outputs] == [("m", seed)] * n
            assert result.duration <= 2 * 2 ** math.ceil(math.log2(n))

    def test_matches_with_unoriented_sources_away_from_vertex_zero(self):
        # The other tests draw unoriented sources anywhere; these pin an
        # interior vertex, the middle and the far end.
        self._pinned(*(
            (20, 3, False, source, "clean") for source in (1, 9, 19)
        ))
