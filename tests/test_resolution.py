"""Tests for the pluggable resolution backends (repro.sim.resolution).

Backend-level differential coverage: every backend must produce the
feedback of the reference oracle's per-neighbor scan for identical slot
inputs, across the paper models, the lossy wrapper, and the mask-table
edge geometries (n > 64 multi-word masks, n not a multiple of 64, empty
transmit slots, NEEDS_MESSAGES slots mixing vectorized and per-listener
resolution).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import warnings

import pytest

from repro.graphs import clique, path_graph, random_gnp, star_graph
from repro.graphs.graph import Graph
from repro.sim import (
    ExecutionConfig,
    BEEPING,
    CD,
    CD_STAR,
    LOCAL,
    NO_CD,
    Simulator,
)
from repro.sim.feedback import NOISE, SILENCE
from repro.sim.models import NEEDS_MESSAGES, LossyModel
from repro.sim import resolution as resolution_module
from repro.sim.resolution import (
    RESOLUTION_MODES,
    BitmaskBackend,
    NumpyBackend,
    create_backend,
    numpy_available,
)

FIVE_MODELS = {
    "LOCAL": LOCAL,
    "CD": CD,
    "No-CD": NO_CD,
    "CD*": CD_STAR,
    "BEEP": BEEPING,
}

# The acceptance sizes: single word, exactly one word, word boundary + 1,
# multi-word ragged, many words.
SIZES = (7, 64, 65, 200, 512)


def _random_slot(graph: Graph, rng: random.Random, send_p: float = 0.25):
    """A synthetic slot: every vertex transmits w.p. send_p, the rest
    listen (receivers in ascending order, valid for stateful models)."""
    transmitting = {}
    receivers = []
    for v in range(graph.n):
        if rng.random() < send_p:
            transmitting[v] = ("m", v)
        else:
            receivers.append(v)
    return transmitting, receivers


def _graph_for(n: int) -> Graph:
    if n <= 64:
        return random_gnp(n, 0.5, random.Random(n))
    return random_gnp(n, 0.1, random.Random(n))


def _resolve(backend, model, transmitting, receivers):
    feedbacks = {}
    backend.slot_resolver(model)(transmitting, list(receivers), feedbacks)
    return feedbacks


def _scan(graph, model, transmitting, receivers):
    """The reference oracle's resolution: each receiver, in the order
    given, hears its transmitting neighbors' messages in adjacency
    order."""
    return {
        v: model.resolve(
            [transmitting[w] for w in graph.neighbors(v) if w in transmitting]
        )
        for v in receivers
    }


class TestBackendRegistry:
    def test_modes(self):
        assert RESOLUTION_MODES == ("bitmask", "numpy")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            create_backend("quantum", path_graph(2))

    def test_create_returns_expected_classes(self):
        graph = path_graph(3)
        assert isinstance(create_backend("bitmask", graph), BitmaskBackend)
        if numpy_available():
            assert isinstance(create_backend("numpy", graph), NumpyBackend)

    def test_numpy_fallback_without_numpy(self, monkeypatch):
        monkeypatch.setattr(resolution_module, "numpy_available", lambda: False)
        monkeypatch.setattr(resolution_module, "_warned_numpy_fallback", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = create_backend("numpy", path_graph(4))
        assert isinstance(backend, BitmaskBackend)
        assert any("falls back" in str(w.message) for w in caught)
        # Only the first request warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            create_backend("numpy", path_graph(4))
        assert not caught

    def test_simulator_numpy_fallback_still_runs(self, monkeypatch):
        from repro.sim import Idle

        monkeypatch.setattr(resolution_module, "numpy_available", lambda: False)
        monkeypatch.setattr(resolution_module, "_warned_numpy_fallback", True)

        def proto(ctx):
            yield Idle(1)
            return ctx.index

        sim = Simulator(
            path_graph(3), NO_CD,
            exec_config=ExecutionConfig(resolution="numpy"),
        )
        assert sim.backend.name == "bitmask"
        assert sim.run(proto).outputs == [0, 1, 2]

    def test_cli_and_bitmask_campaign_leave_numpy_unimported(self, tmp_path):
        # numpy is imported on first use, so a CLI process that never
        # resolves with numpy never pays for its import.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        config = os.path.join(os.path.dirname(src), "configs", "smoke.json")
        out = str(tmp_path / "smoke")
        script = "\n".join([
            "import sys",
            "import repro.cli",
            "assert 'numpy' not in sys.modules, 'import repro.cli'",
            "main = repro.cli.main",
            f"assert main(['campaign', 'run', {config!r}, '--out', {out!r}]) == 0",
            f"assert main(['campaign', 'report', {config!r}, '--out', {out!r}]) == 0",
            "assert 'numpy' not in sys.modules, 'campaign run and report'",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestNeighborMaskArray:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_int_masks(self, n):
        import numpy

        graph = _graph_for(n)
        table = graph.neighbor_mask_array()
        words = (n + 63) >> 6
        assert table.shape == (n, words)
        assert table.dtype == numpy.uint64
        for v in range(n):
            packed = 0
            for w in range(words):
                packed |= int(table[v, w]) << (64 * w)
            assert packed == graph.neighbor_mask(v)

    def test_cached(self):
        graph = path_graph(70)
        assert graph.neighbor_mask_array() is graph.neighbor_mask_array()


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBackendEquivalence:
    """numpy == bitmask == the oracle's scan, feedback for feedback."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_paper_models_random_slots(self, n, model_name):
        model = FIVE_MODELS[model_name]
        graph = _graph_for(n)
        backends = [create_backend(name, graph) for name in RESOLUTION_MODES]
        rng = random.Random(1000 + n)
        for _ in range(4):
            transmitting, receivers = _random_slot(graph, rng)
            expected = _scan(graph, model, transmitting, receivers)
            for backend in backends:
                assert _resolve(
                    backend, model, transmitting, receivers
                ) == expected, backend.name

    @pytest.mark.parametrize("n", (7, 65, 200))
    def test_lossy_model_random_slots(self, n):
        """Stateful channel: backends must consume rng identically, so
        compare fresh same-seeded models per backend."""
        graph = _graph_for(n)
        rng = random.Random(2000 + n)
        transmitting, receivers = _random_slot(graph, rng, send_p=0.4)
        expected = _scan(
            graph, LossyModel(NO_CD, 0.5, seed=77), transmitting, receivers
        )
        for name in RESOLUTION_MODES:
            model = LossyModel(NO_CD, 0.5, seed=77)
            backend = create_backend(name, graph)
            got = _resolve(backend, model, transmitting, receivers)
            assert got == expected, name

    @pytest.mark.parametrize("n", SIZES)
    def test_empty_transmit_slot(self, n):
        graph = _graph_for(n)
        receivers = list(range(0, n, 2))
        for model in (NO_CD, CD, LOCAL, BEEPING, CD_STAR):
            numpy_backend = create_backend("numpy", graph)
            feedbacks = _resolve(numpy_backend, model, {}, receivers)
            silence = model.resolve_count(0, None)
            assert feedbacks == {v: silence for v in receivers}

    def test_no_receivers(self):
        graph = clique(70)
        backend = create_backend("numpy", graph)
        feedbacks = _resolve(backend, NO_CD, {0: "m", 1: "m"}, [])
        assert feedbacks == {}

    def test_needs_messages_mixed_slot(self):
        """LOCAL: one listener with a single transmitting neighbor
        (vectorized k==1 path) and one with several (per-listener
        NEEDS_MESSAGES fallback) in the same slot."""
        # Star: center 0 sees all leaves; leaves see only the center.
        graph = star_graph(7)  # vertices 0..6, 0 is the hub
        transmitting = {1: "a", 2: "b", 3: "c"}
        receivers = [0, 4, 5, 6]
        for name in RESOLUTION_MODES:
            backend = create_backend(name, graph)
            feedbacks = _resolve(backend, LOCAL, transmitting, receivers)
            assert feedbacks[0] == ("a", "b", "c"), name  # fallback path
            assert feedbacks[4] == feedbacks[5] == feedbacks[6] == (), name

    def test_needs_messages_mixed_with_k1(self):
        # Path 0-1-2-3-4: transmitters 1 and 3.  Vertex 2 hears both
        # (NEEDS_MESSAGES under LOCAL); vertices 0 and 4 hear one each
        # (vectorized k==1); all under one slot.
        graph = path_graph(5)
        transmitting = {1: "x", 3: "y"}
        receivers = [0, 2, 4]
        expected = {0: ("x",), 2: ("x", "y"), 4: ("y",)}
        for name in RESOLUTION_MODES:
            backend = create_backend(name, graph)
            assert _resolve(backend, LOCAL, transmitting, receivers) == expected

    def test_cd_buckets_on_clique(self):
        graph = clique(100)
        backend = create_backend("numpy", graph)
        # 0 transmitters -> SILENCE; 1 -> message; >= 2 -> NOISE.
        assert _resolve(backend, CD, {}, [5]) == {5: SILENCE}
        assert _resolve(backend, CD, {7: "m"}, [5]) == {5: "m"}
        assert _resolve(backend, CD, {7: "m", 8: "n"}, [5]) == {5: NOISE}

    @pytest.mark.parametrize("need", ["none", "one", "any"])
    def test_generic_count_model_respects_needs_first_message(self, need):
        """A count model narrowing needs_first_message without overriding
        resolve_count_array must still resolve correctly: the base loop
        may only read `firsts` at the positions the backend computed."""
        from repro.sim.models import ChannelModel

        class CountOnly(ChannelModel):
            supports_count = True

            def resolve(self, transmissions):
                if len(transmissions) == 1 and self.needs_first_message != "none":
                    return transmissions[0]
                return len(transmissions)

            def resolve_count(self, k, first_message):
                if k == 1 and self.needs_first_message != "none":
                    return first_message
                return k

        CountOnly.needs_first_message = need
        model = CountOnly(f"count-{need}")
        graph = _graph_for(65)
        rng = random.Random(31)
        for _ in range(3):
            transmitting, receivers = _random_slot(graph, rng)
            expected = _scan(graph, model, transmitting, receivers)
            got = _resolve(
                create_backend("numpy", graph), model, transmitting, receivers
            )
            assert got == expected

    def test_generic_count_model_uses_base_array_path(self):
        """A custom count-based model without a vectorized override runs
        through the base resolve_count_array loop (incl. NEEDS)."""
        from repro.sim.models import ChannelModel

        class Parity(ChannelModel):
            supports_count = True

            def resolve(self, transmissions):
                if len(transmissions) == 3:
                    return tuple(transmissions)
                return len(transmissions) % 2

            def resolve_count(self, k, first_message):
                if k == 3:
                    return NEEDS_MESSAGES
                return k % 2

        model = Parity("parity")
        graph = clique(80)
        expected = _scan(graph, model, {0: "a", 1: "b", 2: "c"}, [10, 11])
        got = _resolve(create_backend("numpy", graph), model,
                       {0: "a", 1: "b", 2: "c"}, [10, 11])
        assert got == expected == {10: ("a", "b", "c"), 11: ("a", "b", "c")}


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestPopcountFallback:
    def test_table_popcount_matches_native(self):
        import numpy

        from repro.sim.resolution import (
            _popcount_rows_native,
            _popcount_rows_table,
        )

        rng = numpy.random.default_rng(3)
        masked = rng.integers(
            0, 2**64, size=(37, 5), dtype=numpy.uint64
        )
        table = _popcount_rows_table(masked)
        if hasattr(numpy, "bitwise_count"):
            assert list(table) == list(_popcount_rows_native(masked))
        expected = [
            sum(bin(int(masked[i, w])).count("1") for w in range(5))
            for i in range(37)
        ]
        assert [int(x) for x in table] == expected

    @pytest.mark.parametrize("words", [1, 4, 8])
    def test_both_helpers_count_rows_as_int64(self, words):
        import numpy

        from repro.sim.resolution import (
            _popcount_rows_native,
            _popcount_rows_table,
        )

        rng = numpy.random.default_rng(words)
        masked = rng.integers(
            0, 2**64, size=(50, words), dtype=numpy.uint64
        )
        masked[0] = numpy.uint64(2**64 - 1)  # all-ones words
        masked[1] = 0
        expected = [
            sum(bin(int(word)).count("1") for word in row) for row in masked
        ]
        assert expected[0] == 64 * words
        helpers = [_popcount_rows_table]
        if hasattr(numpy, "bitwise_count"):
            helpers.append(_popcount_rows_native)
        for helper in helpers:
            counts = helper(masked)
            assert counts.dtype == numpy.int64, helper.__name__
            assert counts.tolist() == expected, helper.__name__

    def test_backend_works_with_table_popcount(self, monkeypatch):
        """Force the numpy<2.0 popcount path through a whole backend."""
        import repro.sim.resolution as mod

        monkeypatch.setattr(mod, "_popcount_rows", mod._popcount_rows_table)
        graph = _graph_for(65)
        transmitting, receivers = _random_slot(graph, random.Random(9))
        expected = _resolve(
            create_backend("bitmask", graph), NO_CD, transmitting, receivers
        )
        got = _resolve(
            create_backend("numpy", graph), NO_CD, transmitting, receivers
        )
        assert got == expected


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestEngineLevelNumpy:
    """Whole-run differential: the numpy-backed engine vs bitmask and the
    reference oracle at word-boundary and large sizes (acceptance sizes
    beyond what the main differential suite sweeps)."""

    @pytest.mark.parametrize("n", (65, 200))
    def test_random_protocol_large_n(self, n):
        from repro.sim import Idle, Listen, Send
        from repro.sim.reference import ReferenceSimulator

        def proto(ctx):
            heard = 0
            for step in range(6):
                roll = ctx.rng.random()
                if roll < 0.3:
                    yield Send(("m", ctx.index, step))
                elif roll < 0.7:
                    feedback = yield Listen()
                    if feedback not in (None, ()) and not isinstance(
                        feedback, str
                    ):
                        heard += 1
                else:
                    yield Idle(1 + ctx.rng.randrange(3))
            return (ctx.index, heard)

        graph = _graph_for(n)
        slow = ReferenceSimulator(graph, NO_CD, seed=4).run(proto)
        for mode in RESOLUTION_MODES:
            fast = Simulator(
                graph, NO_CD, seed=4,
                exec_config=ExecutionConfig(resolution=mode),
            ).run(proto)
            assert fast.outputs == slow.outputs
            assert fast.duration == slow.duration
            assert [e.total for e in fast.energy] == [
                e.total for e in slow.energy
            ]

    def test_dense_clique_n512(self):
        from repro.sim import Listen, Send
        from repro.sim.reference import ReferenceSimulator

        def proto(ctx):
            heard = 0
            for step in range(4):
                if ctx.rng.random() < 0.1:
                    yield Send(("m", ctx.index, step))
                else:
                    feedback = yield Listen()
                    if feedback is not None:
                        heard += 1
            return heard

        graph = clique(512)
        bitmask = Simulator(graph, NO_CD, seed=0).run(proto)
        numpy_run = Simulator(
            graph, NO_CD, seed=0,
            exec_config=ExecutionConfig(resolution="numpy"),
        ).run(proto)
        oracle = ReferenceSimulator(graph, NO_CD, seed=0).run(proto)
        assert numpy_run.outputs == bitmask.outputs == oracle.outputs
        assert numpy_run.duration == bitmask.duration == oracle.duration
        assert [e.total for e in numpy_run.energy] == [
            e.total for e in oracle.energy
        ]
