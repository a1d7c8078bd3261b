"""Lock-step batched trials must be byte-identical to serial trials.

Also covers the batch-layer satellites: the per-seed observer factory,
the shared-stateful-model warning, and the ContentionHistogramObserver
analytics ride-along.
"""

from __future__ import annotations

import random

import pytest

import repro.sim.batch as batch_module
from repro.graphs import clique, path_graph, random_gnp, star_graph
from repro.sim import (
    ExecutionConfig,
    BEEPING,
    CD,
    CD_FD,
    CD_STAR,
    LOCAL,
    NO_CD,
    NO_CD_FD,
    ContentionHistogramObserver,
    Idle,
    Listen,
    ListenUntil,
    ProtocolError,
    Repeat,
    Send,
    SendListen,
    SimulationTimeout,
    Steps,
    numpy_available,
    run_trials,
)
from repro.sim.models import LossyModel
from repro.sim.observers import SlotObserver
from repro.sim.reference import ReferenceSimulator
from tests.conftest import bernoulli_steps, per_slot

FIVE_MODELS = {
    "LOCAL": LOCAL,
    "CD": CD,
    "No-CD": NO_CD,
    "CD*": CD_STAR,
    "BEEP": BEEPING,
}

RESOLUTIONS = ("bitmask",) + (("numpy",) if numpy_available() else ())


def _stepped(protocol, stepping):
    """The protocol as yielded ("phase") or expanded per slot ("slot")."""
    return per_slot(protocol) if stepping == "slot" else protocol


def _random_protocol(steps: int):
    def protocol(ctx):
        heard = 0
        for step in range(steps):
            roll = ctx.rng.random()
            if roll < 0.3:
                yield Send(("m", ctx.index, step, heard))
            elif roll < 0.65:
                feedback = yield Listen()
                if feedback not in (None, ()) and not isinstance(feedback, str):
                    heard += 1
            else:
                yield Idle(1 + ctx.rng.randrange(4))
        return (ctx.index, heard)

    return protocol


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.seed == y.seed
        assert x.outputs == y.outputs
        assert x.finish_slot == y.finish_slot
        assert x.duration == y.duration
        assert [e.total for e in x.energy] == [e.total for e in y.energy]
        assert [e.sends for e in x.energy] == [e.sends for e in y.energy]


class TestLockstepEquivalence:
    SEEDS = (0, 1, 2, 7, 11)

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_models_by_resolution(self, model_name, resolution):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(21))
        protocol = _random_protocol(14)
        serial = run_trials(graph, model, protocol, self.SEEDS)
        lockstep = run_trials(
            graph, model, protocol, self.SEEDS,
            exec_config=ExecutionConfig(lockstep=True, resolution=resolution),
        )
        _assert_same_results(serial, lockstep)

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_models_vs_reference(self, model_name):
        # Every lock-step executor against the oracle's per-neighbor
        # scan, not just against the serial engine.
        model = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(21))
        protocol = _random_protocol(14)
        oracle = [
            ReferenceSimulator(graph, model, seed=seed).run(protocol)
            for seed in self.SEEDS
        ]
        for resolution in RESOLUTIONS:
            lockstep = run_trials(
                graph, model, protocol, self.SEEDS,
                exec_config=ExecutionConfig(
                    lockstep=True, resolution=resolution
                ),
            )
            _assert_same_results(oracle, lockstep)

    def test_dense_contention(self):
        graph = clique(8)
        protocol = _random_protocol(12)
        for resolution in RESOLUTIONS:
            _assert_same_results(
                run_trials(graph, CD, protocol, self.SEEDS),
                run_trials(
                    graph, CD, protocol, self.SEEDS,
                    exec_config=ExecutionConfig(
                        lockstep=True, resolution=resolution
                    ),
                ),
            )

    def test_trials_finish_at_different_times(self):
        def protocol(ctx):
            # Runtime depends on the trial rng: trials leave the
            # lock-step band at different steps.
            for _ in range(2 + ctx.rng.randrange(12)):
                if ctx.rng.random() < 0.5:
                    yield Send("x")
                else:
                    yield Listen()
            return ctx.index

        graph = star_graph(5)
        serial = run_trials(graph, NO_CD, protocol, self.SEEDS)
        lockstep = run_trials(
            graph, NO_CD, protocol, self.SEEDS,
            exec_config=ExecutionConfig(lockstep=True),
        )
        _assert_same_results(serial, lockstep)

    def test_lossy_model_factory(self):
        graph = random_gnp(8, 0.5, random.Random(5))
        protocol = _random_protocol(12)
        factory = lambda seed: LossyModel(NO_CD, 0.4, seed=seed)
        serial = run_trials(
            graph, NO_CD, protocol, self.SEEDS,
            exec_config=ExecutionConfig(model_factory=factory),
        )
        for resolution in RESOLUTIONS:
            lockstep = run_trials(
                graph, NO_CD, protocol, self.SEEDS,
                exec_config=ExecutionConfig(
                    model_factory=factory, lockstep=True,
                    resolution=resolution,
                ),
            )
            _assert_same_results(serial, lockstep)

    def test_trace_recording_matches(self):
        graph = path_graph(6)
        protocol = _random_protocol(10)
        serial = run_trials(
            graph, NO_CD, protocol, (0, 3),
            exec_config=ExecutionConfig(record_trace=True),
        )
        lockstep = run_trials(
            graph, NO_CD, protocol, (0, 3),
            exec_config=ExecutionConfig(record_trace=True, lockstep=True),
        )
        for a, b in zip(serial, lockstep):
            assert list(a.trace) == list(b.trace)

    def test_empty_and_single_seed(self):
        graph = path_graph(3)
        protocol = _random_protocol(4)
        assert run_trials(
            graph, NO_CD, protocol, [],
            exec_config=ExecutionConfig(lockstep=True),
        ) == []
        _assert_same_results(
            run_trials(graph, NO_CD, protocol, [5]),
            run_trials(
                graph, NO_CD, protocol, [5],
                exec_config=ExecutionConfig(lockstep=True),
            ),
        )

    def test_broadcast_cell_lockstep(self):
        from repro.broadcast import run_broadcast_trials
        from repro.broadcast.flooding import decay_broadcast_protocol
        from repro.sim import Knowledge

        graph = path_graph(8)
        knowledge = Knowledge(n=8, max_degree=2, diameter=7)
        protocol = decay_broadcast_protocol(failure=0.02)
        seeds = (0, 1, 2)
        serial = run_broadcast_trials(
            graph, NO_CD, protocol, seeds, knowledge=knowledge
        )
        for resolution in RESOLUTIONS:
            lockstep = run_broadcast_trials(
                graph, NO_CD, protocol, seeds, knowledge=knowledge,
                exec_config=ExecutionConfig(
                    lockstep=True, resolution=resolution
                ),
            )
            for a, b in zip(serial, lockstep):
                assert a.delivered == b.delivered
                assert a.duration == b.duration
                assert a.max_energy == b.max_energy

    def test_shared_stateful_model_rejected(self):
        """A shared stateful channel cannot match the serial path under
        lock-step (rng consumption order changes), so it is refused
        instead of silently diverging."""
        model = LossyModel(NO_CD, 0.4, seed=7)
        with pytest.raises(ValueError, match="model_factory"):
            run_trials(
                clique(6), model, _random_protocol(6), (0, 1, 2),
                exec_config=ExecutionConfig(lockstep=True),
            )
        # A single seed has no interleaving: allowed and serial-identical.
        _assert_same_results(
            run_trials(clique(6), LossyModel(NO_CD, 0.4, seed=7),
                       _random_protocol(6), (0,)),
            run_trials(
                clique(6), LossyModel(NO_CD, 0.4, seed=7),
                _random_protocol(6), (0,),
                exec_config=ExecutionConfig(lockstep=True),
            ),
        )


class TestObserverFactory:
    def test_per_seed_observers_in_both_modes(self):
        graph = random_gnp(8, 0.5, random.Random(2))
        protocol = _random_protocol(10)
        seeds = (0, 1, 2)

        def collect(lockstep):
            observers = {}

            def factory(seed):
                observer = ContentionHistogramObserver(graph)
                observers[seed] = observer
                return (observer,)

            run_trials(
                graph, NO_CD, protocol, seeds,
                exec_config=ExecutionConfig(
                    observer_factory=factory, lockstep=lockstep
                ),
            )
            return {
                seed: observer.summary()
                for seed, observer in observers.items()
            }

        serial = collect(lockstep=False)
        lockstep = collect(lockstep=True)
        assert serial == lockstep
        assert set(serial) == set(seeds)
        assert all(s["active_slots"] > 0 for s in serial.values())

    @pytest.mark.parametrize("lossy", (False, True), ids=("clean", "lossy"))
    def test_batch_observer_matches_per_slot(self, lossy):
        """ContentionHistogramObserver tallies identically through
        ``observe_matrix`` (SoA engine, numpy) and ``on_slot`` (serial
        fallback, bitmask) — including under erasure, where the histogram
        must count *pre-drop* on-the-air transmissions."""
        graph = random_gnp(8, 0.5, random.Random(2))
        protocol = _random_protocol(10)
        seeds = (0, 1, 2)
        model_factory = (
            (lambda seed: LossyModel(NO_CD, 0.3, seed=seed))
            if lossy else None
        )

        def collect(resolution):
            observers = {}

            def factory(seed):
                observer = ContentionHistogramObserver(graph)
                observers[seed] = observer
                return (observer,)

            run_trials(
                graph, NO_CD, protocol, seeds,
                exec_config=ExecutionConfig(
                    observer_factory=factory, model_factory=model_factory,
                    lockstep=True, resolution=resolution,
                ),
            )
            return {
                seed: (observer.summary(), observer.load_histogram)
                for seed, observer in observers.items()
            }

        per_slot = collect("bitmask")
        if not numpy_available():
            return
        batched = collect("numpy")
        assert per_slot == batched


class TestStatefulReuseWarning:
    def test_warns_once_for_shared_stateful_model(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_warned_stateful_reuse", False)
        graph = path_graph(4)
        protocol = _random_protocol(4)
        model = LossyModel(NO_CD, 0.3, seed=1)
        with pytest.warns(RuntimeWarning, match="stateful channel model"):
            run_trials(graph, model, protocol, (0, 1))
        # Second occurrence is silent (once per process).
        with _no_warning():
            run_trials(graph, model, protocol, (0, 1))

    def test_no_warning_with_model_factory_or_single_seed(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_warned_stateful_reuse", False)
        graph = path_graph(4)
        protocol = _random_protocol(4)
        with _no_warning():
            run_trials(
                graph, NO_CD, protocol, (0, 1, 2),
                exec_config=ExecutionConfig(
                    model_factory=lambda seed: LossyModel(
                        NO_CD, 0.3, seed=seed
                    )
                ),
            )
        with _no_warning():
            run_trials(graph, LossyModel(NO_CD, 0.3, seed=1), protocol, (0,))
        with _no_warning():
            run_trials(graph, NO_CD, protocol, (0, 1, 2))


class _no_warning:
    """Assert no stateful-reuse warning is emitted inside the block."""

    def __enter__(self):
        import warnings

        self._catcher = warnings.catch_warnings(record=True)
        self._log = self._catcher.__enter__()
        warnings.simplefilter("always")
        return self._log

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        stateful = [
            w for w in self._log
            if "stateful channel model" in str(w.message)
        ]
        assert not stateful, stateful
        return False


class TestContentionHistogramObserver:
    def test_counts_on_crafted_slots(self):
        # Star with hub 0 and leaves 1..4: transmitters {1, 2} -> hub
        # sees k=2 (collision), an idle leaf sees k=0... exercised via a
        # deterministic protocol.
        graph = star_graph(5)

        def protocol(ctx):
            if ctx.index in (1, 2):
                yield Send("m")
            else:
                yield Listen()  # hub hears k=2; leaves 3,4 hear k=0
            if ctx.index == 3:
                yield Send("solo")
            elif ctx.index == 0:
                yield Listen()  # hub hears k=1
            return None

        observer = ContentionHistogramObserver(graph)
        run_trials(
            graph, NO_CD, protocol, (0,),
            exec_config=ExecutionConfig(
                observer_factory=lambda s: (observer,)
            ),
        )
        assert observer.active_slots == 2
        assert observer.load_histogram == {2: 1, 1: 1}
        assert observer.collisions == 1  # hub in slot 0
        assert observer.clean_receptions == 1  # hub in slot 1
        assert observer.silent_receptions == 2  # leaves 3, 4 in slot 0
        summary = observer.summary()
        assert summary["mean_load"] == 1.5
        assert summary["max_load"] == 2.0
        assert summary["collision_rate"] == 0.25

    def test_cell_extras_via_contention_hist(self):
        from repro.campaign.cells import run_cells
        from repro.broadcast.flooding import decay_broadcast_protocol

        graph = path_graph(8)
        cells = run_cells(
            graph, NO_CD, decay_broadcast_protocol(failure=0.02),
            label="row", size=8, seeds=(0, 1),
            exec_config=ExecutionConfig(contention_hist=True),
        )
        for cell in cells:
            assert cell.extras["ch_active_slots"] > 0
            assert 0.0 <= cell.extras["ch_collision_rate"] <= 1.0
        # The analytics ride-along must not perturb the measurement.
        plain = run_cells(
            graph, NO_CD, decay_broadcast_protocol(failure=0.02),
            label="row", size=8, seeds=(0, 1),
        )
        for cell, base in zip(cells, plain):
            assert cell.duration == base.duration
            assert cell.max_energy == base.max_energy


# ---------------------------------------------------------------------------
# Trial-SoA engine (repro.sim.trialsoa)
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _plan_rich_protocol(ctx):
    """Every vectorizable plan primitive, then an adaptive generator tail."""
    yield Idle(1 + ctx.index % 3)
    yield Repeat(Send(("r", ctx.index)), 1 + ctx.index % 2)
    yield bernoulli_steps(ctx, ("p", ctx.index), 0.5, 3)
    match = yield ListenUntil(
        5,
        accept=lambda m: (
            isinstance(m, tuple) and len(m) >= 2
            and isinstance(m[1], int) and m[1] % 2 == 0
        ),
        pad=True,
    )
    feedbacks = yield Steps((Send(("s", ctx.index)), Idle(2), Listen()))
    heard = 0
    for _ in range(2 + ctx.rng.randrange(3)):
        if ctx.rng.random() < 0.5:
            fb = yield Listen()
            if fb not in (None, ()):
                heard += 1
        else:
            yield Send(("t", ctx.index, heard))
    return (ctx.index, repr(match), repr(feedbacks), heard)


def _mixed_fallback_protocol(ctx):
    """Some nodes never vectorize; others drop out of plans mid-run."""
    if ctx.index % 3 == 0:
        # Pure adaptive generator: stays on the per-cell fallback path
        # for its whole life even inside the SoA engine.
        for step in range(4 + ctx.rng.randrange(4)):
            if ctx.rng.random() < 0.4:
                yield Send(("a", ctx.index, step))
            else:
                yield Listen()
        return ("gen", ctx.index)
    # Plan prologue (vectorized), then back to the generator.
    yield Repeat(Send(("b", ctx.index)), 2)
    got = yield ListenUntil(3)
    if got is not None:
        yield Send(("echo", ctx.index))
    yield Idle(1 + ctx.rng.randrange(3))
    return ("plan", ctx.index, repr(got))


def _rng_heavy_protocol(steps: int):
    """Plans whose shape and parameters come from the node rng, ending
    with a raw draw that pins the exact stream position."""

    def protocol(ctx):
        total = 0
        for _ in range(steps):
            yield bernoulli_steps(
                ctx, ("h", ctx.index), ctx.rng.random(),
                1 + ctx.rng.randrange(3),
            )
            fb = yield ListenUntil(1 + ctx.rng.randrange(2))
            if fb is not None:
                total += 1
        return (ctx.index, total, ctx.rng.random())

    return protocol


@pytest.mark.skipif(not numpy_available(), reason="SoA engine requires numpy")
class TestTrialSoADispatch:
    """Lock-step run_trials hands eligible batches to the SoA engine and
    runs ineligible ones on the serial engine."""

    def _spy(self, monkeypatch):
        calls = []
        real = batch_module.run_trials_soa

        def spy(*args, **kwargs):
            calls.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_module, "run_trials_soa", spy)
        return calls

    def test_engages_on_numpy_resolution(self, monkeypatch):
        calls = self._spy(monkeypatch)
        run_trials(
            clique(6), NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        assert calls

    def test_stays_off_for_fallback_configs(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = clique(6)
        run_trials(
            graph, NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(lockstep=True, resolution="bitmask"),
        )
        run_trials(
            graph, NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(
                lockstep=True, resolution="numpy", record_trace=True
            ),
        )
        # A lossy factory over *mixed* inners cannot share one spec.
        run_trials(
            graph, NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(
                lockstep=True, resolution="numpy",
                model_factory=lambda seed: LossyModel(
                    NO_CD if seed % 2 else CD, 0.3, seed=seed
                ),
            ),
        )
        # Observers without the batch ABI need per-slot dict views.
        run_trials(
            graph, NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(
                lockstep=True, resolution="numpy",
                observer_factory=lambda seed: (SlotObserver(),),
            ),
        )
        assert not calls

    def test_engages_on_lossy_factory(self, monkeypatch):
        calls = self._spy(monkeypatch)
        results = run_trials(
            clique(6), NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(
                lockstep=True, resolution="numpy",
                model_factory=lambda seed: LossyModel(NO_CD, 0.3, seed=seed),
            ),
        )
        assert calls
        assert all(r.soa_reason == "ok" for r in results)

    def test_engages_with_batch_observers(self, monkeypatch):
        calls = self._spy(monkeypatch)
        graph = clique(6)
        results = run_trials(
            graph, NO_CD, _plan_rich_protocol, (0, 1),
            exec_config=ExecutionConfig(
                lockstep=True, resolution="numpy",
                observer_factory=lambda seed: (
                    ContentionHistogramObserver(graph),
                ),
            ),
        )
        assert calls
        assert all(r.soa_reason == "ok" for r in results)

    def test_soa_reason_surfaced(self):
        graph = clique(6)

        def reason(**kwargs):
            results = run_trials(
                graph, NO_CD, _plan_rich_protocol, (0, 1),
                exec_config=ExecutionConfig(lockstep=True, **kwargs),
            )
            reasons = {r.soa_reason for r in results}
            assert len(reasons) == 1
            return reasons.pop()

        assert reason(resolution="numpy") == "ok"
        assert reason(resolution="bitmask") == "resolution"
        assert reason(resolution="numpy", record_trace=True) == "record_trace"
        assert reason(
            resolution="numpy",
            observer_factory=lambda seed: (SlotObserver(),),
        ) == "observers"
        assert reason(
            resolution="numpy",
            model_factory=lambda seed: LossyModel(
                NO_CD if seed % 2 else CD, 0.3, seed=seed
            ),
        ) == "model_factory"
        # Non-lockstep paths leave the diagnostic unset.
        serial = run_trials(graph, NO_CD, _plan_rich_protocol, (0, 1))
        assert all(r.soa_reason is None for r in serial)


class TestTrialSoAEquivalence:
    """Differential matrix for the SoA path.  Without numpy the same
    configs land on the serial fallback, so the matrix stays valid on
    the no-numpy CI leg (it just pins a different engine pair)."""

    SEEDS = (0, 1, 2, 5, 9)

    @pytest.mark.parametrize("stepping", ("slot", "phase"))
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_plan_matrix_vs_serial(self, model_name, resolution, stepping):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(33))
        serial = run_trials(graph, model, _plan_rich_protocol, self.SEEDS)
        lockstep = run_trials(
            graph, model, _stepped(_plan_rich_protocol, stepping), self.SEEDS,
            exec_config=ExecutionConfig(lockstep=True, resolution=resolution),
        )
        _assert_same_results(serial, lockstep)

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_plan_matrix_vs_reference(self, model_name):
        model = FIVE_MODELS[model_name]
        graph = random_gnp(9, 0.5, random.Random(33))
        lockstep = run_trials(
            graph, model, _plan_rich_protocol, self.SEEDS[:2],
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        for result in lockstep:
            ref = ReferenceSimulator(graph, model, seed=result.seed).run(
                _plan_rich_protocol
            )
            assert ref.outputs == result.outputs
            assert ref.duration == result.duration
            assert [e.total for e in ref.energy] == [
                e.total for e in result.energy
            ]

    @pytest.mark.parametrize("stepping", ("slot", "phase"))
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_lossy_matrix_vs_serial(self, model_name, resolution, stepping):
        # Under "numpy" this pins the vectorized drop-mask path against
        # the serial oracle for every inner model; under "bitmask" it
        # pins the serial fallback (and the whole matrix stays valid
        # on the no-numpy CI leg).
        inner = FIVE_MODELS[model_name]
        graph = random_gnp(8, 0.6, random.Random(12))
        factory = lambda seed: LossyModel(inner, 0.35, seed=seed)
        serial = run_trials(
            graph, inner, _plan_rich_protocol, self.SEEDS,
            exec_config=ExecutionConfig(model_factory=factory),
        )
        lockstep = run_trials(
            graph, inner, _stepped(_plan_rich_protocol, stepping), self.SEEDS,
            exec_config=ExecutionConfig(
                model_factory=factory, lockstep=True, resolution=resolution,
            ),
        )
        _assert_same_results(serial, lockstep)

    @pytest.mark.parametrize("stepping", ("slot", "phase"))
    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_lossy_matrix_vs_reference(self, model_name, stepping):
        # The oracle draws each trial's drops in its own scan order
        # (receivers ascending, neighbors ascending): every lock-step
        # executor must consume the channel rng the same way.
        inner = FIVE_MODELS[model_name]
        graph = random_gnp(8, 0.6, random.Random(12))
        factory = lambda seed: LossyModel(inner, 0.35, seed=seed)
        oracle = [
            ReferenceSimulator(graph, factory(seed), seed=seed).run(
                _plan_rich_protocol
            )
            for seed in self.SEEDS
        ]
        protocol = _stepped(_plan_rich_protocol, stepping)
        for resolution in RESOLUTIONS:
            lockstep = run_trials(
                graph, inner, protocol, self.SEEDS,
                exec_config=ExecutionConfig(
                    model_factory=factory, lockstep=True,
                    resolution=resolution,
                ),
            )
            _assert_same_results(oracle, lockstep)

    @pytest.mark.parametrize("stepping", ("slot", "phase"))
    def test_mixed_generator_fallback(self, stepping):
        graph = star_graph(7)
        # Same protocol form on both sides: gen_entries is a
        # stepping-cost metric, so it only matches within one form.
        protocol = _stepped(_mixed_fallback_protocol, stepping)
        serial = run_trials(graph, CD, protocol, self.SEEDS)
        lockstep = run_trials(
            graph, CD, protocol, self.SEEDS,
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        _assert_same_results(serial, lockstep)
        for a, b in zip(serial, lockstep):
            assert a.gen_entries == b.gen_entries

    @pytest.mark.parametrize("model", (CD_FD, NO_CD_FD), ids=("CD_FD", "NO_CD_FD"))
    def test_full_duplex_send_listen(self, model):
        def protocol(ctx):
            fb = yield SendListen(("d", ctx.index))
            yield Repeat(SendListen(("rep", ctx.index)), 2)
            if ctx.index % 2:
                yield Listen()
            return (ctx.index, repr(fb))

        graph = clique(6)
        serial = run_trials(graph, model, protocol, self.SEEDS)
        lockstep = run_trials(
            graph, model, protocol, self.SEEDS,
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        _assert_same_results(serial, lockstep)

    @pytest.mark.parametrize("model_name", sorted(FIVE_MODELS))
    def test_send_none_payload(self, model_name):
        model = FIVE_MODELS[model_name]

        def protocol(ctx):
            if ctx.index == 0:
                yield Repeat(Send(None), 3)
                return "sender"
            got = yield ListenUntil(3, accept=lambda m: m is not None, pad=True)
            return (ctx.index, repr(got))

        graph = star_graph(5)
        serial = run_trials(graph, model, protocol, self.SEEDS[:3])
        lockstep = run_trials(
            graph, model, protocol, self.SEEDS[:3],
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        _assert_same_results(serial, lockstep)

    def test_timeout_message_parity(self):
        def forever(ctx):
            while True:
                yield Send(("f", ctx.index))

        graph = clique(4)

        def run(resolution):
            with pytest.raises(SimulationTimeout) as exc:
                run_trials(
                    graph, NO_CD, forever, (0, 1),
                    exec_config=ExecutionConfig(
                        lockstep=True, resolution=resolution, time_limit=16
                    ),
                )
            return str(exc.value)

        messages = {run(resolution) for resolution in RESOLUTIONS}
        with pytest.raises(SimulationTimeout) as exc:
            ReferenceSimulator(graph, NO_CD, seed=0, time_limit=16).run(forever)
        messages.add(str(exc.value))
        assert len(messages) == 1  # SoA, serial engine and oracle agree
        assert "seed 0" in messages.pop()

    @pytest.mark.parametrize("bad, message", [
        (SendListen("d"), "SendListen is illegal in the No-CD model"),
        (42, "protocol yielded non-action 42"),
    ], ids=("send_listen", "non_action"))
    def test_protocol_error_message_parity(self, bad, message):
        def protocol(ctx):
            yield Listen()
            yield bad

        graph = clique(3)
        runs = {
            "serial": lambda: run_trials(graph, NO_CD, protocol, (0,)),
            "oracle": lambda: ReferenceSimulator(graph, NO_CD).run(protocol),
        }
        if numpy_available():
            runs["soa"] = lambda: run_trials(
                graph, NO_CD, protocol, (0,),
                exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
            )
        for name, run in runs.items():
            with pytest.raises(ProtocolError) as exc:
                run()
            assert str(exc.value) == message, name


class TestTrialSoAProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=2, max_value=9),
        steps=st.integers(min_value=1, max_value=5),
        stepping=st.sampled_from(("slot", "phase")),
        loss_rate=st.sampled_from((0.0, 0.2, 0.6)),
    )
    def test_lossy_drop_mask_draw_order(
        self, seed, n, steps, stepping, loss_rate
    ):
        """The vectorized drop masks must consume each trial's channel
        rng in the serial order (receivers ascending, senders ascending,
        one draw per on-the-air transmission), and leave the rng at the
        serial position: the trailing draw after the run pins the exact
        number and order of draws on both engines."""
        graph = clique(n)
        protocol = _stepped(_rng_heavy_protocol(steps), stepping)
        seeds = (seed, seed + 1)

        def run(lockstep):
            models = {
                s: LossyModel(NO_CD, loss_rate, seed=s) for s in seeds
            }
            results = run_trials(
                graph, NO_CD, protocol, seeds,
                exec_config=ExecutionConfig(
                    model_factory=models.__getitem__,
                    lockstep=lockstep, resolution="numpy",
                ),
            )
            trailing = {s: models[s]._rng.random() for s in seeds}
            return results, trailing

        serial, serial_trailing = run(lockstep=False)
        lockstep, soa_trailing = run(lockstep=True)
        _assert_same_results(serial, lockstep)
        assert serial_trailing == soa_trailing
        for a, b in zip(serial, lockstep):
            assert a.gen_entries == b.gen_entries

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=2, max_value=9),
        steps=st.integers(min_value=1, max_value=5),
        stepping=st.sampled_from(("slot", "phase")),
    )
    def test_rng_draw_order_identity(self, seed, n, steps, stepping):
        """A final rng draw in the protocol return value pins the exact
        position of every node's random stream: any divergence in draw
        order between the engines shows up as a different output."""
        graph = clique(n)
        protocol = _stepped(_rng_heavy_protocol(steps), stepping)
        seeds = (seed, seed + 1)
        serial = run_trials(graph, NO_CD, protocol, seeds)
        lockstep = run_trials(
            graph, NO_CD, protocol, seeds,
            exec_config=ExecutionConfig(lockstep=True, resolution="numpy"),
        )
        _assert_same_results(serial, lockstep)
        for a, b in zip(serial, lockstep):
            assert a.gen_entries == b.gen_entries
