"""Trial-axis struct-of-arrays (SoA) lock-step execution.

Replaying the serial engine once per seed pays per-trial Python
bookkeeping for every slot of every trial: one ``gen.send`` per node per
slot on per-slot protocols, one plan-state poke per node per slot on
phase protocols.  This module keeps the *whole batch* of trials in 2-D
numpy arrays indexed ``[trial, node]`` and advances every vectorizable
run with whole-array operations per slot:

====================  =====================================================
array                 meaning
====================  =====================================================
``st``      int8      state code: done / send / listen / listen-until /
                      duplex / idle
``rem``     int64     slots remaining in the active run (incl. current)
``wake``    int64     wake slot for idle cells (sentinel elsewhere)
``run_start`` int64   global round index of the run's first slot (for
                      deferred feedback delivery out of the history ring)
``steps_next`` int64  ``Steps`` resume index (-1: whole-opcode run,
                      -2: no descriptor — per-slot referee)
``msg``     object    message transmitted by send/duplex runs
``e_send``/``e_listen``/``e_duplex``/``e_last``  int64  energy meters
====================  =====================================================

Per global round, every unfinished trial stages exactly one slot (its
own clock — trials at different slot numbers share a round).  The slot
is resolved through :meth:`repro.sim.resolution.NumpyBackend.
trial_matrix_resolver` — one packbits over the send matrix, one AND +
popcount sweep over the shared uint64 mask table for *all* trials — and
classified into a ``[trial, node]`` feedback object array by per-model
vectorized rules.  Countdowns (``rem -= 1``), energy charging, duration
bookkeeping, and ``ListenUntil`` match detection are array operations;
Python runs only at *run boundaries* (a run's last slot, an early
``ListenUntil`` match, idle wake-ups, generator re-entries), where the
node syncs its plan state and delegates to the same
:func:`~repro.sim.plan.plan_feedback` / :func:`~repro.sim.plan.
plan_resume` referee the serial engine uses.

Feedback for multi-slot listen runs is delivered *deferred*: each
round's feedback matrix is appended to a history list, and a run's
feedbacks are gathered as a column slice when the run ends (every live
trial stages one slot per round, so a k-slot run spans k consecutive
rounds).  The history is truncated to the oldest in-flight collecting
run, bounding memory.

What vectorizes (runs longer than one slot): ``Repeat`` of
Send/Listen/SendListen, ``ListenUntil``
countdowns (accept callbacks are evaluated only on message-bearing
candidate cells), and maximal same-action stretches inside ``Steps``.
Everything else — plain per-slot yields from adaptive generators, plan
starts, idle wake-ups — takes the per-node Python path, one call per
boundary, which is exactly the serial engine's cost for those states.

rng draw-order identity holds by construction: generator entries (the
only rng consumers; a plan draws nothing) happen at exactly the slots
the serial engine performs them; only within-run continuations are
vectorized.  The differential matrix in tests/test_lockstep.py pins the
results byte-identical to the serial engine across models x backends x
plan-emitting and per-slot protocols.

Eligibility (:func:`soa_fallback_reason`, the one place it is decided):
numpy importable, ``resolution == "numpy"``, no trace recording, no
jamming, no Gilbert-Elliott burst loss, no observers besides the
engine's own energy meters, and one of the five paper models'
classification rules (:func:`_stock_spec`) — either as a shared
model, or as the inner model of per-trial
:class:`~repro.sim.models.LossyModel` wrappers (the erasure channel is
lowered to per-trial Bernoulli drop masks, see below).  The lock-step
dispatch in :func:`repro.sim.batch.run_trials` probes the materialized
per-seed products and records the verdict as ``SimResult.soa_reason``;
everything else — including every no-numpy environment — runs on the
serial engine, seed after seed, with byte-identical results.

**Lossy channels.**  The serial oracle draws one ``rng.random()`` per
on-the-air transmission per reception, receivers ascending (the
serial engine sorts receivers for non-count models), senders
ascending within each receiver (``_mask_messages`` walks the neighbor
mask lowest-bit-first).  The SoA engine reproduces that stream exactly:
each trial's ``LossyModel`` rng is transplanted into a
``numpy.random.RandomState`` (same MT19937 state, and
``random_sample(k)`` is the same genrand_res53 double stream as
``random.random()``), and per round each staged trial enumerates its
(receiver, sender) reception pairs in that order via one
``unpackbits``/``nonzero`` sweep, draws the whole slot's Bernoulli mask
in one call, and classifies *post-drop* counts/firsts under the inner
model's stock spec.  ``ListenUntil`` early exit also matches on
post-drop counts (a dropped transmission cannot end a listen).  The
consumed rng state is written back into each ``LossyModel`` after the
run, so trailing draws continue the serial stream.

**Churn.**  Each trial carries its own
:class:`~repro.sim.faults.CrashSchedule`.  Per round, every staged
trial asks it which of its active cells are down at the trial's own
slot (:meth:`~repro.sim.faults.CrashSchedule.down_cells`: a loop over
``down`` for drawn schedules, one array expression for
:class:`~repro.sim.faults.PeriodicChurn`).  The round then follows the
serial engine's per-slot order: resolution and the lossy drop draws
see only on-air senders (``sending & ~down``) and live receivers
(``receiving & ~down``), and down receivers hear
:func:`~repro.sim.faults.down_feedback`, so ``ListenUntil`` early
exit matches on post-churn counts and on what each cell heard.
Energy meters, run countdowns and boundaries keep the attempted
rows.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.config import ExecutionConfig
from repro.sim.energy import EnergyReport
from repro.sim.engine import (
    ProtocolError,
    ProtocolFactory,
    SimResult,
    Simulator,
    timeout_error,
)
from repro.sim.faults import CrashSchedule, down_feedback
from repro.sim.feedback import BEEP, NOISE, SILENCE, is_message
from repro.sim.models import (
    BEEPING,
    CD,
    CD_STAR,
    LOCAL,
    NO_CD,
    ChannelModel,
    LossyModel,
)
from repro.sim.plan import (
    OP_DUPLEX,
    OP_LISTEN,
    OP_SEND,
    OP_UNTIL,
    RUN_DUPLEX,
    RUN_LISTEN,
    RUN_SEND,
    RUN_UNTIL,
    Plan,
    plan_feedback,
    plan_resume,
    run_descriptor,
    start_plan,
)
from repro.sim.resolution import NumpyBackend, _numpy

# numpy and the ufunc built from it, bound by _load_numpy() when the
# first SoA batch starts: importing this module does not import numpy.
_np = None
_WRAP1 = None  # message -> (message,)

__all__ = ["run_trials_soa", "soa_fallback_reason"]

# State codes.  The active band [_SEND, _DUPLEX] is contiguous so
# "has any staged action" is one range test per cell.
_DONE = 0
_SEND = 1
_LISTEN = 2
_UNTIL = 3
_DUPLEX = 4
_IDLE = 5

_FAR = 1 << 62  # wake sentinel for cells that are not idle


def _load_numpy() -> None:
    global _np, _WRAP1
    if _np is None:
        _np = _numpy()
        _WRAP1 = _np.frompyfunc(lambda m: (m,), 1, 1)


def soa_fallback_reason(
    model: ChannelModel,
    config: ExecutionConfig,
    backend,
    trial_models: Optional[Sequence[ChannelModel]],
    observed: bool,
) -> Optional[str]:
    """Why a lock-step batch cannot run on the SoA engine, or None when
    it can.

    ``backend`` is the batch's resolution backend, ``trial_models`` the
    per-trial models when they differ per seed (``model_factory``
    products, fault wrappers), and ``observed`` says whether any trial
    carries an observer.  Per-trial models are the materialized
    products, so uniform ``LossyModel`` batches over one shared stock
    inner model (vectorized drop masks) are admitted.  The returned
    string lands in ``SimResult.soa_reason`` so fallbacks are
    diagnosable, not silent.
    """
    if config.resolution != "numpy" or not isinstance(backend, NumpyBackend):
        return "resolution"
    _load_numpy()  # the numpy backend imported it; _stock_spec boxes cells
    if config.record_trace:
        return "record_trace"
    # Churn runs as a per-trial down mask (see the module docstring).
    # Jamming and Gilbert-Elliott fades need per-slot channel state the
    # engine does not carry.
    if config.jam:
        return "jammer"
    if config.burst_loss:
        return "burst_loss"
    if trial_models is not None:
        first = trial_models[0] if trial_models else None
        if not (
            type(first) is LossyModel
            and all(
                type(m) is LossyModel and m.inner is first.inner
                for m in trial_models
            )
        ):
            return "model_factory"
        model = first.inner
    elif model.stateful:
        # A shared stateful channel consumes one rng stream across
        # trials, which the trial axis cannot reorder.
        return "stateful_model"
    if _stock_spec(model) is None:
        return "model"
    if observed:
        return "observers"
    return None


def _cell(value):
    """Box ``value`` in a 0-d object array so broadcast-assignment stores
    the object itself (a bare tuple would be unpacked elementwise)."""
    box = _np.empty((), dtype=object)
    box[()] = value
    return box


def _transplant_rng(rng: random.Random):
    """Clone a CPython ``Random``'s MT19937 state into a
    ``numpy.random.RandomState`` whose ``random_sample`` emits the exact
    double stream the source's ``random()`` would (both are
    genrand_res53 over the same generator)."""
    _, internal, _ = rng.getstate()
    rs = _np.random.RandomState()
    rs.set_state((
        "MT19937",
        _np.asarray(internal[:624], dtype=_np.uint32),
        int(internal[624]),
    ))
    return rs


def _store_rng(rng: random.Random, rs) -> None:
    """Write a consumed ``RandomState`` back into the CPython ``Random``
    it was transplanted from, so post-run draws continue the stream at
    the serial position (the trailing-draw identity the property suite
    pins)."""
    state = rs.get_state()
    keys, pos = state[1], state[2]
    rng.setstate((3, tuple(int(x) for x in keys) + (int(pos),), None))


def _stock_spec(model: ChannelModel):
    """``(k0_cell, one_mode, many_mode, until_rule)`` for the five paper
    models: the zero-count feedback plus how counts of 1 / >= 2 classify.

    Modes: ``("obj", cell)`` — a fixed sentinel; ``"first"`` — the lowest
    transmitting neighbor's message; ``"first_tuple"`` — that message
    wrapped in a 1-tuple (LOCAL); ``"needs"`` — the full ordered message
    list (LOCAL under contention).  ``until_rule`` names which counts
    *can* carry a message for ``ListenUntil`` early exit ("eq1"/"ge1"/
    "never"); candidate cells are still re-checked per element with
    :func:`is_message` + accept, so a ``Send(None)`` cannot fake a match.

    Keyed on exact type: any other model, a subclass overriding
    resolution semantics included, gets None, and
    :func:`soa_fallback_reason` sends its batch to the serial engine.
    """
    tp = type(model)
    if tp is type(NO_CD):
        return (_cell(SILENCE), "first", ("obj", _cell(SILENCE)), "eq1")
    if tp is type(CD):
        return (_cell(SILENCE), "first", ("obj", _cell(NOISE)), "eq1")
    if tp is type(CD_STAR):
        return (_cell(SILENCE), "first", "first", "ge1")
    if tp is type(BEEPING):
        beep = ("obj", _cell(BEEP))
        return (_cell(SILENCE), beep, beep, "never")
    if tp is type(LOCAL):
        return (_cell(()), "first_tuple", "needs", "ge1")
    return None


def _cell_messages(mask_words, msg_row) -> List[Any]:
    """Materialize one cell's transmitting-neighbor messages, lowest
    sender index first — the exact order of the backends'
    ``_mask_messages``."""
    messages = []
    for wi, word in enumerate(mask_words.tolist()):
        base = wi << 6
        while word:
            low = word & -word
            messages.append(msg_row[base + low.bit_length() - 1])
            word ^= low
    return messages


class _SoAEngine:
    """The batched executor.  Mirrors the serial engine's semantics state
    for state; any divergence is a bug the differential suite catches."""

    def __init__(
        self,
        simulator: Simulator,
        protocol_factory: ProtocolFactory,
        seeds: Sequence[int],
        inputs: Optional[Dict[int, Dict[str, Any]]],
        trial_models: Optional[Sequence[Any]] = None,
        trial_churn: Optional[Sequence[CrashSchedule]] = None,
    ) -> None:
        _load_numpy()
        np = _np
        T = len(seeds)
        N = simulator.graph.n
        self.T = T
        self.N = N
        model = simulator.model
        if trial_models is not None:
            # Lossy batch: per-trial LossyModel wrappers over one shared
            # stock inner (the dispatch validated this).  The wrapper
            # supplies full_duplex/name; classification runs under the
            # *inner* model's spec on post-drop counts.
            model = trial_models[0]
        self.model = model
        self.seeds = list(seeds)
        self.time_limit = simulator.time_limit
        self.full_duplex = model.full_duplex
        self.backend = simulator.backend
        self._resolve = self.backend.trial_matrix_resolver()
        self.lossy_models = (
            list(trial_models) if trial_models is not None else None
        )
        if self.lossy_models is not None:
            inner = self.lossy_models[0].inner
            self.inner = inner
            self.loss_rates = [float(m.loss_rate) for m in self.lossy_models]
            self._lossy_rs = [
                _transplant_rng(m._rng) for m in self.lossy_models
            ]
            # Post-drop firsts are computed inside _classify_lossy; the
            # whole-matrix pre-drop firsts would name dropped senders.
            self.needs_first = None
            self.spec = _stock_spec(inner)
        else:
            self.inner = None
            self.needs_first = model.needs_first_message
            self.spec = _stock_spec(model)
        self.until_rule = self.spec[3]
        self.churn = list(trial_churn) if trial_churn is not None else None
        if self.churn is not None:
            self.down_fb = _cell(down_feedback(model))

        self.st = np.zeros((T, N), dtype=np.int8)
        self.rem = np.zeros((T, N), dtype=np.int64)
        self.wake = np.full((T, N), _FAR, dtype=np.int64)
        self.run_start = np.zeros((T, N), dtype=np.int64)
        self.steps_next = np.full((T, N), -1, dtype=np.int64)
        self.msg = np.empty((T, N), dtype=object)
        self.finish = np.full((T, N), -1, dtype=np.int64)
        self.e_send = np.zeros((T, N), dtype=np.int64)
        self.e_listen = np.zeros((T, N), dtype=np.int64)
        self.e_duplex = np.zeros((T, N), dtype=np.int64)
        self.e_last = np.full((T, N), -1, dtype=np.int64)
        self.cur = np.zeros(T, dtype=np.int64)
        self.bucket = np.zeros(T, dtype=np.int64)
        self.duration = np.zeros(T, dtype=np.int64)
        self.remaining = np.zeros(T, dtype=np.int64)

        self.plans: List[List[Any]] = [[None] * N for _ in range(T)]
        self.hist: List[Any] = []
        self.hist_base = 0
        # Write-combining buffer for _load: per-cell scalar stores into
        # six arrays are ~1us of numpy dispatch each; batching a whole
        # boundary/wake batch into one fancy-indexed store per array
        # makes run loading O(arrays), not O(cells * arrays).
        self._pend: List[List[Any]] = [[], [], [], [], [], [], []]

        # Every generator is entered once by TrialSetup.start.
        self.entries = [N] * T
        self.ctxs: List[List[Any]] = []
        self.gens: List[List[Any]] = []
        self.outputs: List[List[Any]] = []
        setup = simulator.setup
        for t, seed in enumerate(self.seeds):
            ctxs, gens, outputs, first = setup.start(
                protocol_factory, seed, inputs
            )
            self.ctxs.append(ctxs)
            self.gens.append(gens)
            self.outputs.append(outputs)
            for v, action in first:
                self._load(t, v, action, 0, 0)
            self.remaining[t] = len(first)
        self._flush()

    # --- per-node boundary machinery (the non-vectorizable states) -----

    def _load(self, t: int, v: int, action, base_slot: int,
              base_round: int) -> None:
        """Classify an emitted action into array state: start plans
        (consuming their rng at exactly the serial draw point), compile
        the current run via :func:`run_descriptor`, or record a
        single-slot generator-path run.  Array stores are buffered —
        callers flush via :meth:`_flush` before any array is re-read."""
        plans_row = self.plans[t]
        pend = self._pend
        while True:
            cls = action.__class__
            if cls is Send:
                kind = RUN_SEND
            elif cls is Listen:
                kind = RUN_LISTEN
            elif cls is Idle:
                pend[0].append(t)
                pend[1].append(v)
                pend[2].append(_IDLE)
                pend[3].append(1)
                pend[4].append(base_slot + action.duration)
                pend[5].append(base_round)
                pend[6].append(-1)
                return
            elif cls is SendListen:
                if not self.full_duplex:
                    raise ProtocolError(
                        f"SendListen is illegal in the {self.model.name} model"
                    )
                kind = RUN_DUPLEX
            elif isinstance(action, Plan):
                plans_row[v], action = start_plan(action)
                continue
            elif isinstance(action, Idle):
                pend[0].append(t)
                pend[1].append(v)
                pend[2].append(_IDLE)
                pend[3].append(1)
                pend[4].append(base_slot + action.duration)
                pend[5].append(base_round)
                pend[6].append(-1)
                return
            elif isinstance(action, Send):
                kind = RUN_SEND
            elif isinstance(action, Listen):
                kind = RUN_LISTEN
            elif isinstance(action, SendListen):
                if not self.full_duplex:
                    raise ProtocolError(
                        f"SendListen is illegal in the {self.model.name} model"
                    )
                kind = RUN_DUPLEX
            else:
                raise ProtocolError(f"protocol yielded non-action {action!r}")
            break
        count = 1
        snext = -1
        ps = plans_row[v]
        desc = run_descriptor(ps, action) if ps is not None else None
        if desc is not None:
            kind, count, message, snext = desc
            if kind == RUN_SEND or kind == RUN_DUPLEX:
                self.msg[t, v] = message
            code = (
                _SEND if kind == RUN_SEND
                else _LISTEN if kind == RUN_LISTEN
                else _UNTIL if kind == RUN_UNTIL
                else _DUPLEX
            )
            snext = -1 if kind == RUN_UNTIL else snext
        else:
            if ps is not None:
                snext = -2  # no compiled run: per-slot plan_feedback
            if kind != RUN_LISTEN:
                self.msg[t, v] = action.message
            code = (
                _SEND if kind == RUN_SEND
                else _LISTEN if kind == RUN_LISTEN
                else _DUPLEX
            )
        pend[0].append(t)
        pend[1].append(v)
        pend[2].append(code)
        pend[3].append(count)
        pend[4].append(_FAR)
        pend[5].append(base_round)
        pend[6].append(snext)

    def _flush(self) -> None:
        """Commit buffered :meth:`_load` stores: one fancy-indexed
        assignment per state array for the whole batch."""
        pend = self._pend
        ti = pend[0]
        if not ti:
            return
        np = _np
        rows = np.array(ti, dtype=np.intp)
        cols = np.array(pend[1], dtype=np.intp)
        self.st[rows, cols] = np.array(pend[2], dtype=np.int8)
        self.rem[rows, cols] = np.array(pend[3], dtype=np.int64)
        self.wake[rows, cols] = np.array(pend[4], dtype=np.int64)
        self.run_start[rows, cols] = np.array(pend[5], dtype=np.int64)
        self.steps_next[rows, cols] = np.array(pend[6], dtype=np.int64)
        self._pend = [[], [], [], [], [], [], []]

    def _wake(self, t: int, v: int, slot: int, round_idx: int) -> None:
        """Resume a sleeper due at ``slot`` — the engine's wake path:
        plans continue via plan_resume, exhausted plans re-enter the
        generator with their result."""
        ps = self.plans[t][v]
        action = None
        result = None
        if ps is not None:
            action, result = plan_resume(ps)
            if action is None:
                self.plans[t][v] = None
        if action is None:
            ctx = self.ctxs[t][v]
            ctx.time = slot
            self.entries[t] += 1
            try:
                action = self.gens[t][v].send(result)
            except StopIteration as stop:
                self.outputs[t][v] = stop.value
                self.finish[t, v] = slot - 1
                self.remaining[t] -= 1
                if self.duration[t] < slot:
                    self.duration[t] = slot
                self.st[t, v] = _DONE
                self.wake[t, v] = _FAR
                return
        self._load(t, v, action, slot, round_idx)

    def _boundaries(self, boundary, round_idx: int, cur_list) -> None:
        """Advance every cell whose run ended this round: sync the plan
        counters from the arrays, hand the run's feedbacks to the shared
        referee, re-enter generators at plan exhaustion, and load the
        next run."""
        np = _np
        bt, bv = np.nonzero(boundary)
        ts = bt.tolist()
        vs = bv.tolist()
        sts = self.st[bt, bv].tolist()
        rems = self.rem[bt, bv].tolist()
        starts = self.run_start[bt, bv].tolist()
        nexts = self.steps_next[bt, bv].tolist()
        last_fb = self.hist[-1]
        fbs = last_fb[bt, bv].tolist()
        hist = self.hist
        hist_base = self.hist_base
        plans = self.plans
        next_round = round_idx + 1

        # Pre-gather the earlier feedbacks of every multi-slot listen run
        # ending this round, vectorized: one fancy-indexed gather per
        # history row over *all* such cells at once, one bulk tolist(),
        # then a cheap per-cell list slice — instead of a numpy scalar
        # read per (cell, slot) pair.
        prefetch: Dict[int, List[Any]] = {}
        gather_ks = [
            k for k in range(len(ts))
            if (sts[k] == _LISTEN or sts[k] == _DUPLEX)
            and starts[k] < round_idx
        ]
        if gather_ks:
            min_start = min(starts[k] for k in gather_ks)
            base = min_start - hist_base
            gt = bt[gather_ks]
            gv = bv[gather_ks]
            rows = [
                hist[base + i][gt, gv]
                for i in range(round_idx - min_start)
            ]
            per_cell = np.stack(rows, axis=0).T.tolist()
            for j, k in enumerate(gather_ks):
                offset = starts[k] - min_start
                prefetch[k] = (
                    per_cell[j][offset:] if offset else per_cell[j]
                )

        for k in range(len(ts)):
            t = ts[k]
            v = vs[k]
            st_cell = sts[k]
            slot = cur_list[t]
            fb_cell = None if st_cell == _SEND else fbs[k]
            ps = plans[t][v]
            action = None
            result = fb_cell
            if ps is not None:
                snext = nexts[k]
                if snext >= 0:  # a run carved out of an OP_STEPS list
                    if st_cell != _SEND:
                        earlier = prefetch.get(k)
                        if earlier:
                            ps[3].extend(earlier)
                    ps[1] = snext
                    action, result = plan_feedback(ps, fb_cell)
                elif snext == -1:
                    op = ps[0]
                    if op == OP_SEND:
                        ps[1] = 1
                        action, result = plan_feedback(ps, None)
                    elif op == OP_LISTEN or op == OP_DUPLEX:
                        earlier = prefetch.get(k)
                        if earlier:
                            ps[3].extend(earlier)
                        ps[1] = 1
                        action, result = plan_feedback(ps, fb_cell)
                    elif op == OP_UNTIL:
                        # rem still holds the slots left including this
                        # one — what plan_feedback expects in ps[1] both
                        # at an early match and at exhaustion.
                        ps[1] = rems[k]
                        action, result = plan_feedback(ps, fb_cell)
                    else:
                        action, result = plan_feedback(ps, fb_cell)
                else:  # snext == -2: descriptor-less, generic referee
                    action, result = plan_feedback(ps, fb_cell)
                if action is not None:
                    self._load(t, v, action, slot + 1, next_round)
                    continue
                plans[t][v] = None
            ctx = self.ctxs[t][v]
            ctx.time = slot + 1
            self.entries[t] += 1
            try:
                action = self.gens[t][v].send(result)
            except StopIteration as stop:
                self.outputs[t][v] = stop.value
                self.finish[t, v] = slot
                self.remaining[t] -= 1
                self.st[t, v] = _DONE
                self.wake[t, v] = _FAR
                continue
            self._load(t, v, action, slot + 1, next_round)
        self._flush()

    # --- vectorized round machinery ------------------------------------

    def _stage(self, round_idx: int):
        """Bring every unfinished trial to its next active slot (firing
        due wake-ups), mirroring the engine's bucket/heap scheduling and
        its slot budget: a trial may still finish at slot
        ``time_limit + 1``'s wake-ups, never later.  Returns the boolean
        [T] mask of staged trials."""
        np = _np
        st = self.st
        wake = self.wake
        staged = np.zeros(self.T, dtype=bool)
        while True:
            alive = self.remaining > 0
            todo = alive & ~staged
            if not todo.any():
                return staged
            has_active = ((st >= _SEND) & (st <= _DUPLEX)).any(axis=1)
            cand = np.where(has_active, self.bucket, wake.min(axis=1))
            late = todo & (cand > self.time_limit)
            any_late = late.any()
            waking = todo
            if any_late:
                beyond = late & (cand > self.time_limit + 1)
                waking = todo & ~beyond
            self.cur[todo] = cand[todo]
            due = (st == _IDLE) & (wake == cand[:, None]) & waking[:, None]
            if due.any():
                dt, dv = np.nonzero(due)
                cand_list = cand.tolist()
                for t, v in zip(dt.tolist(), dv.tolist()):
                    self._wake(t, v, cand_list[t], round_idx)
                self._flush()
            if any_late:
                over = beyond | (late & (self.remaining > 0))
                if over.any():
                    t = int(np.nonzero(over)[0][0])
                    raise timeout_error(
                        self.time_limit, int(self.remaining[t]),
                        self.seeds[t],
                    )
            now_active = ((st >= _SEND) & (st <= _DUPLEX)).any(axis=1)
            staged |= todo & now_active
            # Trials still all-idle re-lap onto their (strictly later)
            # next wake; finished trials drop out via `alive`.

    def run(self) -> None:
        np = _np
        st = self.st
        rem = self.rem
        round_idx = 0
        while True:
            staged = self._stage(round_idx)
            if not staged.any():
                break
            run_col = staged[:, None]
            sending = ((st == _SEND) | (st == _DUPLEX)) & run_col
            receiving = (
                (st == _LISTEN) | (st == _UNTIL) | (st == _DUPLEX)
            ) & run_col
            active = sending | receiving
            # Churn: resolution sees only on-air senders and classifies
            # only live receivers; meters, countdowns and boundaries
            # keep the attempted rows, as in the serial engine.
            air = sending
            live = receiving
            down = None if self.churn is None else self._down(staged, active)
            if down is not None:
                live = receiving & ~down
                off_air = sending & down
                if off_air.any():
                    air = sending ^ off_air
            counts, masked = self._resolve(air)
            if self.lossy_models is not None:
                # Erasure channel: draw each staged trial's Bernoulli
                # mask in serial order, classify post-drop.
                fb, match_counts = self._classify_lossy(
                    staged, air, live, masked
                )
            else:
                firsts = None
                if self.needs_first == "one":
                    firsts = self.backend.first_transmitter_matrix(
                        masked, live & (counts == 1)
                    )
                elif self.needs_first == "any":
                    firsts = self.backend.first_transmitter_matrix(
                        masked, live & (counts > 0)
                    )
                fb = self._classify(counts, live, firsts, masked)
                match_counts = counts
            if down is not None:
                fb[receiving & down] = self.down_fb
            self.hist.append(fb)

            cur = self.cur
            self.e_send[sending & (st == _SEND)] += 1
            self.e_listen[
                receiving & ((st == _LISTEN) | (st == _UNTIL))
            ] += 1
            self.e_duplex[sending & (st == _DUPLEX)] += 1
            np.copyto(self.e_last, cur[:, None], where=active)
            np.maximum(
                self.duration, cur + 1, out=self.duration, where=staged
            )
            self.bucket[staged] = cur[staged] + 1

            boundary = active & (rem == 1)
            until_cells = (st == _UNTIL) & run_col
            if until_cells.any():
                matched = self._until_matches(until_cells, match_counts, fb)
                if matched is not None:
                    boundary = boundary | matched
            rem[active & ~boundary] -= 1
            if boundary.any():
                self._boundaries(boundary, round_idx, cur.tolist())
            round_idx += 1
            if (round_idx & 63) == 0:
                self._truncate_hist(round_idx)
        if self.lossy_models is not None:
            # Leave each trial's channel rng exactly where the serial
            # oracle would: the next draw continues the same stream.
            for m, rs in zip(self.lossy_models, self._lossy_rs):
                _store_rng(m._rng, rs)

    def _until_matches(self, until_cells, counts, fb):
        """Boolean [T, N] mask of ListenUntil cells whose current
        feedback ends their run early, or None.  The per-model count rule
        prunes candidates vectorized; the survivors are re-checked per
        element (is_message + accept), exactly the referee's condition."""
        np = _np
        rule = self.until_rule
        if rule == "eq1":
            cand = until_cells & (counts == 1)
        elif rule == "ge1":
            cand = until_cells & (counts >= 1)
        else:  # "never": no count carries a message
            return None
        if not cand.any():
            return None
        matched = np.zeros(cand.shape, dtype=bool)
        ts, vs = np.nonzero(cand)
        vals = fb[ts, vs].tolist()
        plans = self.plans
        any_hit = False
        for t, v, x in zip(ts.tolist(), vs.tolist(), vals):
            if is_message(x):
                accept = plans[t][v][2]
                if accept is None or accept(x):
                    matched[t, v] = True
                    any_hit = True
        return matched if any_hit else None

    def _down(self, staged, active):
        """Boolean [T, N] mask of this round's active cells whose radio
        is down, or None when none is.  Each staged trial asks its own
        schedule (:meth:`CrashSchedule.down_cells`) about its active
        cells at its own slot — the (vertex, slot) pairs the serial
        engine queries."""
        np = _np
        # Row-major nonzero groups the cells by trial, ascending; only
        # staged trials have active cells.
        ts, vs = np.nonzero(active)
        ends = np.cumsum(np.count_nonzero(active, axis=1)).tolist()
        cur = self.cur.tolist()
        churn = self.churn
        hits = []
        for t in np.nonzero(staged)[0].tolist():
            start = ends[t - 1] if t else 0
            hits.append(churn[t].down_cells(cur[t], vs[start:ends[t]]))
        hit = np.concatenate(hits).astype(bool, copy=False)
        if not hit.any():
            return None
        down = np.zeros(active.shape, dtype=bool)
        down[ts[hit], vs[hit]] = True
        return down

    # --- feedback classification ---------------------------------------

    def _classify_lossy(self, staged, sending, receiving, masked):
        """Erasure-channel classification: returns the ``[T, N]``
        feedback matrix plus the post-drop count matrix (the counts
        ``ListenUntil`` early exit must match on).

        Per staged trial, in trial order: enumerate this slot's
        (receiver, sender) reception pairs in serial draw order —
        receivers ascending, senders ascending within each receiver —
        draw the whole slot's Bernoulli mask from the trial's
        transplanted rng in one ``random_sample`` call, then classify
        the surviving counts and first-surviving senders under the
        *inner* model's stock spec.  Pairs come from extracting just the
        transmitting senders' bit columns out of the reception bitmask
        (columns ascending, so row-major ``nonzero`` order *is* the
        serial order) — never from unpacking the full ``N``-bit mask
        width, which profiles as the round's dominant cost on dense
        cliques.  Zero-pair cells draw nothing, exactly like the serial
        ``LossyModel.resolve([])``.
        """
        np = _np
        k0, one_mode, many_mode, _ = self.spec
        fb = np.empty((self.T, self.N), dtype=object)
        fb[...] = k0
        post = np.zeros((self.T, self.N), dtype=np.int64)
        msg = self.msg
        inner = self.inner
        rates = self.loss_rates
        rss = self._lossy_rs
        one = np.uint64(1)
        for t in np.nonzero(staged)[0].tolist():
            rows = np.nonzero(receiving[t])[0]
            n_rows = rows.size
            if not n_rows:
                continue
            send_idx = np.nonzero(sending[t])[0]
            if send_idx.size:
                sub = masked[t][rows]
                bits = (
                    sub[:, send_idx >> 6]
                    >> (send_idx & 63).astype(np.uint64)
                ) & one
                pair_row, pair_col = np.nonzero(bits)
            else:
                pair_row = pair_col = send_idx
            if pair_row.size:
                draws = rss[t].random_sample(pair_row.size)
                keep = draws >= rates[t]
                kept_rows = pair_row[keep]
                kept_senders = send_idx[pair_col[keep]]
            else:
                kept_rows = pair_row
                kept_senders = pair_row
            if not kept_rows.size:
                continue  # every cell keeps k0 feedback, zero count
            counts_row = np.bincount(kept_rows, minlength=n_rows)
            post[t, rows] = counts_row
            msg_row = msg[t]
            # First surviving sender per cell: pairs are in (receiver,
            # sender) ascending order and np.unique returns the first
            # occurrence index, so this is the lowest survivor.
            uniq, first_idx = np.unique(kept_rows, return_index=True)
            first_sender = np.zeros(n_rows, dtype=np.int64)
            first_sender[uniq] = kept_senders[first_idx]
            ones = np.nonzero(counts_row == 1)[0]
            if ones.size:
                if one_mode.__class__ is tuple:
                    fb[t, rows[ones]] = one_mode[1]
                elif one_mode == "first":
                    fb[t, rows[ones]] = msg_row[first_sender[ones]]
                else:  # "first_tuple" (LOCAL)
                    fb[t, rows[ones]] = _WRAP1(msg_row[first_sender[ones]])
            manys = np.nonzero(counts_row >= 2)[0]
            if manys.size:
                if many_mode.__class__ is tuple:
                    fb[t, rows[manys]] = many_mode[1]
                elif many_mode == "first":
                    fb[t, rows[manys]] = msg_row[first_sender[manys]]
                else:  # "needs": full surviving list (LOCAL contention)
                    many_set = set(manys.tolist())
                    lists = {r: [] for r in many_set}
                    for r, s in zip(
                        kept_rows.tolist(), kept_senders.tolist()
                    ):
                        if r in many_set:
                            lists[r].append(msg_row[s])
                    resolve = inner.resolve
                    for r in manys.tolist():
                        fb[t, rows[r]] = resolve(lists[r])
        return fb, post

    def _classify(self, counts, receiving, firsts, masked):
        """[T, N] feedback object matrix for this round's receivers."""
        np = _np
        k0, one_mode, many_mode, _ = self.spec
        fb = np.empty(counts.shape, dtype=object)
        fb[...] = k0
        one = receiving & (counts == 1)
        if one.any():
            self._apply_mode(fb, one, one_mode, firsts, masked)
        many = receiving & (counts >= 2)
        if many.any():
            self._apply_mode(fb, many, many_mode, firsts, masked)
        return fb

    def _apply_mode(self, fb, mask, mode, firsts, masked):
        np = _np
        if mode.__class__ is tuple:  # ("obj", cell): a fixed sentinel
            fb[mask] = mode[1]
            return
        ts, vs = np.nonzero(mask)
        if mode == "first":
            fb[ts, vs] = self.msg[ts, firsts[ts, vs]]
        elif mode == "first_tuple":
            fb[ts, vs] = _WRAP1(self.msg[ts, firsts[ts, vs]])
        else:  # "needs": full ordered message list (LOCAL contention)
            msg = self.msg
            resolve = self.model.resolve
            for t, v in zip(ts.tolist(), vs.tolist()):
                fb[t, v] = resolve(_cell_messages(masked[t, v], msg[t]))

    def _truncate_hist(self, next_round: int) -> None:
        """Drop history rounds no in-flight collecting run still needs."""
        collecting = (self.st == _LISTEN) | (self.st == _DUPLEX)
        if collecting.any():
            keep_from = int(self.run_start[collecting].min())
        else:
            keep_from = next_round
        drop = keep_from - self.hist_base
        if drop > 0:
            del self.hist[:drop]
            self.hist_base = keep_from

    # --- results --------------------------------------------------------

    def results(self) -> List[SimResult]:
        N = self.N
        finish = self.finish.tolist()
        durations = self.duration.tolist()
        entries = self.entries
        sends = self.e_send.tolist()
        listens = self.e_listen.tolist()
        duplex = self.e_duplex.tolist()
        last = self.e_last.tolist()
        out = []
        for t, seed in enumerate(self.seeds):
            srow, lrow, drow, arow = sends[t], listens[t], duplex[t], last[t]
            energy = [
                EnergyReport(
                    sends=srow[v],
                    listens=lrow[v],
                    duplex=drow[v],
                    total=srow[v] + lrow[v] + drow[v],
                    last_active_slot=arow[v],
                )
                for v in range(N)
            ]
            out.append(SimResult(
                outputs=self.outputs[t],
                energy=energy,
                finish_slot=finish[t],
                duration=durations[t],
                trace=None,
                seed=seed,
                gen_entries=entries[t],
            ))
        return out


def run_trials_soa(
    simulator: Simulator,
    protocol_factory: ProtocolFactory,
    seeds: Sequence[int],
    inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    *,
    trial_models: Optional[Sequence[Any]] = None,
    trial_churn: Optional[Sequence[CrashSchedule]] = None,
) -> List[SimResult]:
    """Run one cell's seeds through the SoA batched executor.

    Called by the lock-step dispatch in :func:`repro.sim.batch.run_trials`
    after :func:`soa_fallback_reason` admitted the batch.  ``simulator``
    is the batch's prepared engine: its graph, shared model, trial
    setup, slot budget and (numpy) backend.
    ``trial_models`` (when given) are the per-trial models — uniform
    ``LossyModel`` wrappers over one shared stock inner, run via
    vectorized drop masks.  ``trial_churn`` (when given) holds each trial's
    :class:`~repro.sim.faults.CrashSchedule`, asked per round which
    active cells are down.  Results are byte-identical to the serial
    engine, in ``seeds`` order.
    """
    engine = _SoAEngine(
        simulator, protocol_factory, seeds, inputs,
        trial_models=trial_models, trial_churn=trial_churn,
    )
    engine.run()
    return engine.results()
