"""Trial-axis struct-of-arrays (SoA) lock-step execution of No-CD batches.

Replaying the serial engine once per seed pays per-trial Python
bookkeeping for every slot of every trial.  This module keeps the
*whole batch* of trials in 2-D numpy arrays indexed ``[trial, node]``
and advances the runs of an SR frame — a few senders burst, every other
node listens until it hears a message — with whole-array operations per
slot:

====================  =====================================================
array                 meaning
====================  =====================================================
``st``      int8      state code: done / send / listen / listen-until /
                      idle
``rem``     int64     slots remaining in the active run (incl. current)
``wake``    int64     wake slot for idle cells (sentinel elsewhere)
``msg``     object    message transmitted by send runs
``e_send``/``e_listen``/``e_last``  int64  energy meters
====================  =====================================================

Per global round, every unfinished trial stages exactly one slot (its
own clock — trials at different slot numbers share a round).  The slot
is resolved through :meth:`repro.sim.resolution.NumpyBackend.
trial_matrix_resolver` — one packbits over the send matrix, one AND +
popcount sweep over the shared uint64 mask table for *all* trials — and
classified by the No-CD rule into a ``[trial, node]`` feedback object
array: a lone transmitter's message, otherwise ``SILENCE``.

What vectorizes is what the lock-step callers batch:

* a ``Repeat(Send)`` burst: one countdown of its ``count`` slots;
* a ``ListenUntil`` window: one countdown, ended early where a cell
  hears a lone transmitter whose message passes ``accept``;
* idles, which sleep until their wake slot.

Every other action is a one-slot run: a plain per-slot yield, or one
slot of a ``Steps`` or ``Repeat(Listen)`` plan.  Python runs only at
*run boundaries* (a run's last slot, an early ``ListenUntil`` match,
idle wake-ups, generator re-entries), where the node hands the slot's
feedback to the same :func:`~repro.sim.plan.plan_feedback` /
:func:`~repro.sim.plan.plan_resume` referee the serial engine uses.  A
boundary reads only its own round's feedback, so no feedback outlives
its round.  A run shape is vectorized only alongside a workload that
measures it (``benchmarks/README.md``).

rng draw-order identity holds by construction: generator entries (the
only rng consumers; a plan draws nothing) happen at exactly the slots
the serial engine performs them.  The differential matrix in
tests/test_lockstep.py pins the results to the serial engine field for
field, plan-emitting and per-slot protocols alike.

Eligibility (:func:`soa_fallback_reason`, the one place it is decided):
numpy importable, ``resolution == "numpy"``, no trace recording, no
jamming, no Gilbert-Elliott burst loss, no observers besides the
engine's own energy meters, and the half-duplex No-CD model — either
as a shared model, or as the one inner model of per-trial
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
``nonzero`` sweep, draws the whole slot's Bernoulli mask in one call,
and classifies the *post-drop* counts.  ``ListenUntil`` early exit
also matches on post-drop counts (a dropped transmission cannot end a
listen).  The consumed rng state is written back into each
``LossyModel`` after the run, so trailing draws continue the serial
stream.

**Churn.**  Each trial carries its own
:class:`~repro.sim.faults.CrashSchedule`.  Per round, every staged
trial asks it which of its active cells are down at the trial's own
slot (:meth:`~repro.sim.faults.CrashSchedule.down_cells`: a loop over
``down`` for drawn schedules, one array expression for
:class:`~repro.sim.faults.PeriodicChurn`).  The round then follows the
serial engine's per-slot order: resolution and the lossy drop draws
see only on-air senders (``sending & ~down``) and live receivers
(``receiving & ~down``), and down receivers hear ``SILENCE``, No-CD's
:func:`~repro.sim.faults.down_feedback`, so ``ListenUntil`` early exit
matches on post-churn counts.  Energy meters, run countdowns and
boundaries keep the attempted rows.
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
from repro.sim.faults import CrashSchedule
from repro.sim.feedback import SILENCE, is_message
from repro.sim.models import NO_CD, ChannelModel, LossyModel
from repro.sim.plan import (
    OP_SEND,
    OP_UNTIL,
    Plan,
    exact_action,
    plan_feedback,
    plan_resume,
    start_plan,
)
from repro.sim.resolution import NumpyBackend, _numpy

# numpy, bound when the first SoA batch starts: importing this module
# does not import numpy.
_np = None

__all__ = ["run_trials_soa", "soa_fallback_reason"]

# State codes.  The active band [_SEND, _UNTIL] is contiguous so "has
# any staged action" is one range test per cell.
_DONE = 0
_SEND = 1
_LISTEN = 2
_UNTIL = 3
_IDLE = 4

_FAR = 1 << 62  # wake sentinel for cells that are not idle


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
    products, so uniform ``LossyModel`` batches over one shared No-CD
    inner model (vectorized drop masks) are admitted.  The returned
    string lands in ``SimResult.soa_reason`` so fallbacks are
    diagnosable, not silent.
    """
    if config.resolution != "numpy" or not isinstance(backend, NumpyBackend):
        return "resolution"
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
    # Exact type: a subclass may override resolution, and NO_CD_FD
    # admits SendListen, which the engine does not carry.
    if type(model) is not type(NO_CD) or model.full_duplex:
        return "model"
    if observed:
        return "observers"
    return None


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
        global _np
        np = _np = _numpy()
        T = len(seeds)
        N = simulator.graph.n
        self.T = T
        self.N = N
        # ProtocolError messages name each trial's own model (a lossy
        # wrapper's rate is part of its name), as on the serial engine.
        self.model_names = (
            [simulator.model.name] * T if trial_models is None
            else [m.name for m in trial_models]
        )
        self.seeds = list(seeds)
        self.time_limit = simulator.time_limit
        backend = simulator.backend
        self._resolve = backend.trial_matrix_resolver()
        self._firsts = backend.first_transmitter_matrix
        self.lossy_models = (
            list(trial_models) if trial_models is not None else None
        )
        if self.lossy_models is not None:
            self.loss_rates = [float(m.loss_rate) for m in self.lossy_models]
            self._lossy_rs = [
                _transplant_rng(m._rng) for m in self.lossy_models
            ]
        self.churn = list(trial_churn) if trial_churn is not None else None

        self.st = np.zeros((T, N), dtype=np.int8)
        self.rem = np.zeros((T, N), dtype=np.int64)
        self.wake = np.full((T, N), _FAR, dtype=np.int64)
        self.msg = np.empty((T, N), dtype=object)
        self.finish = np.full((T, N), -1, dtype=np.int64)
        self.e_send = np.zeros((T, N), dtype=np.int64)
        self.e_listen = np.zeros((T, N), dtype=np.int64)
        self.e_last = np.full((T, N), -1, dtype=np.int64)
        self.cur = np.zeros(T, dtype=np.int64)
        self.bucket = np.zeros(T, dtype=np.int64)
        self.duration = np.zeros(T, dtype=np.int64)
        self.remaining = np.zeros(T, dtype=np.int64)

        self.plans: List[List[Any]] = [[None] * N for _ in range(T)]
        # Write-combining buffer for _load: per-cell scalar stores into
        # the state arrays are ~1us of numpy dispatch each; batching a
        # whole boundary/wake batch into one fancy-indexed store per
        # array makes run loading O(arrays), not O(cells * arrays).
        self._pend: List[List[Any]] = [[], [], [], [], []]

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
                self._load(t, v, action, 0)
            self.remaining[t] = len(first)
        self._flush()

    # --- per-node boundary machinery (the non-vectorizable states) -----

    def _load(self, t: int, v: int, action, base_slot: int) -> None:
        """Classify an emitted action into array state: start plans
        (consuming their rng at exactly the serial draw point), count
        down a ``Repeat(Send)`` burst or a ``ListenUntil`` window whole,
        and make every other send or listen a one-slot run.  Array
        stores are buffered — callers flush via :meth:`_flush` before
        any array is re-read."""
        while True:
            cls = action.__class__
            if cls is Idle:
                code = _IDLE
                break
            if cls is Send:
                code = _SEND
                self.msg[t, v] = action.message
                break
            if cls is Listen:
                code = _LISTEN
                break
            if cls is SendListen:
                raise ProtocolError(
                    f"SendListen is illegal in the {self.model_names[t]} model"
                )
            if isinstance(action, Plan):
                self.plans[t][v], action = start_plan(action)
                continue
            action = exact_action(action)  # raises for a non-action
        count = 1
        wake = _FAR
        ps = self.plans[t][v]
        if code == _IDLE:
            wake = base_slot + action.duration
        elif ps is not None:
            op = ps[0]
            if op == OP_SEND:
                count = ps[1]
            elif op == OP_UNTIL:
                code = _UNTIL
                count = ps[1]
        pend = self._pend
        pend[0].append(t)
        pend[1].append(v)
        pend[2].append(code)
        pend[3].append(count)
        pend[4].append(wake)

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
        self._pend = [[], [], [], [], []]

    def _wake(self, t: int, v: int, slot: int) -> None:
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
        self._load(t, v, action, slot)

    def _boundaries(self, boundary, fb, cur_list) -> None:
        """Advance every cell whose run ended this round: sync the plan
        counter the arrays counted down, hand the slot's feedback (from
        ``fb``, this round's matrix) to the shared referee, re-enter
        generators at plan exhaustion, and load the next run."""
        np = _np
        bt, bv = np.nonzero(boundary)
        sts = self.st[bt, bv].tolist()
        rems = self.rem[bt, bv].tolist()
        fbs = fb[bt, bv].tolist()
        plans = self.plans
        for t, v, st_cell, rem, fb_cell in zip(
            bt.tolist(), bv.tolist(), sts, rems, fbs
        ):
            slot = cur_list[t]
            if st_cell == _SEND:
                fb_cell = None
            ps = plans[t][v]
            result = fb_cell
            if ps is not None:
                if st_cell == _UNTIL:
                    # rem still holds the slots left including this one
                    # — what plan_feedback expects in ps[1] both at an
                    # early match and at exhaustion.
                    ps[1] = rem
                elif ps[0] == OP_SEND:
                    ps[1] = 1  # the burst's last slot
                action, result = plan_feedback(ps, fb_cell)
                if action is not None:
                    self._load(t, v, action, slot + 1)
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
            self._load(t, v, action, slot + 1)
        self._flush()

    # --- vectorized round machinery ------------------------------------

    def _stage(self):
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
            has_active = ((st >= _SEND) & (st <= _UNTIL)).any(axis=1)
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
                    self._wake(t, v, cand_list[t])
                self._flush()
            if any_late:
                over = beyond | (late & (self.remaining > 0))
                if over.any():
                    t = int(np.nonzero(over)[0][0])
                    raise timeout_error(
                        self.time_limit, int(self.remaining[t]),
                        self.seeds[t],
                    )
            now_active = ((st >= _SEND) & (st <= _UNTIL)).any(axis=1)
            staged |= todo & now_active
            # Trials still all-idle re-lap onto their (strictly later)
            # next wake; finished trials drop out via `alive`.

    def run(self) -> None:
        np = _np
        st = self.st
        rem = self.rem
        while True:
            staged = self._stage()
            if not staged.any():
                break
            run_col = staged[:, None]
            sending = (st == _SEND) & run_col
            receiving = ((st == _LISTEN) | (st == _UNTIL)) & run_col
            active = sending | receiving
            # Churn: resolution sees only on-air senders and classifies
            # only live receivers (a down one hears SILENCE); meters,
            # countdowns and boundaries keep the attempted rows, as in
            # the serial engine.
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
                fb, heard = self._classify_lossy(staged, air, live, masked)
            else:
                fb, heard = self._classify(counts, live, masked)

            cur = self.cur
            self.e_send[sending] += 1
            self.e_listen[receiving] += 1
            np.copyto(self.e_last, cur[:, None], where=active)
            np.maximum(
                self.duration, cur + 1, out=self.duration, where=staged
            )
            self.bucket[staged] = cur[staged] + 1

            boundary = active & (rem == 1)
            matched = self._until_matches((st == _UNTIL) & heard, fb)
            if matched is not None:
                boundary |= matched
            rem[active & ~boundary] -= 1
            if boundary.any():
                self._boundaries(boundary, fb, cur.tolist())
        if self.lossy_models is not None:
            # Leave each trial's channel rng exactly where the serial
            # oracle would: the next draw continues the same stream.
            for m, rs in zip(self.lossy_models, self._lossy_rs):
                _store_rng(m._rng, rs)

    def _until_matches(self, cand, fb):
        """Boolean [T, N] mask of ListenUntil cells whose current
        feedback ends their run early, or None.  ``cand`` holds the
        ListenUntil cells that heard a lone transmitter, the only
        feedback No-CD lets carry a message; each is re-checked
        (is_message + accept), exactly the referee's condition, so a
        ``Send(None)`` cannot fake a match."""
        np = _np
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

    def _classify(self, counts, receiving, masked):
        """This round's ``[T, N]`` feedback matrix under the No-CD rule,
        and the boolean matrix of receivers that heard a lone
        transmitter."""
        np = _np
        fb = np.full(counts.shape, SILENCE, dtype=object)
        heard = receiving & (counts == 1)
        if heard.any():
            firsts = self._firsts(masked, heard)
            ts, vs = np.nonzero(heard)
            fb[ts, vs] = self.msg[ts, firsts[ts, vs]]
        return fb, heard

    def _classify_lossy(self, staged, sending, receiving, masked):
        """Erasure-channel classification: the ``[T, N]`` feedback
        matrix plus the boolean matrix of receivers that heard a lone
        *surviving* transmitter (what ``ListenUntil`` early exit must
        match on).

        Per staged trial, in trial order: enumerate this slot's
        (receiver, sender) reception pairs in serial draw order —
        receivers ascending, senders ascending within each receiver —
        draw the whole slot's Bernoulli mask from the trial's
        transplanted rng in one ``random_sample`` call, then classify
        the surviving counts under the No-CD rule.  Pairs come from
        extracting just the transmitting senders' bit columns out of
        the reception bitmask (columns ascending, so row-major
        ``nonzero`` order *is* the serial order) — never from unpacking
        the full ``N``-bit mask width, which profiles as the round's
        dominant cost on dense cliques.  Zero-pair cells draw nothing,
        exactly like the serial ``LossyModel.resolve([])``.
        """
        np = _np
        fb = np.full((self.T, self.N), SILENCE, dtype=object)
        heard = np.zeros((self.T, self.N), dtype=bool)
        msg = self.msg
        rates = self.loss_rates
        rss = self._lossy_rs
        one = np.uint64(1)
        for t in np.nonzero(staged)[0].tolist():
            rows = np.nonzero(receiving[t])[0]
            if not rows.size:
                continue
            send_idx = np.nonzero(sending[t])[0]
            if not send_idx.size:
                continue
            sub = masked[t][rows]
            bits = (
                sub[:, send_idx >> 6] >> (send_idx & 63).astype(np.uint64)
            ) & one
            pair_row, pair_col = np.nonzero(bits)
            if not pair_row.size:
                continue
            keep = rss[t].random_sample(pair_row.size) >= rates[t]
            kept_rows = pair_row[keep]
            if not kept_rows.size:
                continue  # every cell hears SILENCE
            lone = np.nonzero(np.bincount(kept_rows, minlength=rows.size) == 1)[0]
            if not lone.size:
                continue
            # A lone survivor's row has one kept pair, so this scatter
            # leaves its sender there whatever order duplicates land in.
            sender = np.empty(rows.size, dtype=np.int64)
            sender[kept_rows] = send_idx[pair_col[keep]]
            cells = rows[lone]
            fb[t, cells] = msg[t][sender[lone]]
            heard[t, cells] = True
        return fb, heard

    # --- results --------------------------------------------------------

    def results(self) -> List[SimResult]:
        N = self.N
        finish = self.finish.tolist()
        durations = self.duration.tolist()
        entries = self.entries
        sends = self.e_send.tolist()
        listens = self.e_listen.tolist()
        last = self.e_last.tolist()
        out = []
        for t, seed in enumerate(self.seeds):
            srow, lrow, arow = sends[t], listens[t], last[t]
            energy = [
                EnergyReport(
                    sends=srow[v],
                    listens=lrow[v],
                    duplex=0,
                    total=srow[v] + lrow[v],
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
    ``LossyModel`` wrappers over one shared No-CD inner, run via
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
