"""The fabric executor: fault-tolerant, observable campaign runs.

``run_campaign_fabric`` executes the same work-set as the serial
:func:`repro.campaign.runner.run_campaign` (the two share
:func:`~repro.campaign.runner.plan_pending`, so they dispatch the
identical pending blocks) but through persistent worker processes with
a repair loop:

* **work queue** — pending seed blocks are dispatched to persistent
  workers (spawned once, fed via queues); a finished worker immediately
  receives the next ready block;
* **liveness** — a worker is declared dead when its process is gone,
  its heartbeat goes stale, or its block blows a generous wall-clock
  budget; the parent SIGKILLs it, spawns a replacement, and requeues
  the block;
* **retry with backoff** — a failed block (worker crash *or* cells
  that recorded ``error``/``timeout``) is retried up to ``retries``
  times, waiting ``backoff * 2^attempt`` seconds between attempts, and
  retrying only the still-failing seeds;
* **quarantine** — a block that exhausts its retry budget is recorded
  as ``status="quarantined"`` cells (a non-``ok`` status, so the next
  run retries them) and the sweep *continues* instead of aborting.

Results flow through per-worker shards
(:mod:`repro.campaign.fabric.shards`) and are folded into the canonical
store when the run ends — and adopted at start-up if a previous run
died with unmerged shards.  Every dispatch-level fact lands in the
events ledger (:mod:`repro.campaign.fabric.events`).

With ``workers <= 1`` the same retry/quarantine/events semantics run
in-process (no pool, no shards) — this is also what ``campaign
run-all`` uses by default.  The serial runner remains the differential
oracle: a fabric run's aggregates are byte-identical to its, crashes
and all (pinned by the fault-injection suite).
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.campaign.fabric.events import EventLog
from repro.campaign.fabric.shards import merge_shards, shard_dir_for
from repro.campaign.fabric.workers import (
    WorkerHandle,
    _soa_reason,
    fabric_context,
)
from repro.campaign.runner import CampaignRunReport, execute_job, plan_pending
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CampaignStore,
    make_record,
)
from repro.sim.config import ExecutionConfig

__all__ = ["FabricRunReport", "run_campaign_fabric"]

_RUNNER_DEFAULTS = {
    spec.name: spec.default
    for spec in ExecutionConfig.field_specs()
    if spec.metadata["runner"]
}


@dataclass
class FabricRunReport(CampaignRunReport):
    """A :class:`CampaignRunReport` plus the fabric's repair accounting."""

    quarantined: int = 0
    retries: int = 0
    workers: int = 1
    workers_died: int = 0

    @property
    def all_ok(self) -> bool:
        return (
            self.errors == 0
            and self.timeouts == 0
            and self.quarantined == 0
        )

    def summary(self) -> str:
        text = (
            f"{self.total} cells: {self.skipped} cached, {self.ok} computed, "
            f"{self.errors} errors, {self.timeouts} timeouts, "
            f"{self.quarantined} quarantined ({self.elapsed:.1f}s, "
            f"{self.workers} worker(s)"
        )
        if self.retries:
            text += f", {self.retries} retries"
        if self.workers_died:
            text += f", {self.workers_died} worker death(s)"
        return text + ")"


@dataclass
class _Assignment:
    """One dispatchable unit: a pending block at a given attempt."""

    block_id: int
    job: JobSpec
    attempt: int = 0
    ready_at: float = 0.0  # monotonic clock


class _Bookkeeper:
    """Counting, retry, and quarantine logic shared by both paths."""

    def __init__(
        self,
        store: CampaignStore,
        events: EventLog,
        say: Callable[[str], None],
        retries: int,
        backoff: float,
    ) -> None:
        self.store = store
        self.events = events
        self.say = say
        self.retries = retries
        self.backoff = backoff
        self.counts: Dict[str, int] = {}
        self.retry_count = 0
        self.quarantined = 0
        self.failed_jobs: List[Dict] = []
        self.requeued: List[_Assignment] = []

    def _count(self, status: str, amount: int = 1) -> None:
        self.counts[status] = self.counts.get(status, 0) + amount

    def _schedule_retry(
        self, assignment: _Assignment, job: JobSpec, reason: str
    ) -> None:
        attempt = assignment.attempt + 1
        delay = self.backoff * (2 ** assignment.attempt)
        self.retry_count += 1
        self.requeued.append(_Assignment(
            block_id=assignment.block_id,
            job=job,
            attempt=attempt,
            ready_at=time.monotonic() + delay,
        ))
        self.events.emit(
            "block_retried",
            block=assignment.block_id,
            attempt=attempt,
            reason=reason,
            backoff=round(delay, 3),
        )
        self.say(
            f"  RETRY block {assignment.block_id} "
            f"({job.row}/n={job.size}, {len(job.seeds)} seed(s), "
            f"attempt {attempt}/{self.retries}): {reason}"
        )

    def block_done(
        self, assignment: _Assignment, statuses, worker: int
    ) -> None:
        """A block completed and its records are durable: count the ok
        cells now, retry or finalize the failed ones.

        ``statuses`` rows are ``(seed, status, elapsed, soa,
        soa_reason)``; the trailing SoA flag and verdict string are
        tolerated missing (older ledger replays and tests that
        hand-build 3- or 4-tuples).
        """
        statuses = [(tuple(row) + (None, None))[:5] for row in statuses]
        ok_seeds = [s for s, status, _, _, _ in statuses if status == STATUS_OK]
        failed = [
            (s, status) for s, status, _, _, _ in statuses
            if status != STATUS_OK
        ]
        self._count(STATUS_OK, len(ok_seeds))
        for seed, status, elapsed, _, _ in statuses:
            tag = f"{assignment.job.row}/n={assignment.job.size}/seed={seed}"
            if status == STATUS_OK:
                self.say(f"  ok {tag} ({elapsed:.2f}s)")
        # Fallback taxonomy: count lock-step cells by SoA verdict string
        # ("ok", "jammer", "burst_loss", ...) so the ledger
        # records *why* vectorization disengaged, not just how often.
        soa_reasons: Dict[str, int] = {}
        for _, _, _, _, reason in statuses:
            if reason is not None:
                soa_reasons[reason] = soa_reasons.get(reason, 0) + 1
        self.events.emit(
            "block_completed",
            block=assignment.block_id,
            worker=worker,
            ok=len(ok_seeds),
            failed=len(failed),
            elapsed=round(sum(e for _, _, e, _, _ in statuses), 3),
            soa=sum(1 for _, _, _, soa, _ in statuses if soa == 1.0),
            soa_reasons=soa_reasons,
        )
        if not failed:
            return
        if assignment.attempt < self.retries:
            self._schedule_retry(
                assignment,
                assignment.job.with_seeds([s for s, _ in failed]),
                f"{len(failed)} cell(s) failed "
                f"({', '.join(sorted({status for _, status in failed}))})",
            )
            return
        for seed, status in failed:
            self._count(status)
            cell = JobSpec(
                row=assignment.job.row, size=assignment.job.size,
                seed=seed, options=assignment.job.options,
            )
            self.failed_jobs.append(cell.to_dict())
            self.say(
                f"  {status.upper()} "
                f"{assignment.job.row}/n={assignment.job.size}/seed={seed}"
            )

    def block_lost(self, assignment: _Assignment, reason: str) -> None:
        """A block's worker died under it: retry it, or quarantine its
        remaining cells so the sweep keeps going."""
        if assignment.attempt < self.retries:
            self._schedule_retry(assignment, assignment.job, reason)
            return
        cells = list(assignment.job.cells())
        self.store.append_many([
            make_record(
                cell.key(), cell.to_dict(), STATUS_QUARANTINED,
                error=f"quarantined after {assignment.attempt + 1} "
                      f"attempt(s): {reason}",
            )
            for cell in cells
        ])
        self._count(STATUS_QUARANTINED, len(cells))
        self.quarantined += len(cells)
        self.failed_jobs.extend(cell.to_dict() for cell in cells)
        self.events.emit(
            "block_quarantined",
            block=assignment.block_id,
            reason=reason,
            cells=len(cells),
        )
        self.say(
            f"  QUARANTINE block {assignment.block_id} "
            f"({assignment.job.row}/n={assignment.job.size}, "
            f"{len(cells)} cell(s)): {reason}"
        )


def _pop_ready(waiting: List[_Assignment], limit: int) -> List[_Assignment]:
    """Remove and return up to ``limit`` dispatchable assignments."""
    now = time.monotonic()
    ready = sorted(
        (a for a in waiting if a.ready_at <= now),
        key=lambda a: (a.attempt, a.block_id),
    )[:limit]
    for assignment in ready:
        waiting.remove(assignment)
    return ready


def run_campaign_fabric(
    spec: CampaignSpec,
    store: CampaignStore,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    heartbeat: Optional[float] = None,
    backoff: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
    events_path: Optional[str] = None,
) -> FabricRunReport:
    """Execute every not-yet-completed cell of ``spec`` into ``store``
    on the fault-tolerant fabric.

    ``workers``/``retries``/``heartbeat`` default to the matching
    :class:`~repro.sim.config.ExecutionConfig` field defaults.  The
    events ledger goes to ``events_path`` (default:
    ``<store dir>/events.jsonl``).  ``backoff`` is the base of the
    exponential retry delay — tests shrink it; the CLI keeps the
    default.
    """
    spec.validate()
    say = progress or (lambda message: None)
    workers = _RUNNER_DEFAULTS["workers"] if workers is None else int(workers)
    retries = _RUNNER_DEFAULTS["retries"] if retries is None else int(retries)
    heartbeat = (
        _RUNNER_DEFAULTS["heartbeat"] if heartbeat is None else float(heartbeat)
    )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out_dir = os.path.dirname(store.path) or "."
    shard_dir = shard_dir_for(store)
    # Adopt whatever an aborted previous run computed before it died;
    # the resume plan below then covers only the true delta.
    leftovers = merge_shards(store, shard_dir)
    if leftovers["records"]:
        say(
            f"adopted {leftovers['records']} record(s) from "
            f"{leftovers['shards']} leftover shard(s)"
        )
    events = EventLog(
        events_path if events_path is not None
        else os.path.join(out_dir, "events.jsonl")
    )
    total_cells, pending = plan_pending(spec, store.completed_keys())
    pending_cells = sum(len(block.seeds) for block in pending)
    say(
        f"campaign {spec.name}: {total_cells} cells, "
        f"{total_cells - pending_cells} cached, {pending_cells} to run "
        f"in {len(pending)} block(s) on {workers} worker(s)"
    )
    events.emit(
        "run_started",
        campaign=spec.name,
        total=total_cells,
        cached=total_cells - pending_cells,
        pending=pending_cells,
        workers=workers,
    )
    start = time.monotonic()
    books = _Bookkeeper(store, events, say, retries, backoff)
    waiting = [
        _Assignment(block_id=index, job=block)
        for index, block in enumerate(pending)
    ]
    workers_died = 0
    try:
        if workers <= 1 or len(pending) <= 1:
            _run_inline(waiting, books, events, timeout, store)
        else:
            workers_died = _run_pool(
                waiting, books, events, timeout, store, shard_dir,
                min(workers, len(pending)), heartbeat,
            )
    finally:
        merge_shards(store, shard_dir)
        elapsed = time.monotonic() - start
        events.emit(
            "run_completed",
            ok=books.counts.get(STATUS_OK, 0),
            errors=books.counts.get("error", 0),
            timeouts=books.counts.get("timeout", 0),
            quarantined=books.quarantined,
            retries=books.retry_count,
            elapsed=round(elapsed, 3),
        )
        events.close()
    return FabricRunReport(
        total=total_cells,
        skipped=total_cells - pending_cells,
        ran=sum(books.counts.values()),
        ok=books.counts.get(STATUS_OK, 0),
        errors=books.counts.get("error", 0),
        timeouts=books.counts.get("timeout", 0),
        elapsed=time.monotonic() - start,
        failed_jobs=books.failed_jobs,
        quarantined=books.quarantined,
        retries=books.retry_count,
        workers=workers,
        workers_died=workers_died,
    )


def _run_inline(
    waiting: List[_Assignment],
    books: _Bookkeeper,
    events: EventLog,
    timeout: Optional[float],
    store: CampaignStore,
) -> None:
    """The workers<=1 path: same semantics, no processes, no shards."""
    while waiting or books.requeued:
        waiting.extend(books.requeued)
        books.requeued = []
        ready = _pop_ready(waiting, limit=1)
        if not ready:
            time.sleep(min(
                0.05,
                max(0.0, min(a.ready_at for a in waiting) - time.monotonic()),
            ) or 0.01)
            continue
        assignment = ready[0]
        events.emit(
            "block_dispatched",
            block=assignment.block_id,
            worker=0,
            row=assignment.job.row,
            size=assignment.job.size,
            seeds=len(assignment.job.seeds),
            attempt=assignment.attempt,
        )
        records = execute_job(
            {"job": assignment.job.to_dict(), "timeout": timeout}
        )
        store.append_many(records)
        books.block_done(
            assignment,
            [
                (
                    r["job"]["seed"],
                    r["status"],
                    r["elapsed"],
                    r.get("result", {}).get("extras", {}).get("soa"),
                    _soa_reason(r.get("result", {}).get("extras", {})),
                )
                for r in records
            ],
            worker=0,
        )


def _run_pool(
    waiting: List[_Assignment],
    books: _Bookkeeper,
    events: EventLog,
    timeout: Optional[float],
    store: CampaignStore,
    shard_dir: str,
    pool_size: int,
    heartbeat: float,
) -> int:
    """The worker-pool path; returns how many workers died."""
    context = fabric_context()
    result_queue = context.Queue()
    handles: Dict[int, WorkerHandle] = {}
    next_wid = 0
    workers_died = 0
    # A worker is hung when silent past several beats, or (with a cell
    # timeout set) when its block grossly overruns the alarm budget the
    # worker itself should have enforced.
    grace = max(5.0 * heartbeat, 2.0) if heartbeat else None

    def spawn() -> WorkerHandle:
        nonlocal next_wid
        handle = WorkerHandle(
            next_wid, context, result_queue, shard_dir, heartbeat
        )
        handles[handle.id] = handle
        events.emit("worker_born", worker=handle.id, pid=handle.process.pid)
        next_wid += 1
        return handle

    def budget_for(assignment: _Assignment) -> Optional[float]:
        if timeout is None:
            return None
        return timeout * len(assignment.job.seeds) * 2.0 + 5.0

    def declare_dead(handle: WorkerHandle, reason: str) -> None:
        nonlocal workers_died
        workers_died += 1
        assignment = handle.assignment
        events.emit(
            "worker_died",
            worker=handle.id,
            reason=reason,
            block=assignment.block_id if assignment else None,
        )
        books.say(f"  worker {handle.id} died: {reason}")
        handle.kill()
        del handles[handle.id]
        if assignment is not None:
            books.block_lost(assignment, reason)

    for _ in range(pool_size):
        spawn()
    try:
        while True:
            waiting.extend(books.requeued)
            books.requeued = []
            busy = [h for h in handles.values() if h.busy]
            if not waiting and not busy:
                break
            # Dispatch ready blocks to idle, live workers.
            idle = [
                h for h in handles.values() if not h.busy and h.alive()
            ]
            for handle, assignment in zip(
                idle, _pop_ready(waiting, limit=len(idle))
            ):
                handle.dispatch(
                    assignment,
                    {"job": assignment.job.to_dict(), "timeout": timeout},
                )
                events.emit(
                    "block_dispatched",
                    block=assignment.block_id,
                    worker=handle.id,
                    row=assignment.job.row,
                    size=assignment.job.size,
                    seeds=len(assignment.job.seeds),
                    attempt=assignment.attempt,
                )
            # Drain worker messages (briefly block on the first).
            first = True
            while True:
                try:
                    message = result_queue.get(timeout=0.05 if first else 0.0)
                except queue_mod.Empty:
                    break
                first = False
                tag, wid = message[0], message[1]
                handle = handles.get(wid)
                if handle is None:
                    continue  # stale message from a replaced worker
                handle.last_seen = time.monotonic()
                if tag == "done":
                    _, _, block_id, statuses = message
                    assignment = handle.assignment
                    if assignment is None or assignment.block_id != block_id:
                        continue
                    handle.clear()
                    books.block_done(assignment, statuses, worker=wid)
            # Liveness: death, stale heartbeat, blown budget.
            now = time.monotonic()
            for handle in list(handles.values()):
                if not handle.busy:
                    if not handle.alive():
                        declare_dead(handle, "exited while idle")
                    continue
                budget = budget_for(handle.assignment)
                if not handle.alive():
                    declare_dead(handle, "worker process died")
                elif grace and now - handle.last_seen > grace:
                    declare_dead(
                        handle,
                        f"no heartbeat for {now - handle.last_seen:.1f}s",
                    )
                elif budget and now - handle.dispatched_at > budget:
                    declare_dead(
                        handle,
                        f"block exceeded its {budget:.0f}s wall budget",
                    )
            # Keep the pool at strength while work remains.
            remaining = (
                len(waiting) + len(books.requeued)
                + sum(1 for h in handles.values() if h.busy)
            )
            while len(handles) < min(pool_size, max(remaining, 1)) and remaining:
                spawn()
    finally:
        for handle in handles.values():
            handle.stop()
        deadline = time.monotonic() + 5.0
        for handle in handles.values():
            handle.join(max(0.1, deadline - time.monotonic()))
            if handle.alive():
                handle.kill()
        result_queue.cancel_join_thread()
    return workers_died
