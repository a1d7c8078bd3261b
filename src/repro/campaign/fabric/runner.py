"""The fabric executor: fault-tolerant, observable campaign runs.

``run_campaigns_fabric`` runs one or more campaigns on one worker pool;
``run_campaign_fabric`` is its one-campaign call.  Each campaign is
planned by :func:`repro.campaign.runner.plan_pending`, the serial
runner's planning door, so it dispatches the identical pending cells.
The pending blocks of all campaigns are then grouped by
:func:`~repro.campaign.registry.simulation_key`: blocks that are the
same simulation (``path`` and ``lb-path`` at one size, say, or the
``decay`` cells two campaigns share) become one *fused* block that
runs each seed of its members' union once.  Fused blocks keep plan
order: manifest order, then config order.  The run has a repair loop:

* **work queue** — fused blocks are dispatched to persistent workers
  (spawned once, fed via queues, each reporting on its own result
  pipe); a finished worker immediately receives the next ready block;
* **liveness** — a worker is declared dead when its process is gone,
  its heartbeat goes stale, or its block blows a generous wall-clock
  budget; the parent SIGKILLs it, spawns a replacement, and requeues
  the block;
* **retry with backoff** — a failed block (worker crash *or* cells
  that recorded ``error``/``timeout``) is retried up to ``retries``
  times, waiting ``backoff * 2^attempt`` seconds between attempts, and
  retrying only the still-failing cells;
* **quarantine** — a block that exhausts its retry budget is recorded
  as ``status="quarantined"`` cells (a non-``ok`` status, so the next
  run retries them) and the sweep *continues* instead of aborting.

Bookkeeping stays per campaign: each keeps its own store, counts,
retries, quarantine records, :class:`FabricRunReport` and events ledger
(:mod:`repro.campaign.fabric.events`).  A fused block appears in each
member campaign's ledger with only that campaign's cells and their
share of the elapsed time; worker births and deaths go to every
ledger.  Workers send each block's records back on their result pipe,
and this parent is the only writer of every store: it appends a
block's records to each member campaign's store before it counts them
or writes ``block_completed``, so every block the ledger reports as
completed is durable, even if the parent is killed the next moment.
A block still running when the parent dies is recomputed on resume.

The run's dispatch values — ``workers``, ``retries``, ``heartbeat``
and the per-cell ``timeout`` — are one
:class:`~repro.campaign.runner.RunnerOptions`, checked before anything
is written.  With ``workers <= 1`` the same plan and
retry/quarantine/events semantics run in-process (no pool) — this is
also what ``campaign run-all`` uses by default.  The serial runner,
which runs every block on its own, remains the differential oracle: a
fabric run's aggregates are byte-identical to its, crashes and all
(pinned by the fault-injection suite).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.fabric.events import EventLog
from repro.campaign.fabric.workers import WorkerHandle, fabric_context
from repro.campaign.registry import simulation_key
from repro.campaign.runner import (
    CampaignRunReport,
    RunnerOptions,
    execute_block,
    plan_pending,
)
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CampaignStore,
    make_record,
)

__all__ = [
    "FabricRunReport",
    "run_campaign_fabric",
    "run_campaigns_fabric",
]


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


#: One member of a fused block: (campaign index, that campaign's block).
_Member = Tuple[int, JobSpec]


@dataclass
class _Assignment:
    """One dispatchable unit: a fused block at a given attempt."""

    block_id: int
    members: List[_Member]
    attempt: int = 0
    ready_at: float = 0.0  # monotonic clock

    def distinct_seeds(self) -> int:
        return len({seed for _, job in self.members for seed in job.seeds})

    def payload(self, timeout: Optional[float]) -> Dict:
        return {
            "jobs": [job.to_dict() for _, job in self.members],
            "timeout": timeout,
        }


@dataclass
class _Campaign:
    """One campaign's share of a run: its store, ledger and counts."""

    spec: CampaignSpec
    store: CampaignStore
    events: EventLog
    say: Callable[[str], None]
    prefix: str
    total: int = 0
    pending_cells: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    retry_count: int = 0
    quarantined: int = 0
    failed_jobs: List[Dict] = field(default_factory=list)
    finished: Optional[float] = None  # monotonic time of its last cell

    def count(self, status: str, amount: int = 1) -> None:
        self.counts[status] = self.counts.get(status, 0) + amount

    def tag(self, job: JobSpec, seed: int) -> str:
        return f"{self.prefix}{job.row}/n={job.size}/seed={seed}"

    def completed(self, block_id: int, worker: int, parts) -> None:
        """Count and log this campaign's cells of a finished block;
        ``parts`` pairs each of its members with its records."""
        records = [record for _, member in parts for record in member]
        ok = [record for record in records if record["status"] == STATUS_OK]
        self.count(STATUS_OK, len(ok))
        for job, member in parts:
            for record in member:
                if record["status"] == STATUS_OK:
                    self.say(
                        f"  ok {self.tag(job, record['job']['seed'])} "
                        f"({record['elapsed']:.2f}s)"
                    )
        self.events.emit(
            "block_completed",
            block=block_id,
            worker=worker,
            ok=len(ok),
            failed=len(records) - len(ok),
            elapsed=round(sum(record["elapsed"] for record in records), 3),
        )
        self.finished = time.monotonic()

    def quarantine(self, block_id: int, jobs: List[JobSpec], reason: str,
                   attempts: int) -> None:
        cells = [cell for job in jobs for cell in job.cells()]
        self.store.append_many([
            make_record(
                cell.key(), cell.to_dict(), STATUS_QUARANTINED,
                error=f"quarantined after {attempts} attempt(s): {reason}",
            )
            for cell in cells
        ])
        self.count(STATUS_QUARANTINED, len(cells))
        self.quarantined += len(cells)
        self.failed_jobs.extend(cell.to_dict() for cell in cells)
        self.events.emit(
            "block_quarantined", block=block_id, reason=reason,
            cells=len(cells),
        )
        self.say(
            f"  QUARANTINE block {block_id} ({_describe(self.prefix, jobs)}, "
            f"{len(cells)} cell(s)): {reason}"
        )
        self.finished = time.monotonic()

    def elapsed(self, start: float) -> float:
        """Seconds from the run's start to this campaign's last cell."""
        return (self.finished or start) - start

    def report(
        self, start: float, workers: int, workers_died: int
    ) -> FabricRunReport:
        return FabricRunReport(
            total=self.total,
            skipped=self.total - self.pending_cells,
            ran=sum(self.counts.values()),
            ok=self.counts.get(STATUS_OK, 0),
            errors=self.counts.get("error", 0),
            timeouts=self.counts.get("timeout", 0),
            elapsed=self.elapsed(start),
            failed_jobs=self.failed_jobs,
            quarantined=self.quarantined,
            retries=self.retry_count,
            workers=workers,
            workers_died=workers_died,
        )


def _describe(prefix: str, jobs: Sequence[JobSpec]) -> str:
    rows = "+".join(job.row for job in jobs)
    return f"{prefix}{rows}/n={jobs[0].size}"


def _by_campaign(members: Sequence[_Member]) -> Dict[int, List[JobSpec]]:
    """An assignment's member blocks grouped by campaign."""
    parts: Dict[int, List[JobSpec]] = {}
    for index, job in members:
        parts.setdefault(index, []).append(job)
    return parts


class _Bookkeeper:
    """Dispatch, retry and quarantine logic shared by both paths.

    Decisions are per fused block — a lost block retries whole, failed
    cells retry as one smaller block — while counts, records and ledger
    lines go to each member's own campaign.
    """

    def __init__(
        self,
        campaigns: List[_Campaign],
        say: Callable[[str], None],
        retries: int,
        backoff: float,
    ) -> None:
        self.campaigns = campaigns
        self.say = say
        self.retries = retries
        self.backoff = backoff
        self.requeued: List[_Assignment] = []

    def emit_all(self, ev: str, **fields) -> None:
        """A pool-level fact (worker lifecycle) goes to every ledger."""
        for campaign in self.campaigns:
            campaign.events.emit(ev, **fields)

    def dispatched(self, assignment: _Assignment, worker: int) -> None:
        for index, jobs in _by_campaign(assignment.members).items():
            self.campaigns[index].events.emit(
                "block_dispatched",
                block=assignment.block_id,
                worker=worker,
                row="+".join(job.row for job in jobs),
                size=jobs[0].size,
                seeds=sum(len(job.seeds) for job in jobs),
                attempt=assignment.attempt,
            )

    def _schedule_retry(
        self, assignment: _Assignment, members: List[_Member], reason: str
    ) -> None:
        attempt = assignment.attempt + 1
        delay = self.backoff * (2 ** assignment.attempt)
        self.requeued.append(_Assignment(
            block_id=assignment.block_id,
            members=members,
            attempt=attempt,
            ready_at=time.monotonic() + delay,
        ))
        for index, jobs in _by_campaign(members).items():
            campaign = self.campaigns[index]
            campaign.retry_count += 1
            campaign.events.emit(
                "block_retried",
                block=assignment.block_id,
                attempt=attempt,
                reason=reason,
                backoff=round(delay, 3),
            )
            campaign.say(
                f"  RETRY block {assignment.block_id} "
                f"({_describe(campaign.prefix, jobs)}, "
                f"{sum(len(job.seeds) for job in jobs)} seed(s), "
                f"attempt {attempt}/{self.retries}): {reason}"
            )

    def block_done(
        self, assignment: _Assignment, records, worker: int
    ) -> None:
        """A block completed: make its records durable in each member
        campaign's store, then count the ok cells and retry or finalize
        the failed ones.

        ``records`` holds one list of store records per member, in
        member order, as :func:`~repro.campaign.runner.execute_block`
        returns them.
        """
        parts: Dict[int, List] = {}
        failing: List[Tuple[_Member, List[Tuple[int, str]]]] = []
        for member, member_records in zip(assignment.members, records):
            index, job = member
            self.campaigns[index].store.append_many(member_records)
            parts.setdefault(index, []).append((job, member_records))
            failed = [
                (record["job"]["seed"], record["status"])
                for record in member_records
                if record["status"] != STATUS_OK
            ]
            if failed:
                failing.append((member, failed))
        for index, campaign_parts in parts.items():
            self.campaigns[index].completed(
                assignment.block_id, worker, campaign_parts
            )
        if not failing:
            return
        if assignment.attempt < self.retries:
            cells = sum(len(failed) for _, failed in failing)
            kinds = sorted({
                status for _, failed in failing for _, status in failed
            })
            self._schedule_retry(
                assignment,
                [
                    (index, job.with_seeds([seed for seed, _ in failed]))
                    for (index, job), failed in failing
                ],
                f"{cells} cell(s) failed ({', '.join(kinds)})",
            )
            return
        for (index, job), failed in failing:
            campaign = self.campaigns[index]
            for seed, status in failed:
                campaign.count(status)
                campaign.failed_jobs.append(job.with_seeds([seed]).to_dict())
                campaign.say(f"  {status.upper()} {campaign.tag(job, seed)}")

    def block_lost(self, assignment: _Assignment, reason: str) -> None:
        """A block's worker died under it: retry it, or quarantine its
        remaining cells so the sweep keeps going."""
        if assignment.attempt < self.retries:
            self._schedule_retry(assignment, assignment.members, reason)
            return
        for index, jobs in _by_campaign(assignment.members).items():
            self.campaigns[index].quarantine(
                assignment.block_id, jobs, reason, assignment.attempt + 1
            )


def _fuse(plans: Sequence[Sequence[JobSpec]]) -> List[_Assignment]:
    """Group the campaigns' pending blocks by simulation key.

    A fused block is one key plus its members, in first-appearance
    order; blocks keep plan order (campaign order, then config order),
    each fused block at its first member's place.  Rows without a key
    (custom cells) stand alone.
    """
    assignments: List[_Assignment] = []
    by_key: Dict[Tuple, _Assignment] = {}
    for index, pending in enumerate(plans):
        for block in pending:
            key = simulation_key(block.row, block.size, block.options_dict)
            if key is not None and key in by_key:
                by_key[key].members.append((index, block))
                continue
            assignment = _Assignment(
                block_id=len(assignments), members=[(index, block)]
            )
            assignments.append(assignment)
            if key is not None:
                by_key[key] = assignment
    return assignments


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
    on the fault-tolerant fabric: the one-campaign call of
    :func:`run_campaigns_fabric`."""
    return run_campaigns_fabric(
        [(spec, store, events_path)],
        workers=workers, timeout=timeout, retries=retries,
        heartbeat=heartbeat, backoff=backoff, progress=progress,
    )[0]


def run_campaigns_fabric(
    campaigns: Sequence[Tuple[CampaignSpec, CampaignStore, Optional[str]]],
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    heartbeat: Optional[float] = None,
    backoff: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
) -> List[FabricRunReport]:
    """Execute every not-yet-completed cell of each ``(spec, store,
    events_path)`` campaign on one fault-tolerant pool; returns one
    report per campaign, in order.

    Cells that are the same simulation run once, and each campaign's
    store still gets its own records.  ``workers``/``retries``/
    ``heartbeat``/``timeout`` are checked as
    :class:`~repro.campaign.runner.RunnerOptions` before anything is
    written; None takes the option's default.  A campaign's events
    ledger goes to its ``events_path`` (default:
    ``<store dir>/events.jsonl``).  ``backoff`` is the base of the
    exponential retry delay — tests shrink it; the CLI keeps the
    default.  A report's ``elapsed`` runs from the pool's start to the
    campaign's last cell.
    """
    say = progress or (lambda message: None)
    runner = RunnerOptions.given(
        workers=workers, retries=retries, heartbeat=heartbeat,
        timeout=timeout,
    )
    workers = runner.workers
    seen: Dict[str, str] = {}
    for spec, store, _ in campaigns:
        spec.validate()
        directory = os.path.abspath(os.path.dirname(store.path) or ".")
        if directory in seen:
            raise ValueError(
                f"campaigns {seen[directory]!r} and {spec.name!r} share the "
                f"store directory {directory}; give each its own"
            )
        seen[directory] = spec.name
    runs: List[_Campaign] = []
    plans: List[List[JobSpec]] = []
    for spec, store, events_path in campaigns:
        out_dir = os.path.dirname(store.path) or "."
        run = _Campaign(
            spec=spec,
            store=store,
            events=EventLog(
                events_path if events_path is not None
                else os.path.join(out_dir, "events.jsonl")
            ),
            say=say,
            prefix=f"{spec.name}:" if len(campaigns) > 1 else "",
        )
        run.total, pending = plan_pending(spec, store.completed_keys())
        run.pending_cells = sum(len(block.seeds) for block in pending)
        say(
            f"campaign {spec.name}: {run.total} cells, "
            f"{run.total - run.pending_cells} cached, {run.pending_cells} "
            f"to run in {len(pending)} block(s) on {workers} worker(s)"
        )
        run.events.emit(
            "run_started",
            campaign=spec.name,
            total=run.total,
            cached=run.total - run.pending_cells,
            pending=run.pending_cells,
            workers=workers,
        )
        runs.append(run)
        plans.append(pending)
    waiting = _fuse(plans)
    blocks = sum(len(pending) for pending in plans)
    if len(waiting) < blocks:
        say(f"fused {blocks} block(s) into {len(waiting)}")
    start = time.monotonic()
    books = _Bookkeeper(runs, say, runner.retries, backoff)
    workers_died = 0
    try:
        if workers <= 1 or len(waiting) <= 1:
            _run_inline(waiting, books, timeout)
        else:
            workers_died = _run_pool(
                waiting, books, timeout, min(workers, len(waiting)),
                runner.heartbeat,
            )
    finally:
        for run in runs:
            run.events.emit(
                "run_completed",
                ok=run.counts.get(STATUS_OK, 0),
                errors=run.counts.get("error", 0),
                timeouts=run.counts.get("timeout", 0),
                quarantined=run.quarantined,
                retries=run.retry_count,
                elapsed=round(run.elapsed(start), 3),
            )
            run.events.close()
    return [run.report(start, workers, workers_died) for run in runs]


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


def _run_inline(
    waiting: List[_Assignment],
    books: _Bookkeeper,
    timeout: Optional[float],
) -> None:
    """The workers<=1 path: same semantics, no processes."""
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
        books.dispatched(assignment, worker=0)
        books.block_done(
            assignment, execute_block(assignment.payload(timeout)), worker=0
        )


def _run_pool(
    waiting: List[_Assignment],
    books: _Bookkeeper,
    timeout: Optional[float],
    pool_size: int,
    heartbeat: float,
) -> int:
    """The worker-pool path; returns how many workers died."""
    # Imported here: processes that never start a pool (reports, the
    # inline path) skip the module.
    from multiprocessing.connection import wait

    context = fabric_context()
    handles: Dict[int, WorkerHandle] = {}
    next_wid = 0
    workers_died = 0
    # A worker is hung when silent past several beats, or (with a cell
    # timeout set) when its block grossly overruns the alarm budget the
    # worker itself should have enforced.
    grace = max(5.0 * heartbeat, 2.0) if heartbeat else None

    def spawn() -> WorkerHandle:
        nonlocal next_wid
        handle = WorkerHandle(next_wid, context, heartbeat)
        handles[handle.id] = handle
        books.emit_all(
            "worker_born", worker=handle.id, pid=handle.process.pid
        )
        next_wid += 1
        return handle

    def budget_for(assignment: _Assignment) -> Optional[float]:
        if timeout is None:
            return None
        return timeout * assignment.distinct_seeds() * 2.0 + 5.0

    def declare_dead(handle: WorkerHandle, reason: str) -> None:
        nonlocal workers_died
        workers_died += 1
        assignment = handle.assignment
        books.emit_all(
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
                handle.dispatch(assignment, assignment.payload(timeout))
                books.dispatched(assignment, worker=handle.id)
            # Drain worker messages (briefly block until one arrives).
            # A pipe at end-of-file leaves the wait set; the liveness
            # check below then finds its worker gone.
            pipes = {h.conn: h for h in handles.values() if not h.eof}
            for conn in wait(list(pipes), timeout=0.05):
                handle = pipes[conn]
                for message in handle.receive():
                    if message[0] != "done":
                        continue
                    _, wid, block_id, records = message
                    assignment = handle.assignment
                    if assignment is None or assignment.block_id != block_id:
                        continue
                    handle.clear()
                    books.block_done(assignment, records, worker=wid)
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
            handle.conn.close()
    return workers_died
