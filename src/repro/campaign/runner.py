"""Campaign executor: run seed blocks in-process, persist cells.

One dispatch unit = one (row, size) *seed block*; one stored record =
one (row, size, seed) cell.  The runner

* skips every cell whose content-hash key already has an ``ok`` record
  in the store and dispatches only each block's missing seeds
  (resumability / caching — re-runs compute only the delta),
* batches: a block's seeds share one prepared engine
  (:func:`repro.campaign.registry.execute_cell_block`), amortizing
  graph and setup cost exactly like the serial sweep's ``run_cells``,
* isolates failures: a multi-seed block that raises or times out is
  re-executed seed by seed so one bad cell cannot poison its
  blockmates; a failing cell is recorded as ``status=error`` /
  ``status=timeout`` and the campaign continues,
* enforces a per-*cell* wall-clock timeout via ``SIGALRM`` inside the
  worker process (a block's budget is ``timeout * len(seeds)``), so
  one diverging protocol cannot wedge the sweep.

This serial runner is the differential oracle for the worker fabric
(:mod:`repro.campaign.fabric`), which runs the same blocks through the
same :func:`execute_job` on persistent worker processes.
"""

from __future__ import annotations

import math
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CampaignStore,
    make_record,
)

__all__ = [
    "CellTimeout",
    "CampaignRunReport",
    "execute_job",
    "plan_pending",
    "run_campaign",
]


def plan_pending(spec: CampaignSpec, done) -> "tuple[int, List[JobSpec]]":
    """Resolve a spec against completed keys: ``(total_cells, blocks)``.

    Overlapping row entries can name the same cell twice; each unique
    key is counted and executed once (aggregation dedupes the same
    way).  Each returned block carries only its not-yet-done seeds, so
    resuming a half-finished campaign re-runs exactly the missing
    cells.  Shared by the serial runner and the fabric executor —
    one planning door guarantees both dispatch the identical work-set.
    """
    seen = set()
    total_cells = 0
    pending: List[JobSpec] = []
    for block in spec.job_blocks():
        missing = []
        for cell, key in zip(block.cells(), block.cell_keys()):
            if key in seen:
                continue
            seen.add(key)
            total_cells += 1
            if key not in done:
                missing.append(cell.seed)
        if missing:
            pending.append(block.with_seeds(missing))
    return total_cells, pending


class CellTimeout(RuntimeError):
    """A cell exceeded its per-job wall-clock budget."""


@dataclass
class CampaignRunReport:
    """What one ``run_campaign`` invocation did.

    ``ran`` counts cells that actually produced a record this run.
    """

    total: int
    skipped: int
    ran: int
    ok: int
    errors: int
    timeouts: int
    elapsed: float
    failed_jobs: List[Dict] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.errors == 0 and self.timeouts == 0

    def summary(self) -> str:
        return (
            f"{self.total} cells: {self.skipped} cached, {self.ok} computed, "
            f"{self.errors} errors, {self.timeouts} timeouts "
            f"({self.elapsed:.1f}s)"
        )


def _alarm_handler(signum, frame):
    raise CellTimeout("cell exceeded its time budget")


class _Alarm:
    """SIGALRM budget as a context manager; inert off-main-thread or
    when no budget is given."""

    def __init__(self, budget: Optional[float]) -> None:
        self.budget = budget
        self.armed = False
        self.previous = None

    def __enter__(self) -> "_Alarm":
        if self.budget and hasattr(signal, "SIGALRM"):
            try:
                self.previous = signal.signal(signal.SIGALRM, _alarm_handler)
                signal.alarm(max(1, math.ceil(self.budget)))
                self.armed = True
            except ValueError:  # not the main thread: run without a budget
                self.armed = False
        return self

    def disarm(self) -> None:
        """Stop the clock early (the work is done; don't let the alarm
        fire while records are being assembled)."""
        if self.armed:
            signal.alarm(0)

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, self.previous)
        return None


def _execute_cell_job(job: JobSpec, timeout: Optional[float]) -> Dict:
    """Run one single-seed cell under its own alarm; never raises."""
    key = job.key()
    start = time.monotonic()
    try:
        with _Alarm(timeout) as alarm:
            from repro.campaign.registry import execute_cell

            cell = execute_cell(job.row, job.size, job.seed, job.options_dict)
            alarm.disarm()
        return make_record(
            key, job.to_dict(), STATUS_OK,
            result=cell.to_dict(), elapsed=time.monotonic() - start,
        )
    except CellTimeout:
        return make_record(
            key, job.to_dict(), STATUS_TIMEOUT,
            error=f"timed out after {timeout}s",
            elapsed=time.monotonic() - start,
        )
    except Exception:
        return make_record(
            key, job.to_dict(), STATUS_ERROR,
            error=traceback.format_exc(limit=20),
            elapsed=time.monotonic() - start,
        )


def execute_job(payload: Dict) -> List[Dict]:
    """Run one job (a single cell or a seed block) and wrap every cell's
    outcome in a store record.

    The one block executor: the serial runner calls it in-process and
    the fabric's workers call it in theirs.  Never raises —
    failures become ``error``/``timeout`` records.  A multi-seed block
    first runs batched on one prepared engine (budget: per-cell timeout
    x block size); if anything in the batch fails, it falls back to
    seed-by-seed execution so the failure is pinned to the cell that
    caused it and healthy blockmates still complete.
    """
    job = JobSpec.from_dict(payload["job"])
    timeout = payload.get("timeout")
    if len(job.seeds) == 1:
        return [_execute_cell_job(job, timeout)]
    start = time.monotonic()
    try:
        with _Alarm(timeout * len(job.seeds) if timeout else None) as alarm:
            from repro.campaign.registry import execute_cell_block

            cells = execute_cell_block(
                job.row, job.size, job.seeds, job.options_dict
            )
            alarm.disarm()
    except Exception:  # includes CellTimeout: isolate per seed
        return [_execute_cell_job(cell, timeout) for cell in job.cells()]
    per_cell = (time.monotonic() - start) / len(job.seeds)
    return [
        make_record(
            cell_job.key(), cell_job.to_dict(), STATUS_OK,
            result=cell.to_dict(), elapsed=per_cell,
        )
        for cell_job, cell in zip(job.cells(), cells)
    ]


def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignRunReport:
    """Execute every not-yet-completed cell of ``spec`` into ``store``.

    Work is dispatched as (row, size) seed blocks; each block carries
    only the seeds whose cells are not yet completed, so resuming a
    half-finished campaign re-runs exactly the missing cells.
    """
    spec.validate()
    say = progress or (lambda message: None)
    total_cells, pending = plan_pending(spec, store.completed_keys())
    pending_cells = sum(len(block.seeds) for block in pending)
    say(
        f"campaign {spec.name}: {total_cells} cells, "
        f"{total_cells - pending_cells} cached, {pending_cells} to run "
        f"in {len(pending)} block(s)"
    )
    start = time.monotonic()
    counts = {STATUS_OK: 0, STATUS_ERROR: 0, STATUS_TIMEOUT: 0}
    failed: List[Dict] = []
    for block in pending:
        payload = {"job": block.to_dict(), "timeout": timeout}
        for record in execute_job(payload):
            store.append(record)
            counts[record["status"]] = counts.get(record["status"], 0) + 1
            job = record["job"]
            tag = f"{job['row']}/n={job['size']}/seed={job['seed']}"
            if record["status"] == STATUS_OK:
                say(f"  ok {tag} ({record['elapsed']:.2f}s)")
            else:
                failed.append(job)
                say(f"  {record['status'].upper()} {tag}")

    return CampaignRunReport(
        total=total_cells,
        skipped=total_cells - pending_cells,
        ran=sum(counts.values()),
        ok=counts[STATUS_OK],
        errors=counts[STATUS_ERROR],
        timeouts=counts[STATUS_TIMEOUT],
        elapsed=time.monotonic() - start,
        failed_jobs=failed,
    )
