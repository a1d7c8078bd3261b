"""Campaign executor: run seed blocks in-process, persist cells.

One dispatch unit = one (row, size) *seed block*; one stored record =
one (row, size, seed) cell.  The runner

* skips every cell whose content-hash key already has an ``ok`` record
  in the store and dispatches only each block's missing seeds
  (resumability / caching — re-runs compute only the delta),
* batches: a block's seeds share one prepared engine
  (:func:`repro.campaign.registry.execute_cell_block`), amortizing
  graph and setup cost through one ``run_cells`` batch,
* isolates failures: a multi-seed block that raises or times out is
  re-executed seed by seed so one bad cell cannot poison its
  blockmates; a failing cell is recorded as ``status=error`` /
  ``status=timeout`` and the campaign continues,
* enforces a per-*cell* wall-clock timeout via ``SIGALRM`` inside the
  worker process (a block's budget is ``timeout * len(seeds)``), so
  one diverging protocol cannot wedge the sweep.

This serial runner runs every block on its own and is the unfused
differential oracle for the worker fabric
(:mod:`repro.campaign.fabric`), which fuses the blocks that are the
same simulation (:func:`repro.campaign.registry.simulation_key`), across
campaigns too, and runs them through the same :func:`execute_block` on
persistent worker processes.

:class:`RunnerOptions` is the one home of the values that steer how a
run dispatches its cells — never what they measure — and
:func:`add_runner_args` is the one definition of their CLI flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import signal
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CampaignStore,
    make_record,
)
from repro.sim.config import ExecutionConfigError

__all__ = [
    "CellTimeout",
    "CampaignRunReport",
    "RunnerOptions",
    "add_runner_args",
    "execute_block",
    "execute_job",
    "plan_pending",
    "run_campaign",
]


def _option(default, kind, help: str):
    return field(default=default, metadata={"type": kind, "help": help})


@dataclass(frozen=True)
class RunnerOptions:
    """How a campaign run dispatches its cells — never what they measure.

    ``workers``, ``retries`` and ``heartbeat`` steer the worker fabric
    (:mod:`repro.campaign.fabric`); ``timeout`` is the per-cell
    wall-clock budget that both runners enforce.  None of them is part
    of a cell's content-hash identity.  Validated on construction
    (raising :class:`~repro.sim.config.ExecutionConfigError`), so a bad
    value fails before anything is planned or written.
    """

    workers: int = _option(
        1, int,
        "campaign fabric worker processes (1 = in-process serial)",
    )
    retries: int = _option(
        2, int,
        "per-block retry budget before the campaign fabric quarantines "
        "the block instead of aborting the sweep",
    )
    heartbeat: float = _option(
        1.0, float,
        "seconds between fabric worker heartbeats; a worker silent for "
        "several beats is declared hung and replaced (0 disables)",
    )
    timeout: Optional[float] = _option(
        None, float, "per-cell wall-clock budget in seconds",
    )

    def __post_init__(self) -> None:
        timeout = self.timeout
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not timeout > 0
            or not math.isfinite(timeout)
        ):
            raise ExecutionConfigError(
                f"timeout must be a finite number of seconds > 0, "
                f"got {timeout!r}"
            )
        for name, minimum in (("workers", 1), ("retries", 0)):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < minimum
            ):
                raise ExecutionConfigError(
                    f"{name} must be an int >= {minimum}, got {value!r}"
                )
        heartbeat = self.heartbeat
        if (
            isinstance(heartbeat, bool)
            or not isinstance(heartbeat, (int, float))
            # NaN fails both bounds; the top one is the longest wait a
            # worker's beat thread can take.
            or not 0 <= heartbeat <= threading.TIMEOUT_MAX
        ):
            raise ExecutionConfigError(
                f"heartbeat must be a number of seconds from 0 (no "
                f"liveness checks) to {threading.TIMEOUT_MAX:.0f}, "
                f"got {heartbeat!r}"
            )

    @classmethod
    def given(cls, **values) -> "RunnerOptions":
        """The options with ``values`` set; a None value takes the
        field's default."""
        return cls(**{
            name: value for name, value in values.items() if value is not None
        })


def add_runner_args(parser: argparse.ArgumentParser):
    """Add the runner flags (``--workers``, ``--retries``,
    ``--heartbeat``, ``--timeout``) to an argparse parser, one per
    :class:`RunnerOptions` field.

    Defaults are None ("not given"): any of the first three engages the
    fabric, and :meth:`RunnerOptions.given` fills in the rest.
    """
    group = parser.add_argument_group(
        "runner",
        "how the campaign dispatches its cells — results are identical "
        "to a serial run (see repro.campaign.fabric)",
    )
    for spec in dataclasses.fields(RunnerOptions):
        default = "none" if spec.default is None else spec.default
        group.add_argument(
            "--" + spec.name,
            dest=spec.name,
            type=spec.metadata["type"],
            default=None,
            help=f"{spec.metadata['help']} (default: {default})",
        )
    return group


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


#: The longest alarm ``signal.alarm`` takes, in seconds (a C int); a
#: longer budget is clamped to it (some 68 years).
_ALARM_MAX = 2**31 - 1


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
                signal.alarm(max(1, math.ceil(min(self.budget, _ALARM_MAX))))
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


def _run_members(jobs: Sequence[JobSpec]):
    from repro.campaign.registry import execute_fused_block

    return execute_fused_block(
        jobs[0].size, jobs[0].options_dict,
        [(job.row, job.seeds) for job in jobs],
    )


def _execute_seed(cell_jobs: Sequence[JobSpec], timeout: Optional[float]):
    """Run one seed once for every member cell in ``cell_jobs``, under
    its own alarm; never raises.  The seed's time is split evenly
    across its records."""
    start = time.monotonic()
    cells = None
    try:
        with _Alarm(timeout) as alarm:
            cells = [member[0] for member in _run_members(cell_jobs)]
            alarm.disarm()
    except CellTimeout:
        status, error = STATUS_TIMEOUT, f"timed out after {timeout}s"
    except Exception:
        status, error = STATUS_ERROR, traceback.format_exc(limit=20)
    else:
        status, error = STATUS_OK, None
    elapsed = (time.monotonic() - start) / len(cell_jobs)
    return [
        make_record(
            job.key(), job.to_dict(), status,
            result=None if cells is None else cells[index].to_dict(),
            error=error, elapsed=elapsed,
        )
        for index, job in enumerate(cell_jobs)
    ]


def execute_block(payload: Dict) -> List[List[Dict]]:
    """Run one block and wrap every cell's outcome in a store record.

    ``payload["jobs"]`` are the block's members: :class:`JobSpec`
    dicts for (row, size) seed blocks that share one
    :func:`~repro.campaign.registry.simulation_key`, possibly from
    different campaigns.  Returns one record list per member, in member
    and then seed order.

    The one block executor: the serial runner calls it in-process
    (through :func:`execute_job`) and the fabric's workers call it in
    theirs.  Never raises — failures become ``error``/``timeout``
    records.  The members' seed union first runs batched on one
    prepared engine, each seed once (budget: per-cell timeout x
    distinct seeds); if anything in the batch fails, it falls back to
    running seed by seed, each seed once for all members that asked for
    it, so the failure is pinned to the seed that caused it and healthy
    seeds still complete.  A seed's time is split evenly across the
    records it produced, so the records' ``elapsed`` sums to the time
    spent.
    """
    jobs = [JobSpec.from_dict(data) for data in payload["jobs"]]
    timeout = payload.get("timeout")
    seeds = list(dict.fromkeys(seed for job in jobs for seed in job.seeds))
    if len(seeds) > 1:
        start = time.monotonic()
        try:
            with _Alarm(timeout * len(seeds) if timeout else None) as alarm:
                cells = _run_members(jobs)
                alarm.disarm()
        except Exception:  # includes CellTimeout: isolate per seed
            pass
        else:
            share = (time.monotonic() - start) / len(seeds)
            askers = Counter(seed for job in jobs for seed in job.seeds)
            return [
                [
                    make_record(
                        cell_job.key(), cell_job.to_dict(), STATUS_OK,
                        result=cell.to_dict(),
                        elapsed=share / askers[cell_job.seed],
                    )
                    for cell_job, cell in zip(job.cells(), member_cells)
                ]
                for job, member_cells in zip(jobs, cells)
            ]
    by_seed: List[Dict[int, Dict]] = [{} for _ in jobs]
    for seed in seeds:
        asking = [index for index, job in enumerate(jobs) if seed in job.seeds]
        records = _execute_seed(
            [jobs[index].with_seeds([seed]) for index in asking], timeout
        )
        for index, record in zip(asking, records):
            by_seed[index][seed] = record
    return [
        [member[seed] for seed in job.seeds]
        for job, member in zip(jobs, by_seed)
    ]


def execute_job(payload: Dict) -> List[Dict]:
    """Run one job (a single cell or a seed block) and wrap every cell's
    outcome in a store record: the one-member case of
    :func:`execute_block`."""
    return execute_block(
        {"jobs": [payload["job"]], "timeout": payload.get("timeout")}
    )[0]


def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignRunReport:
    """Execute every not-yet-completed cell of ``spec`` into ``store``.

    Work is dispatched as (row, size) seed blocks; each block carries
    only the seeds whose cells are not yet completed, so resuming a
    half-finished campaign re-runs exactly the missing cells.  A bad
    ``timeout`` raises :class:`~repro.sim.config.ExecutionConfigError`
    before anything is written.
    """
    from repro.campaign.registry import load_protocols

    RunnerOptions(timeout=timeout)
    spec.validate()
    load_protocols()
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
