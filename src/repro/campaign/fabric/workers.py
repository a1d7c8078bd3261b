"""Persistent fabric workers: spawned once, fed blocks via queues.

Each worker is one long-lived process running :func:`fabric_worker_main`:
it pulls block payloads off its private task queue, executes them with
the same never-raising :func:`repro.campaign.runner.execute_block` the
serial runner uses (per-cell SIGALRM budgets work because the block
runs on the worker's main thread), appends each member's records to its
own shard in that member campaign's shard directory (the task names
one directory per member, so one pool serves several campaigns), and
reports compact status tuples — never result payloads — on the shared
result queue.  A daemon heartbeat thread posts liveness while a block
is running, so the parent can tell "slow" from "wedged".

The parent-side :class:`WorkerHandle` owns the process and its task
queue.  Handles are disposable: when the parent declares a worker dead
(process gone, heartbeat stale, or budget blown) it SIGKILLs the
process and spawns a fresh handle — worker ids only ever move forward,
so stale queue messages from a killed worker can never be confused
with its replacement's.

Crash injection (used by the fault-injection tests and the CI smoke
job): when ``REPRO_FABRIC_INJECT_CRASH`` names a marker path, the first
worker to receive a block while the marker does not exist creates it
(``O_EXCL`` — exactly one winner) and SIGKILLs itself, exercising the
retry path deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.campaign.fabric.shards import shard_path
from repro.campaign.store import CampaignStore

__all__ = [
    "CRASH_ENV",
    "WorkerHandle",
    "fabric_context",
    "fabric_worker_main",
    "status_row",
]

#: Environment hook: set to a marker-file path to make exactly one
#: worker die (SIGKILL) on its first block dispatch.
CRASH_ENV = "REPRO_FABRIC_INJECT_CRASH"


def fabric_context():
    """The multiprocessing context fabric workers run under.

    ``fork`` wherever available: workers inherit the parent's imported
    row registry (including test-registered rows) and start in
    milliseconds.  Elsewhere fall back to the platform default.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _maybe_inject_crash() -> None:
    marker = os.environ.get(CRASH_ENV)
    if not marker:
        return
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # another worker already took the hit
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def fabric_worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    heartbeat: float,
) -> None:
    """Worker loop: block in, records to shards, status tuples out.

    A task is ``{"block_id", "payload", "shards"}``: the
    :func:`~repro.campaign.runner.execute_block` payload and one shard
    directory per member.  Messages on ``result_queue`` (all lead with
    a tag and worker id):

    * ``("hello", wid, pid)`` — alive, ready for work;
    * ``("hb", wid, block_id)`` — still executing ``block_id``;
    * ``("done", wid, block_id, statuses)`` — block finished and its
      records are durably in the shards; ``statuses`` holds one list
      per member of :func:`status_row` tuples;
    * ``("exit", wid)`` — clean shutdown after the ``None`` sentinel.
    """
    result_queue.put(("hello", worker_id, os.getpid()))
    current: Dict[str, Optional[int]] = {"block": None}
    stop = threading.Event()
    if heartbeat:
        def beat() -> None:
            while not stop.wait(heartbeat):
                block_id = current["block"]
                if block_id is not None:
                    result_queue.put(("hb", worker_id, block_id))

        threading.Thread(target=beat, daemon=True).start()
    while True:
        task = task_queue.get()
        if task is None:
            break
        _maybe_inject_crash()
        block_id = task["block_id"]
        current["block"] = block_id
        records = execute_block_payload(task["payload"])
        for shard_dir, member_records in zip(task["shards"], records):
            CampaignStore(shard_path(shard_dir, worker_id)).append_many(
                member_records
            )
        current["block"] = None
        statuses = [
            [status_row(record) for record in member_records]
            for member_records in records
        ]
        result_queue.put(("done", worker_id, block_id, statuses))
    stop.set()
    result_queue.put(("exit", worker_id))


def status_row(record: Dict) -> Tuple:
    """A record's ``(seed, status, elapsed, soa, soa_reason)`` row:
    ``soa`` is the cell's SoA-engagement flag (1.0 engaged / 0.0 fell
    back / None when the cell did not run lock-step) and ``soa_reason``
    the verdict string behind it (``"ok"``, ``"jammer"``,
    ``"burst_loss"``, ... / None)."""
    extras = record.get("result", {}).get("extras", {})
    return (
        record["job"]["seed"],
        record["status"],
        record["elapsed"],
        extras.get("soa"),
        _soa_reason(extras),
    )


def _soa_reason(extras: Dict) -> Optional[str]:
    """Recover the SoA verdict string from a cell's one-hot extras key."""
    for key in extras:
        if key.startswith("soa_reason_"):
            return key[len("soa_reason_"):]
    return None


def execute_block_payload(payload: Dict):
    """One import seam for block execution (monkeypatchable in tests)."""
    from repro.campaign.runner import execute_block

    return execute_block(payload)


class WorkerHandle:
    """Parent-side view of one worker: process + task queue."""

    def __init__(
        self,
        worker_id: int,
        context,
        result_queue,
        heartbeat: float,
    ) -> None:
        self.id = worker_id
        self.task_queue = context.Queue()
        self.process = context.Process(
            target=fabric_worker_main,
            args=(worker_id, self.task_queue, result_queue, heartbeat),
            daemon=True,
        )
        self.process.start()
        # In-flight assignment bookkeeping (set by the fabric runner).
        self.assignment = None
        self.dispatched_at: Optional[float] = None
        self.last_seen = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.assignment is not None

    def dispatch(self, assignment, payload: Dict, shards: List[str]) -> None:
        self.assignment = assignment
        self.dispatched_at = time.monotonic()
        self.last_seen = time.monotonic()
        self.task_queue.put({
            "block_id": assignment.block_id,
            "payload": payload,
            "shards": shards,
        })

    def clear(self) -> None:
        self.assignment = None
        self.dispatched_at = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Ask for a clean exit (sentinel); the worker drains and leaves."""
        try:
            self.task_queue.put(None)
        except (OSError, ValueError):  # pragma: no cover - queue torn down
            pass

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)
        self.task_queue.cancel_join_thread()

    def join(self, timeout: float) -> None:
        self.process.join(timeout=timeout)
