"""Persistent fabric workers: spawned once, fed blocks via queues.

Each worker is one long-lived process running :func:`fabric_worker_main`:
it pulls block payloads off its private task queue, executes them with
the same never-raising :func:`repro.campaign.runner.execute_block` the
serial runner uses (per-cell SIGALRM budgets work because the block
runs on the worker's main thread), and sends each block's records back
on its own result pipe.  Workers write no file: the parent appends the
records to each member campaign's store, so every store has one
writer.  A daemon heartbeat thread posts liveness while a block is
running, so the parent can tell "slow" from "wedged".

Every worker has a pipe of its own, not a share of one queue: a worker
killed part-way through a message tears only its own pipe, which the
parent then reads as end-of-file, while every other worker's messages
still arrive whole.

A worker dies with its parent: a daemon watchdog thread checks the
parent's pid every ``_PARENT_POLL`` seconds and SIGKILLs the worker
once it changes, whether the worker is idle, mid-block or blocked on a
send.

The parent-side :class:`WorkerHandle` owns the process, its task queue
and the read end of its result pipe.  Handles are disposable: when the
parent declares a worker dead (process gone, heartbeat stale, or budget
blown) it SIGKILLs the process and spawns a fresh handle — worker ids
only ever move forward, and a killed worker's pipe dies with its
handle.

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

__all__ = [
    "CRASH_ENV",
    "WorkerHandle",
    "fabric_context",
    "fabric_worker_main",
]

#: Environment hook: set to a marker-file path to make exactly one
#: worker die (SIGKILL) on its first block dispatch.
CRASH_ENV = "REPRO_FABRIC_INJECT_CRASH"

#: How often a worker checks that its parent is still there.
_PARENT_POLL = 1.0


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
    result_conn,
    heartbeat: float,
) -> None:
    """Worker loop: block in, records out on the result pipe.

    A task is ``{"block_id", "payload"}``, the payload being
    :func:`~repro.campaign.runner.execute_block`'s.  Messages on
    ``result_conn``, the write end of this worker's result pipe (all
    lead with a tag and worker id):

    * ``("hello", wid, pid)`` — alive, ready for work;
    * ``("hb", wid, block_id)`` — still executing ``block_id``;
    * ``("done", wid, block_id, records)`` — block finished;
      ``records`` holds one list of store records per member;
    * ``("exit", wid)`` — clean shutdown after the ``None`` sentinel.
    """
    # The main and heartbeat threads both send; one frame at a time.
    lock = threading.Lock()

    def send(message: Tuple) -> None:
        with lock:
            result_conn.send(message)

    parent = multiprocessing.parent_process().pid

    def watch() -> None:
        # An orphan's parent pid is its reaper's, whichever process
        # that is; so is a worker's whose parent died before this ran.
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL)
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=watch, daemon=True).start()
    send(("hello", worker_id, os.getpid()))
    current: Dict[str, Optional[int]] = {"block": None}
    stop = threading.Event()
    if heartbeat:
        def beat() -> None:
            while not stop.wait(heartbeat):
                block_id = current["block"]
                if block_id is not None:
                    send(("hb", worker_id, block_id))

        threading.Thread(target=beat, daemon=True).start()
    while True:
        task = task_queue.get()
        if task is None:
            break
        _maybe_inject_crash()
        block_id = task["block_id"]
        current["block"] = block_id
        records = execute_block_payload(task["payload"])
        current["block"] = None
        send(("done", worker_id, block_id, records))
    stop.set()
    send(("exit", worker_id))


def execute_block_payload(payload: Dict):
    """One import seam for block execution (monkeypatchable in tests)."""
    from repro.campaign.runner import execute_block

    return execute_block(payload)


class WorkerHandle:
    """Parent-side view of one worker: process, task queue and the read
    end of its result pipe (``conn``)."""

    def __init__(
        self,
        worker_id: int,
        context,
        heartbeat: float,
    ) -> None:
        self.id = worker_id
        self.task_queue = context.Queue()
        self.conn, writer = context.Pipe(duplex=False)
        self.process = context.Process(
            target=fabric_worker_main,
            args=(worker_id, self.task_queue, writer, heartbeat),
            daemon=True,
        )
        self.process.start()
        # Only the worker holds the write end now, so its death reads
        # as end-of-file here.
        writer.close()
        self.eof = False
        # In-flight assignment bookkeeping (set by the fabric runner).
        self.assignment = None
        self.dispatched_at: Optional[float] = None
        self.last_seen = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.assignment is not None

    def dispatch(self, assignment, payload: Dict) -> None:
        self.assignment = assignment
        self.dispatched_at = time.monotonic()
        self.last_seen = time.monotonic()
        self.task_queue.put({
            "block_id": assignment.block_id, "payload": payload,
        })

    def clear(self) -> None:
        self.assignment = None
        self.dispatched_at = None

    def receive(self) -> List[Tuple]:
        """Every whole message waiting on the result pipe.  At
        end-of-file (the worker is gone, perhaps part-way through a
        message) the pipe is marked ``eof`` and the verdict is left to
        the parent's liveness check."""
        messages = []
        try:
            while self.conn.poll():
                messages.append(self.conn.recv())
        except (EOFError, OSError):
            self.eof = True
        if messages:
            self.last_seen = time.monotonic()
        return messages

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
        self.conn.close()

    def join(self, timeout: float) -> None:
        self.process.join(timeout=timeout)
