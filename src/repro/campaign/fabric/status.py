"""Live campaign progress: the events-replay view behind ``--watch``.

The fabric parent appends each finished block's records to the store
before it logs the block, so the store's accounting is current while a
run goes.  What the store cannot tell is how the run is going: this
module replays the events ledger — which the parent appends to in real
time — for this run's cells done, throughput, ETA and per-worker
state, beside the store's accounting, refreshed on every call.

Everything here is read-only and crash-tolerant (torn event lines are
skipped), so ``campaign status --watch`` can run in a second terminal
against a live sweep.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.campaign.aggregate import render_status
from repro.campaign.fabric.events import read_events
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore

__all__ = ["live_progress", "render_live_status", "watch_campaign"]


def live_progress(events_path: str) -> Dict:
    """Replay the ledger into the current run's progress picture."""
    progress: Dict = {
        "run": None,          # the last run_started event
        "completed": None,    # the matching run_completed, if any
        "cells_done": 0,
        "cells_failed": 0,
        "quarantined": 0,
        "retries": 0,
        "started_ts": None,
        "last_ts": None,
        "workers": {},        # wid -> {"state", "block", "since", ...}
    }
    for event in read_events(events_path):
        ev = event.get("ev")
        progress["last_ts"] = event.get("ts")
        if ev == "run_started":
            progress.update(
                run=event, completed=None, cells_done=0, cells_failed=0,
                quarantined=0, retries=0, started_ts=event.get("ts"),
                workers={},
            )
        elif ev == "run_completed":
            progress["completed"] = event
        elif ev == "worker_born":
            progress["workers"][event.get("worker")] = {
                "state": "idle", "block": None, "since": event.get("ts"),
            }
        elif ev == "worker_died":
            worker = progress["workers"].setdefault(
                event.get("worker"), {"block": None, "since": None}
            )
            worker["state"] = "dead"
            worker["reason"] = event.get("reason")
        elif ev == "block_dispatched":
            progress["workers"][event.get("worker")] = {
                "state": "run",
                "block": event.get("block"),
                "row": event.get("row"),
                "size": event.get("size"),
                "seeds": event.get("seeds"),
                "since": event.get("ts"),
            }
        elif ev == "block_completed":
            progress["cells_done"] += event.get("ok", 0)
            progress["cells_failed"] += event.get("failed", 0)
            worker = progress["workers"].get(event.get("worker"))
            if worker is not None and worker.get("state") == "run":
                worker.update(state="idle", block=None, since=event.get("ts"))
        elif ev == "block_retried":
            progress["retries"] += 1
        elif ev == "block_quarantined":
            progress["quarantined"] += event.get("cells", 0)
    return progress


def render_live_status(
    spec: CampaignSpec,
    store: CampaignStore,
    events_path: Optional[str],
    now: Optional[float] = None,
) -> str:
    """The full live view: store accounting + events-replay progress."""
    lines = [render_status(spec, store)]
    progress = live_progress(events_path) if events_path else {"run": None}
    run = progress.get("run")
    if run is None:
        lines.append("(no fabric events ledger; serial run or not started)")
        return "\n".join(lines)
    now = time.time() if now is None else now
    done = progress["cells_done"]
    failed = progress["cells_failed"]
    pending_at_start = run.get("pending", 0)
    finished = progress["completed"] is not None
    elapsed = (
        progress["completed"].get("elapsed")
        if finished and progress["completed"].get("elapsed") is not None
        else max(1e-9, now - (progress["started_ts"] or now))
    )
    rate = (done + failed) / max(elapsed, 1e-9)
    remaining = max(0, pending_at_start - done - failed - progress["quarantined"])
    state = "finished" if finished else "running"
    line = (
        f"fabric {state}: {done}/{pending_at_start} cells this run "
        f"({failed} failed, {progress['quarantined']} quarantined, "
        f"{progress['retries']} retries) | {rate:.1f} cells/s"
    )
    if not finished and rate > 0:
        line += f" | ETA {remaining / rate:.0f}s"
    lines.append(line)
    worker_bits: List[str] = []
    for wid, worker in sorted(progress["workers"].items()):
        state = worker.get("state", "?")
        if state == "run":
            since = worker.get("since") or now
            worker_bits.append(
                f"w{wid} RUN {worker.get('row')}/n={worker.get('size')} "
                f"(block {worker.get('block')}, {max(0.0, now - since):.1f}s)"
            )
        elif state == "dead":
            worker_bits.append(f"w{wid} DEAD ({worker.get('reason', '?')})")
        else:
            worker_bits.append(f"w{wid} IDLE")
    if worker_bits:
        lines.append("workers: " + "  ".join(worker_bits))
    return "\n".join(lines)


def watch_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    events_path: Optional[str],
    interval: float = 2.0,
    out: Callable[[str], None] = print,
    max_refreshes: Optional[int] = None,
) -> None:
    """Refresh the live view until the run completes.

    Exits after a single render when there is no events ledger or the
    ledger's last run already completed, so scripted callers (CI) never
    hang; while a run is live it refreshes every ``interval`` seconds
    (Ctrl-C exits).
    """
    refreshes = 0
    while True:
        out(render_live_status(spec, store, events_path))
        refreshes += 1
        progress = live_progress(events_path) if events_path else {"run": None}
        finished = (
            progress.get("run") is None
            or progress.get("completed") is not None
        )
        if finished:
            return
        if max_refreshes is not None and refreshes >= max_refreshes:
            return
        time.sleep(interval)
        out("")
