"""Live campaign progress: the events-replay view behind ``--watch``.

The fabric parent appends each finished block's records to the store
before it logs the block, so the store's accounting is current while a
run goes.  What the store cannot tell is how the run is going: this
module renders the ledger's fold
(:func:`~repro.campaign.fabric.events.summarize_events`, the same fold
``campaign report --events`` renders) — this run's cells done,
throughput, ETA and per-worker state — beside the store's accounting,
re-read on every call.

Everything here is read-only and crash-tolerant (torn event lines are
skipped), so ``campaign status --watch`` can run in a second terminal
against a live sweep.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.campaign.aggregate import render_status
from repro.campaign.fabric.events import read_events, summarize_events
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore

__all__ = ["render_live_status", "watch_campaign"]


def render_live_status(
    spec: CampaignSpec,
    store: CampaignStore,
    events_path: Optional[str],
    now: Optional[float] = None,
) -> str:
    """The full live view: store accounting + events-replay progress."""
    lines = [render_status(spec, store)]
    summary = summarize_events(read_events(events_path))
    run = summary["last_run"]
    if not run:
        lines.append("(no fabric events ledger; serial run or not started)")
        return "\n".join(lines)
    now = time.time() if now is None else now
    done = run["cells_ok"]
    failed = run["cells_failed"]
    quarantined = sum(event.get("cells", 0) for event in summary["quarantined"])
    pending_at_start = run["pending"]
    finished = run["completed"]
    elapsed = (
        run["elapsed"]
        if finished and run["elapsed"] is not None
        else max(1e-9, now - (run["started_ts"] or now))
    )
    rate = (done + failed) / max(elapsed, 1e-9)
    remaining = max(0, pending_at_start - done - failed - quarantined)
    state = "finished" if finished else "running"
    line = (
        f"fabric {state}: {done}/{pending_at_start} cells this run "
        f"({failed} failed, {quarantined} quarantined, "
        f"{len(summary['retried'])} retries) | {rate:.1f} cells/s"
    )
    if not finished and rate > 0:
        line += f" | ETA {remaining / rate:.0f}s"
    lines.append(line)
    worker_bits: List[str] = []
    for wid, worker in sorted(summary["workers"].items()):
        if worker["state"] == "run":
            since = worker["since"] or now
            worker_bits.append(
                f"w{wid} RUN {worker['row']}/n={worker['size']} "
                f"(block {worker['block']}, {max(0.0, now - since):.1f}s)"
            )
        elif worker["state"] == "dead":
            worker_bits.append(f"w{wid} DEAD ({worker['died']})")
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
        run = summarize_events(read_events(events_path))["last_run"]
        if not run or run["completed"]:
            return
        if max_refreshes is not None and refreshes >= max_refreshes:
            return
        time.sleep(interval)
        out("")
