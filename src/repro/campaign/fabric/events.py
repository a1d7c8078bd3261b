"""Structured events ledger: the fabric's observability spine.

Every notable dispatch-level fact of a fabric run — blocks dispatched,
completed, retried, quarantined; workers born and died — is appended as
one JSON line to ``<out>/events.jsonl``.  The ledger is *descriptive*,
never load-bearing: results live in the stores, and deleting the events
file loses only history.  That split keeps the write path cheap (flush,
no fsync) and lets the live ``campaign status --watch`` view and the
post-run ``campaign report --events`` summary be two renderings of one
fold of the same file (:func:`summarize_events`).

Event schema (all events carry ``ev`` and ``ts``; the rest varies)::

    run_started        campaign, total, cached, pending, workers
    worker_born        worker, pid
    worker_died        worker, reason, block (the assignment it held)
    block_dispatched   block, worker, row (a fused block's rows of this
                       campaign, joined by "+"), size, seeds, attempt
    block_completed    block, worker, ok, failed, elapsed, soa (cells
                       that ran on the trial-SoA engine; absent in
                       pre-soa ledgers, read as 0), soa_reasons (cell
                       counts by SoA verdict string, e.g. {"ok": 3,
                       "jammer": 1}; absent in older ledgers — readers
                       must render *any* reason string gracefully,
                       since new fault families mint new verdicts)
    block_retried      block, attempt, reason, backoff
    block_quarantined  block, reason, cells
    run_completed      ok, errors, timeouts, quarantined, retries, elapsed
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "EventLog",
    "read_events",
    "summarize_events",
    "render_events_summary",
]


class EventLog:
    """Append-only JSONL event writer (single-writer: the fabric parent).

    ``path=None`` makes every emit a no-op, so callers never branch.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self._handle = None

    def emit(self, ev: str, **fields) -> None:
        if self.path is None:
            return
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        record = {"ev": ev, "ts": round(time.time(), 3)}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str) -> Iterator[Dict]:
    """Yield events in file order, skipping torn/corrupt lines."""
    if not path or not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                continue  # torn tail from a killed writer
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "ev" in event:
                yield event


def _worker(workers: Dict, event: Dict) -> Dict:
    return workers.setdefault(event.get("worker"), {
        "blocks": 0, "cells": 0, "died": None,
        "state": "idle", "block": None, "since": None,
    })


def summarize_events(events) -> Dict:
    """Fold an event stream into one summary dict: the one reading of
    the ledger, behind both ``campaign report --events``
    (:func:`render_events_summary`) and ``campaign status --watch``
    (:func:`repro.campaign.fabric.status.render_live_status`).

    ``counts`` covers the whole ledger; the rest tracks the most recent
    ``run_started``: ``last_run`` (cells completed, wall clock, cells/s,
    whether it finished), ``workers`` (per-worker tallies of every
    attempt, plus what each is doing now), and the run's retry and
    quarantine events.  A retried block's failed cells stop counting
    in ``last_run`` once the block is dispatched again, so a cell that
    failed on every attempt counts once.  ``events`` is any iterable of
    event dicts — typically ``read_events(path)``.
    """
    counts: Dict[str, int] = {}
    workers: Dict[int, Dict] = {}
    retried: List[Dict] = []
    quarantined: List[Dict] = []
    last_run: Dict = {}
    # block id -> failed cells of its last completion, until redispatched
    open_failures: Dict[int, int] = {}
    for event in events:
        ev = event.get("ev", "?")
        counts[ev] = counts.get(ev, 0) + 1
        if ev == "run_started":
            last_run = {
                "campaign": event.get("campaign"),
                "started_ts": event.get("ts"),
                "total": event.get("total", 0),
                "cached": event.get("cached", 0),
                "pending": event.get("pending", 0),
                "workers": event.get("workers", 1),
                "cells_ok": 0,
                "cells_failed": 0,
                "blocks": 0,
                "soa_blocks": 0,
                "soa_cells": 0,
                "soa_reasons": {},
                "soa_seen": False,
                "completed": False,
            }
            workers = {}
            retried = []
            quarantined = []
            open_failures = {}
        elif ev == "worker_born":
            workers[event.get("worker")] = {
                "blocks": 0, "cells": 0, "died": None,
                "state": "idle", "block": None, "since": event.get("ts"),
            }
        elif ev == "worker_died":
            state = _worker(workers, event)
            state["died"] = event.get("reason", "?")
            state["state"] = "dead"
        elif ev == "block_dispatched":
            _worker(workers, event).update(
                state="run",
                block=event.get("block"),
                row=event.get("row"),
                size=event.get("size"),
                since=event.get("ts"),
            )
            if last_run:
                last_run["cells_failed"] -= open_failures.pop(
                    event.get("block"), 0
                )
        elif ev == "block_completed":
            state = _worker(workers, event)
            state["blocks"] += 1
            state["cells"] += event.get("ok", 0) + event.get("failed", 0)
            if state["state"] == "run":
                state.update(state="idle", block=None, since=event.get("ts"))
            if last_run:
                last_run["cells_ok"] += event.get("ok", 0)
                last_run["cells_failed"] += event.get("failed", 0)
                open_failures[event.get("block")] = event.get("failed", 0)
                last_run["blocks"] += 1
                soa = event.get("soa")
                if soa is not None:
                    last_run["soa_seen"] = True
                    last_run["soa_cells"] += soa
                    if soa > 0:
                        last_run["soa_blocks"] += 1
                # Verdict counts arrive as an open string->count map;
                # fold whatever strings appear (old ledgers omit the
                # field, future fault families mint new reasons).
                reasons = event.get("soa_reasons")
                if isinstance(reasons, dict):
                    acc = last_run["soa_reasons"]
                    for reason, count in reasons.items():
                        try:
                            acc[str(reason)] = acc.get(str(reason), 0) + int(count)
                        except (TypeError, ValueError):
                            continue
        elif ev == "block_retried":
            retried.append(event)
        elif ev == "block_quarantined":
            quarantined.append(event)
        elif ev == "run_completed" and last_run:
            last_run["completed"] = True
            last_run["elapsed"] = event.get("elapsed")
    if last_run and last_run.get("elapsed"):
        cells = last_run["cells_ok"] + last_run["cells_failed"]
        last_run["cells_per_sec"] = cells / max(last_run["elapsed"], 1e-9)
    return {
        "counts": counts,
        "workers": workers,
        "retried": retried,
        "quarantined": quarantined,
        "last_run": last_run,
    }


def render_events_summary(summary: Dict) -> str:
    """Human-readable digest of :func:`summarize_events`."""
    counts = summary["counts"]
    if not counts:
        return "no events recorded (serial runs write no events log)"
    lines = ["fabric events:"]
    run = summary["last_run"]
    if run:
        state = "completed" if run.get("completed") else "IN PROGRESS / ABORTED"
        lines.append(
            f"  last run ({run.get('campaign')}): {state}; "
            f"{run['cells_ok']} ok / {run['cells_failed']} failed of "
            f"{run.get('pending', '?')} pending "
            f"({run.get('cached', 0)} cached of {run.get('total', '?')} total), "
            f"{run.get('workers', 1)} worker(s)"
        )
        if run.get("elapsed") is not None:
            lines.append(
                f"  wall {run['elapsed']:.1f}s, "
                f"{run.get('cells_per_sec', 0.0):.1f} cells/s"
            )
        if run.get("soa_seen"):
            blocks = run.get("blocks", 0)
            soa_blocks = run.get("soa_blocks", 0)
            rate = soa_blocks / blocks if blocks else 0.0
            lines.append(
                f"  SoA engagement: {soa_blocks}/{blocks} block(s) "
                f"({rate:.0%}), {run.get('soa_cells', 0)} cell(s) on the "
                f"trial-SoA engine"
            )
            reasons = run.get("soa_reasons") or {}
            if reasons:
                breakdown = ", ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(reasons.items())
                )
                lines.append(f"  SoA verdicts: {breakdown}")
    order = (
        "run_started", "worker_born", "worker_died", "block_dispatched",
        "block_completed", "block_retried", "block_quarantined",
        "run_completed",
    )
    rendered = ", ".join(
        f"{name}={counts[name]}" for name in order if name in counts
    )
    extra = ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
        if name not in order
    )
    lines.append(f"  events: {rendered}" + (f", {extra}" if extra else ""))
    for worker, state in sorted(summary["workers"].items()):
        died = f"  DIED: {state['died']}" if state["died"] else ""
        lines.append(
            f"  worker {worker}: {state['blocks']} block(s), "
            f"{state['cells']} cell(s){died}"
        )
    for event in summary["retried"]:
        lines.append(
            f"  retry  block {event.get('block')} attempt "
            f"{event.get('attempt')}: {event.get('reason')}"
        )
    for event in summary["quarantined"]:
        lines.append(
            f"  QUARANTINED block {event.get('block')} "
            f"({event.get('cells')} cell(s)): {event.get('reason')}"
        )
    return "\n".join(lines)
