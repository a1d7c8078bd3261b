"""The campaign fabric: a fault-tolerant distributed campaign executor.

Layers (one module each), all riding on the content-hash store that
already makes every cell idempotent:

* :mod:`~repro.campaign.fabric.workers` — persistent worker processes
  fed seed blocks via queues, sending each block's records back on
  their own result pipe, with heartbeats and crash injection; a worker
  dies with its parent;
* :mod:`~repro.campaign.fabric.runner` — the dispatch/repair loop over
  one pool for one or more campaigns, running each distinct simulation
  once: retry with exponential backoff, poison-block quarantine, worker
  replacement; the parent appends every block's records to the stores,
  their only writer; ``run_campaigns_fabric`` is the entry point and
  ``run_campaign_fabric`` its one-campaign call, both steered by the
  values of :class:`repro.campaign.runner.RunnerOptions`;
* :mod:`~repro.campaign.fabric.events` — the structured events ledger
  and its one fold, ``summarize_events``, which ``campaign report
  --events`` renders;
* :mod:`~repro.campaign.fabric.status` — the same fold rendered as live
  progress (``campaign status --watch``);
* :mod:`~repro.campaign.fabric.runall` — manifest resolution and
  config loading for ``campaign run-all``.

The serial runner (:func:`repro.campaign.runner.run_campaign`) remains
the differential oracle: fabric aggregates are byte-identical to its,
under injected crashes, hangs, and timeouts (see
``tests/test_fabric.py``).
"""

from repro.campaign.fabric.events import (
    EventLog,
    read_events,
    render_events_summary,
    summarize_events,
)
from repro.campaign.fabric.runall import load_campaigns, resolve_run_all
from repro.campaign.fabric.runner import (
    FabricRunReport,
    run_campaign_fabric,
    run_campaigns_fabric,
)
from repro.campaign.fabric.status import render_live_status, watch_campaign
from repro.campaign.fabric.workers import CRASH_ENV, fabric_context

__all__ = [
    "CRASH_ENV",
    "EventLog",
    "FabricRunReport",
    "fabric_context",
    "load_campaigns",
    "read_events",
    "render_events_summary",
    "render_live_status",
    "resolve_run_all",
    "run_campaign_fabric",
    "run_campaigns_fabric",
    "summarize_events",
    "watch_campaign",
]
