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

Every public name below resolves on first access through a module
``__getattr__`` (PEP 562) and imports only the submodule that defines
it, as :mod:`repro.campaign` does.  So ``campaign report --events``
loads :mod:`~repro.campaign.fabric.events` alone, and never the workers,
the runner, the live status or ``multiprocessing``.  Submodule imports
(``from repro.campaign.fabric import workers``) work as before.
"""

from importlib import import_module

#: The submodule that defines each public name.
_HOMES = {
    name: module
    for module, names in (
        ("events", (
            "EventLog", "read_events", "render_events_summary",
            "summarize_events",
        )),
        ("runall", ("load_campaigns", "resolve_run_all")),
        ("runner", (
            "FabricRunReport", "run_campaign_fabric", "run_campaigns_fabric",
        )),
        ("status", ("render_live_status", "watch_campaign")),
        ("workers", ("CRASH_ENV", "fabric_context")),
    )
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
