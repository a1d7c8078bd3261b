"""Campaign subsystem: config-driven, sharded, resumable experiment sweeps.

A *campaign* declares a sweep matrix once — rows × sizes × seeds — in a
JSON config, runs it as seed blocks (in-process, or across the worker
fabric's processes with ``--workers``), and persists every raw
measurement in an append-only JSONL store keyed by a
content hash of the job.  Re-running a campaign computes only the delta;
aggregation rebuilds each row's ``SweepPoint`` table (plus spread
statistics and bootstrap confidence intervals) on demand.  ``repro
table1`` and ``repro ablations`` run their rows as an in-memory
campaign and print the same report.

CLI::

    python -m repro campaign run configs/table1.json --workers 4
    python -m repro campaign status configs/table1.json
    python -m repro campaign report configs/table1.json

Every public name below resolves on first access through a module
``__getattr__`` (PEP 562) and imports only the submodule that defines
it.  So ``campaign report`` and ``campaign status`` load the report
layer (spec, store, row metadata and aggregation) and never the worker
fabric, ``multiprocessing`` or the protocol modules, which only the
commands that run cells need.
"""

from importlib import import_module

#: The submodule that defines each public name, in ``__all__`` order.
_HOMES = {
    name: module
    for module, names in (
        ("aggregate", (
            "FAULT_OPTION_KEYS", "aggregate_campaign", "campaign_status",
            "cells_for_campaign", "render_degradation", "render_report",
            "render_status", "variant_label",
        )),
        ("cells", (
            "CellResult", "SweepPoint", "aggregate_cells",
            "bootstrap_median_ci", "knowledge_for", "run_cells",
        )),
        ("registry", (
            "GRAPH_FAMILIES", "ROW_REGISTRY", "RowDefinition",
            "execute_cell_block", "get_row", "register_row",
        )),
        ("fabric", (
            "FabricRunReport", "run_campaign_fabric", "run_campaigns_fabric",
        )),
        ("runner", (
            "CampaignRunReport", "CellTimeout", "RunnerOptions",
            "execute_job", "plan_pending", "run_campaign",
        )),
        ("spec", ("CampaignSpec", "JobSpec", "RowPlan", "job_key")),
        ("store", ("CampaignStore", "make_record")),
    )
    for name in names
}

__all__ = list(_HOMES)


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
