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
"""

from repro.campaign.aggregate import (
    FAULT_OPTION_KEYS,
    aggregate_campaign,
    campaign_status,
    cells_for_campaign,
    render_degradation,
    render_report,
    render_status,
    variant_label,
)
from repro.campaign.cells import (
    CellResult,
    SweepPoint,
    aggregate_cells,
    bootstrap_median_ci,
    knowledge_for,
    run_cells,
)
from repro.campaign.registry import (
    GRAPH_FAMILIES,
    ROW_REGISTRY,
    RowDefinition,
    execute_cell_block,
    get_row,
    register_row,
)
from repro.campaign.fabric import (
    FabricRunReport,
    run_campaign_fabric,
    run_campaigns_fabric,
)
from repro.campaign.runner import (
    CampaignRunReport,
    CellTimeout,
    RunnerOptions,
    execute_job,
    plan_pending,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, JobSpec, RowPlan, job_key
from repro.campaign.store import CampaignStore, make_record

__all__ = [
    "FAULT_OPTION_KEYS",
    "aggregate_campaign",
    "campaign_status",
    "cells_for_campaign",
    "render_degradation",
    "render_report",
    "render_status",
    "variant_label",
    "CellResult",
    "SweepPoint",
    "aggregate_cells",
    "bootstrap_median_ci",
    "knowledge_for",
    "run_cells",
    "GRAPH_FAMILIES",
    "ROW_REGISTRY",
    "RowDefinition",
    "execute_cell_block",
    "get_row",
    "register_row",
    "CampaignRunReport",
    "CellTimeout",
    "FabricRunReport",
    "RunnerOptions",
    "execute_job",
    "plan_pending",
    "run_campaign",
    "run_campaign_fabric",
    "run_campaigns_fabric",
    "CampaignSpec",
    "JobSpec",
    "RowPlan",
    "job_key",
    "CampaignStore",
    "make_record",
]
