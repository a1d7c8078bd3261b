"""repro — a reproduction of "The Energy Complexity of Broadcast" (PODC 2018).

A slot-synchronous multi-hop radio-network simulator with per-device energy
accounting, the paper's broadcast algorithms in every collision model
(LOCAL / CD / No-CD / CD*), experiment harnesses reproducing Table 1 and
Figure 1, and a campaign subsystem for config-driven, sharded, resumable
sweeps (``python -m repro campaign run configs/table1.json --workers 4``).

The graph and simulator names load with the package.  The campaign names
(``CampaignSpec``, ``CampaignStore``, ``aggregate_campaign`` and
``run_campaign``) load ``repro.campaign`` on first access, so importing
``repro.sim`` does not pay for the campaign layer, its worker fabric,
``multiprocessing`` or the protocol modules.
"""

__version__ = "1.1.0"

from repro.graphs import (
    Graph,
    clique,
    cycle_graph,
    diameter,
    grid_graph,
    k2k_gadget,
    path_graph,
    random_gnp,
    random_tree,
)
from repro.sim import (
    BEEPING,
    CD,
    CD_STAR,
    LOCAL,
    NO_CD,
    NOISE,
    SILENCE,
    ExecutionConfig,
    Idle,
    Knowledge,
    Listen,
    NodeCtx,
    Send,
    SendListen,
    Simulator,
    SimResult,
)

__all__ = [
    "__version__",
    "CampaignSpec",
    "CampaignStore",
    "aggregate_campaign",
    "run_campaign",
    "Graph",
    "clique",
    "cycle_graph",
    "diameter",
    "grid_graph",
    "k2k_gadget",
    "path_graph",
    "random_gnp",
    "random_tree",
    "BEEPING",
    "CD",
    "CD_STAR",
    "LOCAL",
    "NO_CD",
    "NOISE",
    "SILENCE",
    "ExecutionConfig",
    "Idle",
    "Knowledge",
    "Listen",
    "NodeCtx",
    "Send",
    "SendListen",
    "Simulator",
    "SimResult",
]

_CAMPAIGN_NAMES = (
    "CampaignSpec", "CampaignStore", "aggregate_campaign", "run_campaign",
)


def __getattr__(name):
    if name in _CAMPAIGN_NAMES:
        from repro import campaign

        value = getattr(campaign, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
