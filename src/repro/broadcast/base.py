"""Common runner and result type for Broadcast experiments.

Protocol convention: a broadcast protocol factory receives a
:class:`~repro.sim.node.NodeCtx`; the source vertex has
``ctx.inputs == {"source": True, "payload": <m>}``; every vertex's
generator must *return* the payload it learned (or None).  Delivery is
verified by comparing every output against the source's payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.graphs.graph import Graph
from repro.sim.batch import run_trials
from repro.sim.config import ExecutionConfig, resolve_exec_config
from repro.sim.engine import SimResult
from repro.sim.models import ChannelModel
from repro.sim.node import Knowledge, NodeCtx

__all__ = [
    "BroadcastOutcome",
    "run_broadcast",
    "run_broadcast_trials",
    "source_inputs",
]


@dataclass
class BroadcastOutcome:
    """A broadcast run plus its verification verdict.

    Attributes:
        sim: the raw simulation result (per-node energy, duration, trace).
        delivered: True iff every vertex returned the payload.
        payload: the broadcast message.
        informed: number of vertices that learned the payload.
    """

    sim: SimResult
    delivered: bool
    payload: Any
    informed: int

    @property
    def duration(self) -> int:
        """Time complexity of the run (slots)."""
        return self.sim.duration

    @property
    def max_energy(self) -> int:
        """Worst-vertex energy — the paper's energy complexity measure."""
        return self.sim.max_energy

    @property
    def mean_energy(self) -> float:
        return self.sim.mean_energy


def source_inputs(source: int, payload: Any):
    return {source: {"source": True, "payload": payload}}


def _verify(result: SimResult, payload: Any, n: int) -> BroadcastOutcome:
    informed = sum(1 for out in result.outputs if out == payload)
    return BroadcastOutcome(
        sim=result,
        delivered=(informed == n),
        payload=payload,
        informed=informed,
    )


#: Broadcast runs idle across long per-hop backoffs, so their default
#: slot budget is deeper than the bare engine's.
BROADCAST_TIME_LIMIT = 200_000_000


def run_broadcast_trials(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: Callable[[NodeCtx], Any],
    seeds: Sequence[int],
    source: int = 0,
    payload: Any = "m",
    # Keyword-only from here: exec_config displaced the old positional
    # slots, so a stale positional call fails loudly instead of binding
    # to the wrong parameter.
    *,
    knowledge: Optional[Knowledge] = None,
    uids: Optional[Sequence[int]] = None,
    exec_config: Optional[ExecutionConfig] = None,
) -> List[BroadcastOutcome]:
    """Run one broadcast cell across many seeds on the batched engine core.

    Graph preprocessing, knowledge, and uid setup happen once; each trial
    is one seeded run (see :func:`repro.sim.batch.run_trials`, including
    the ``exec_config`` resolution-backend switch, lock-step batching,
    and per-seed ``observer_factory`` hook).  Returns one verified
    :class:`BroadcastOutcome` per seed, in order.
    """
    config = resolve_exec_config(exec_config)
    results = run_trials(
        graph,
        model,
        protocol_factory,
        seeds,
        inputs=source_inputs(source, payload),
        knowledge=knowledge,
        uids=uids,
        exec_config=config.replace(
            time_limit=config.resolved_time_limit(BROADCAST_TIME_LIMIT)
        ),
    )
    return [_verify(result, payload, graph.n) for result in results]


def run_broadcast(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: Callable[[NodeCtx], Any],
    source: int = 0,
    payload: Any = "m",
    seed: int = 0,
    *,
    knowledge: Optional[Knowledge] = None,
    uids: Optional[Sequence[int]] = None,
    exec_config: Optional[ExecutionConfig] = None,
) -> BroadcastOutcome:
    """Run one broadcast protocol and verify delivery."""
    return run_broadcast_trials(
        graph,
        model,
        protocol_factory,
        (seed,),
        source=source,
        payload=payload,
        knowledge=knowledge,
        uids=uids,
        exec_config=exec_config,
    )[0]
