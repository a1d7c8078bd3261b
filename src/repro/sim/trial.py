"""How a trial starts: one routine shared by every executor.

The serial engine (:class:`~repro.sim.engine.Simulator`), the trial-SoA
engine (:mod:`repro.sim.trialsoa`) and the reference oracle
(:class:`~repro.sim.reference.ReferenceSimulator`) all start a trial
through :class:`TrialSetup`:

* the knowledge and uid defaults, validated once per batch;
* :meth:`TrialSetup.faults` — the trial's channel and crash schedule,
  realized by :meth:`FaultPlan.for_trial
  <repro.sim.faults.FaultPlan.for_trial>` on a faulted config;
* :meth:`TrialSetup.start` — master seed to one :class:`NodeCtx` per
  node with its private 64-bit seed (drawn in vertex order; the node's
  ``random.Random`` is built on its first ``ctx.rng`` read), one
  generator per node, each entered once for its first emission.

Executors differ only in what they do with the first emissions, so a
change to how trials start is made here, once.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.sim.faults import FaultPlan
from repro.sim.node import Knowledge, NodeCtx, validate_input_keys

__all__ = ["TrialSetup"]


class TrialSetup:
    """The per-batch part of starting a trial, plus the per-trial steps.

    Args:
        graph: the network; only its size and degree are read.
        knowledge: what devices know a priori; defaults to ``n`` and
            ``max(max_degree, 1)`` with an unknown diameter.
        uids: one distinct id per vertex; defaults to ``1..n``.
        fault_plan: the batch's parsed fault specs, or None on a clean
            channel.
    """

    __slots__ = ("n", "knowledge", "uids", "fault_plan")

    def __init__(
        self,
        graph: Graph,
        knowledge: Optional[Knowledge] = None,
        uids: Optional[Sequence[int]] = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        n = graph.n
        if knowledge is None:
            knowledge = Knowledge(
                n=n, max_degree=max(graph.max_degree, 1), diameter=None
            )
        uids = list(range(1, n + 1)) if uids is None else list(uids)
        if len(uids) != n or len(set(uids)) != n:
            raise ValueError("uids must be distinct and cover every vertex")
        self.n = n
        self.knowledge = knowledge
        self.uids = uids
        self.fault_plan = fault_plan

    def faults(self, model, seed: int) -> Tuple[Any, Any]:
        """``(model, churn)`` for the trial seeded ``seed``: the fault
        plan's per-trial realization, or ``(model, None)`` when clean."""
        if self.fault_plan is None:
            return model, None
        return self.fault_plan.for_trial(model, seed)

    def start(
        self,
        protocol_factory: Callable[[NodeCtx], Any],
        seed: int,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Tuple[List[NodeCtx], List[Any], List[Any], List[Tuple[int, Any]]]:
        """Create the trial's nodes and enter every generator once.

        Returns ``(ctxs, gens, outputs, first)``: the per-node contexts
        and generators; ``outputs``, holding the return value of every
        node whose generator finished on that first entry (None
        elsewhere); and ``(vertex, action)`` for every node that emitted
        a first action, ascending by vertex.

        Raises:
            ValueError: if ``inputs`` has a key that is not a vertex
                index in ``[0, n)``.
        """
        n = self.n
        inputs = inputs or {}
        validate_input_keys(inputs, n)
        master = random.Random(seed)
        knowledge = self.knowledge
        uids = self.uids
        ctxs: List[NodeCtx] = [None] * n  # type: ignore[list-item]
        gens: List[Any] = [None] * n
        outputs: List[Any] = [None] * n
        first: List[Tuple[int, Any]] = []
        for v in range(n):
            ctx = NodeCtx(
                index=v,
                uid=uids[v],
                knowledge=knowledge,
                inputs=dict(inputs.get(v, ())),
                seed=master.getrandbits(64),
            )
            ctxs[v] = ctx
            gens[v] = gen = protocol_factory(ctx)
            try:
                first.append((v, next(gen)))
            except StopIteration as stop:
                outputs[v] = stop.value
        return ctxs, gens, outputs, first
