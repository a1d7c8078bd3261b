"""Model-agnostic SR-communication dispatch.

Algorithms in the paper are described once and instantiated per collision
model (Lemma 10 lists LOCAL/CD/No-CD cost triples).  :class:`SRScheme`
binds a model name and failure parameter to the matching primitive from
:mod:`repro.core.sr_comm` so the cast/clustering layers are written once.

All vertices construct the identical scheme from shared knowledge
(n, Delta), so frame lengths agree network-wide — the fixed-frame
synchronization contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Union

from repro.core import sr_comm
from repro.core.sr_comm import CDParams, DecayParams, Role
from repro.sim.actions import Idle
from repro.sim.node import NodeCtx

__all__ = ["SRScheme"]

_MODEL_NAMES = ("LOCAL", "CD", "No-CD")


@dataclass(frozen=True)
class SRScheme:
    """One SR-communication configuration shared by every vertex.

    Attributes:
        model_name: "LOCAL", "CD" or "No-CD".
        max_degree: the paper's Delta (shared knowledge).
        failure: per-invocation failure probability f (ignored by LOCAL).
        probe: CD only — prepend Remark 9's two probe slots so vertices
            without a counterpart pay O(1) energy.
        ack: CD only — Lemma 8's special-case ack slot per epoch.
    """

    model_name: str
    max_degree: int
    failure: float = 0.01
    probe: bool = False
    ack: bool = False

    def __post_init__(self) -> None:
        if self.model_name not in _MODEL_NAMES:
            raise ValueError(
                f"model_name must be one of {_MODEL_NAMES}, got {self.model_name!r}"
            )
        if self.model_name != "CD" and (self.probe or self.ack):
            raise ValueError("probe/ack are CD-only options")

    # -- geometry ----------------------------------------------------------

    @cached_property
    def params(self) -> Optional[Union[DecayParams, CDParams]]:
        """The frame geometry: :class:`DecayParams` under No-CD,
        :class:`CDParams` under CD, None under LOCAL.  Built on first use
        and kept, so a protocol that runs many frames on one scheme
        computes it once."""
        if self.model_name == "CD":
            return CDParams.for_graph(
                self.max_degree, self.failure, probe=self.probe, ack=self.ack
            )
        if self.model_name == "No-CD":
            return DecayParams.for_graph(self.max_degree, self.failure)
        return None

    @cached_property
    def frame_length(self) -> int:
        """Slots consumed by one SR-communication invocation."""
        params = self.params
        return 1 if params is None else params.frame_length

    # -- execution ----------------------------------------------------------

    def communicate(self, ctx: NodeCtx, role: Role, message: Any = None, accept=None):
        """Run one SR-communication frame in this node's protocol.

        Generator; drive with ``yield from``.  Returns the received message
        for receivers (or None), None otherwise.  ``accept`` lets receivers
        skip messages that do not concern them (e.g. other clusters').
        """
        if self.model_name == "LOCAL":
            return sr_comm.sr_local(ctx, role, message, accept=accept)
        if self.model_name == "CD":
            return sr_comm.sr_cd(ctx, role, message, self.params, accept=accept)
        return sr_comm.sr_nocd(ctx, role, message, self.params, accept=accept)

    def idle_frames(self, count: int):
        """Idle through ``count`` whole frames (generator)."""
        slots = count * self.frame_length
        if slots > 0:
            yield Idle(slots)
