"""Per-node context handed to protocol generators.

A protocol is a generator function ``proto(ctx)`` that yields
:mod:`repro.sim.actions` actions and receives channel feedback through
``generator.send``.  ``NodeCtx`` carries everything the paper allows a
device to know (Section 1, "The Model"): the global parameters n, Delta, D,
the ID space N and the device's own ID (deterministic variants), private
randomness, and per-node problem inputs (e.g. "you are the broadcast
source").  It deliberately does *not* expose the topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Knowledge", "NodeCtx", "validate_input_keys"]


def validate_input_keys(inputs: Dict[int, Dict[str, Any]], n: int) -> None:
    """Reject per-node ``inputs`` keys that are not vertex indices in
    ``[0, n)`` — shared by the engine and the reference oracle so their
    accepted domains cannot drift apart."""
    invalid = [
        key for key in inputs if not (isinstance(key, int) and 0 <= key < n)
    ]
    if invalid:
        raise ValueError(
            f"inputs keys must be vertex indices in [0, {n}); "
            f"got {sorted(invalid, key=repr)!r}"
        )


@dataclass(frozen=True)
class Knowledge:
    """Global parameters all devices agree on.

    Attributes:
        n: number of vertices (upper bound is fine; the paper lets devices
            substitute n for unknown Delta or D).
        max_degree: the paper's Delta (upper bound).
        diameter: the paper's D (upper bound), or None when unknown.
        id_space: the paper's N for deterministic algorithms, or None.
    """

    n: int
    max_degree: int
    diameter: Optional[int] = None
    id_space: Optional[int] = None


class _SeededRng:
    """``NodeCtx.rng`` of a context built from a seed, until first read.

    The first read builds ``random.Random(seed)`` and stores it on the
    instance.  This is a non-data descriptor, so from then on the
    instance attribute shadows it and reads no longer call it.  (A
    ``__getattr__`` hook would also work, but on CPython 3.11 it turns
    off attribute-read specialization for every field of the class;
    with this descriptor only ``rng`` reads lose it, about 20 ns each.)
    """

    def __get__(self, ctx: Optional["NodeCtx"], owner: type) -> Any:
        if ctx is None:
            return self
        rng = ctx.rng = random.Random(ctx._seed)
        return rng


@dataclass(init=False)
class NodeCtx:
    """Everything one device can see.

    Give the constructor either ``rng`` or a ``seed`` (keyword only).
    Trials pass seeds: :class:`~repro.sim.trial.TrialSetup` draws every
    node's 64-bit seed from the master seed eagerly, in vertex order.

    Attributes:
        index: vertex index 0..n-1 (simulator-internal identity; protocols
            for the randomized model must not use it to break symmetry —
            they get ``rng`` for that).
        uid: device ID in {1..N}; only meaningful for deterministic
            algorithms, but always assigned.
        knowledge: shared global parameters.
        rng: private random stream: the ``rng`` passed in, or
            ``random.Random(seed)``, built on the first read of
            ``ctx.rng``.  Streams do not depend on when, or in which
            order, nodes first read it; a node that never draws never
            pays for the generator.
        inputs: per-node problem inputs (e.g. ``{"source": True,
            "payload": m}`` for Broadcast).
        time: current slot (maintained by the engine: equals the start slot
            of the action about to be yielded).
    """

    index: int
    uid: int
    knowledge: Knowledge
    inputs: Dict[str, Any]
    time: int
    # Not a dataclass field (no annotation), so repr and == never build it.
    rng = _SeededRng()

    def __init__(
        self,
        index: int,
        uid: int,
        knowledge: Knowledge,
        rng: Optional[random.Random] = None,
        inputs: Optional[Dict[str, Any]] = None,
        time: int = 0,
        *,
        seed: Optional[int] = None,
    ) -> None:
        if (rng is None) == (seed is None):
            raise TypeError("NodeCtx takes exactly one of rng and seed")
        self.index = index
        self.uid = uid
        self.knowledge = knowledge
        if rng is None:
            self._seed = seed
        else:
            self.rng = rng
        self.inputs = {} if inputs is None else inputs
        self.time = time

    @property
    def n(self) -> int:
        return self.knowledge.n

    @property
    def max_degree(self) -> int:
        return self.knowledge.max_degree

    @property
    def diameter(self) -> Optional[int]:
        return self.knowledge.diameter

    @property
    def id_space(self) -> Optional[int]:
        return self.knowledge.id_space
