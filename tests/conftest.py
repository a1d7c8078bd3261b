"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import hashlib

import pytest

from repro.graphs import diameter
from repro.sim import Idle, Knowledge, Send, Steps, expand_plans
from repro.sim.models import ChannelModel


def knowledge_for(graph, with_diameter: bool = True, id_space: int | None = None):
    """Build the shared-knowledge object the paper assumes devices have."""
    return Knowledge(
        n=graph.n,
        max_degree=max(graph.max_degree, 1),
        diameter=diameter(graph) if with_diameter else None,
        id_space=id_space,
    )


def per_slot(factory):
    """``factory``'s protocol with every phase plan expanded into
    per-slot yields: the same run, one generator entry per slot."""
    return lambda ctx: expand_plans(factory(ctx))


def bernoulli_steps(ctx, message, p: float, rounds: int) -> Steps:
    """One plan that transmits ``message`` with probability ``p``, else
    idles, for ``rounds`` slots: the decisions are drawn up front from
    ``ctx.rng``, in slot order, as a per-slot loop would draw them."""
    rand = ctx.rng.random
    return Steps(tuple(
        Send(message) if rand() < p else Idle(1) for _ in range(rounds)
    ))


def assert_same_run(a, b, where: str = "") -> None:
    """Assert that two runs agree on all they report: outputs, whole
    ``EnergyReport``s (``duplex`` and ``last_active_slot`` included),
    finish slots, duration and the trace (``None`` when untraced).
    ``a`` and ``b`` may also be equal-length lists of runs, one per
    seed, compared pairwise.  ``where`` names the case on failure."""
    if isinstance(a, list):
        assert len(a) == len(b), where
        for x, y in zip(a, b):
            assert_same_run(x, y, where)
        return
    assert a.outputs == b.outputs, where
    assert a.energy == b.energy, where
    assert a.finish_slot == b.finish_slot, where
    assert a.duration == b.duration, where
    assert list(a.trace or ()) == list(b.trace or ()), where


def run_digest(result) -> str:
    """A short hash of what a run pins: outputs (each ending with the
    node's next rng draw), ``EnergyReport``s, duration, finish slots,
    ``gen_entries`` and the trace (empty when untraced)."""
    energy = [
        (e.sends, e.listens, e.duplex, e.total, e.last_active_slot)
        for e in result.energy
    ]
    trace = [
        (e.slot, e.node, e.kind, repr(e.message), repr(e.feedback))
        for e in (result.trace or ())
    ]
    blob = repr((
        result.outputs, energy, result.duration, result.finish_slot,
        result.gen_entries, trace,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def assert_pinned(pinned, got):
    """Assert that each entry of ``got`` (key -> digests of one case's
    runs) equals its entry in the pin table ``pinned``.  A failure prints
    one paste-ready ``key: digests,`` line per moved or missing entry.
    Re-pinning is a reviewed change: CHANGES.md lists every moved key."""
    moved = [
        f"    {key!r}: {digests!r},"
        for key, digests in got.items()
        if pinned.get(key) != digests
    ]
    assert not moved, (
        f"{len(moved)} of {len(got)} pinned runs moved or are not pinned; "
        "after review, re-pin with:\n" + "\n".join(moved)
    )


class CountingModel(ChannelModel):
    """A count model that is none of the paper's five: listeners hear
    ``("heard", k)``, so the trial-SoA engine has no rule for it."""

    supports_count = True

    def resolve(self, transmissions):
        return ("heard", len(transmissions))

    def resolve_count(self, k, first_message):
        return ("heard", k)


@pytest.fixture
def seeds():
    """Default seed set for statistical assertions."""
    return list(range(5))
