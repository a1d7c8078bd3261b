"""Shared pytest fixtures and helpers."""

from __future__ import annotations

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
