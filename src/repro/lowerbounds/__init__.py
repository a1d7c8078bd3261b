"""Executable lower-bound harnesses (Section 2)."""

from repro.lowerbounds.path_lb import (
    PreReceptionEnergy,
    PreReceptionObserver,
    energy_before_reception,
)
from repro.lowerbounds.reduction import (
    LeaderElectionObserver,
    ReductionReport,
    derive_leader_election,
)

__all__ = [
    "PreReceptionEnergy",
    "PreReceptionObserver",
    "energy_before_reception",
    "LeaderElectionObserver",
    "ReductionReport",
    "derive_leader_election",
]
