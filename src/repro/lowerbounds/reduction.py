"""The Theorem 2 reduction: Broadcast on K_{2,k} -> single-hop LeaderElection.

The paper's argument: on the gadget K_{2,k} (source s and sink t, both
adjacent to every middle vertex, s and t non-adjacent), the middle
vertices can treat {s, t} as "the channel": given shared randomness they
can simulate s's and t's behaviour perfectly, every slot in which neither
s nor t listens is meaningless and can be skipped, and t first receives
the message exactly when one middle vertex transmits alone while t
listens — the success condition of full-duplex leader election.  Hence a
Broadcast algorithm with energy E yields a LeaderElection algorithm
running in at most 2E (meaningful) slots, and single-hop LE time lower
bounds [31, 18] become Broadcast energy lower bounds.

This module executes the reduction on a real run: it extracts the derived
leader-election transcript from a traced Broadcast execution and checks
the paper's accounting inequality  T_LE <= energy(s) + energy(t) <= 2E.
:class:`LeaderElectionObserver` does the same accounting while the run
executes, with no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.broadcast.base import BroadcastOutcome
from repro.sim.observers import SlotObserver

__all__ = ["ReductionReport", "LeaderElectionObserver", "derive_leader_election"]


@dataclass(frozen=True)
class ReductionReport:
    """The derived leader-election transcript and its accounting.

    Attributes:
        election_slot: first slot where t hears a *unique* middle-vertex
            transmission (None if t never received).
        winner: the middle vertex elected by that slot.
        le_time: number of meaningful slots (some of {s, t} listening) up
            to and including the election slot — the derived LE's time.
        st_energy: energy(s) + energy(t) over the same window.
        broadcast_energy: worst-vertex energy of the Broadcast run (E).
        bound_holds: the paper's inequality le_time <= 2 E.
    """

    election_slot: Optional[int]
    winner: Optional[int]
    le_time: int
    st_energy: int
    broadcast_energy: int
    bound_holds: bool

    @property
    def elected(self) -> bool:
        return self.election_slot is not None


def derive_leader_election(
    outcome: BroadcastOutcome, s: int = 0, t: int = 1
) -> ReductionReport:
    """Extract the derived LE transcript from a traced K_{2,k} run.

    Requires ``outcome`` to have been produced with ``record_trace=True``
    on a gadget from :func:`repro.graphs.k2k_gadget` (middle vertices are
    2..k+1; s and t are not adjacent).
    """
    trace = outcome.sim.trace
    if trace is None:
        raise ValueError("reduction needs record_trace=True")

    # Per-slot activity.
    listens: Dict[int, Set[int]] = {}
    sends: Dict[int, Set[int]] = {}
    for event in trace:
        if event.kind in ("listen", "duplex"):
            listens.setdefault(event.slot, set()).add(event.node)
        if event.kind in ("send", "duplex"):
            sends.setdefault(event.slot, set()).add(event.node)

    slots = sorted(set(listens) | set(sends))
    election_slot: Optional[int] = None
    winner: Optional[int] = None
    meaningful = 0
    st_energy = 0
    for slot in slots:
        slot_listens = listens.get(slot, set())
        slot_sends = sends.get(slot, set())
        st_active = ({s, t} & (slot_listens | slot_sends))
        st_energy_slot = len(st_active)
        is_meaningful = bool({s, t} & slot_listens)
        if is_meaningful:
            meaningful += 1
        st_energy += st_energy_slot
        middle_senders = {v for v in slot_sends if v not in (s, t)}
        if t in slot_listens and len(middle_senders) == 1:
            election_slot = slot
            winner = next(iter(middle_senders))
            break

    return ReductionReport(
        election_slot=election_slot,
        winner=winner,
        le_time=meaningful,
        st_energy=st_energy,
        broadcast_energy=outcome.max_energy,
        bound_holds=meaningful <= 2 * outcome.max_energy,
    )


class LeaderElectionObserver(SlotObserver):
    """:func:`derive_leader_election`'s accounting, slot by slot.

    Counts the meaningful slots (s or t listening) and the energy of s
    and t, and stops at the election slot: the first slot in which t
    listens and exactly one middle vertex transmits.  On the same run
    :meth:`report` equals :func:`derive_leader_election` field by field.
    """

    def __init__(self, s: int = 0, t: int = 1) -> None:
        self.s = s
        self.t = t
        self.election_slot: Optional[int] = None
        self.winner: Optional[int] = None
        self.le_time = 0
        self.st_energy = 0

    def on_run_start(self, n: int) -> None:
        self.election_slot = None
        self.winner = None
        self.le_time = 0
        self.st_energy = 0

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        if self.election_slot is not None:
            return
        s, t = self.s, self.t
        s_sends = s in senders or s in duplexers
        t_sends = t in senders or t in duplexers
        s_listens = s in duplexers or s in listeners
        t_listens = t in duplexers or t in listeners
        self.st_energy += (s_sends or s_listens) + (t_sends or t_listens)
        if s_listens or t_listens:
            self.le_time += 1
        middle_senders = len(senders) + len(duplexers) - s_sends - t_sends
        if t_listens and middle_senders == 1:
            self.election_slot = slot
            self.winner = next(
                v for transmitting in (senders, duplexers)
                for v in transmitting if v != s and v != t
            )

    def report(self, outcome: BroadcastOutcome) -> ReductionReport:
        """The :class:`ReductionReport` of the run just observed."""
        energy = outcome.max_energy
        return ReductionReport(
            election_slot=self.election_slot,
            winner=self.winner,
            le_time=self.le_time,
            st_energy=self.st_energy,
            broadcast_energy=energy,
            bound_holds=self.le_time <= 2 * energy,
        )

    def extras(self, outcome: BroadcastOutcome) -> Dict[str, float]:
        """Cell extras: derived LE time, broadcast energy and T_LE <= 2E."""
        report = self.report(outcome)
        return {
            "le_time": float(report.le_time),
            "broadcast_energy": float(report.broadcast_energy),
            "bound_holds": 1.0 if report.bound_holds else 0.0,
        }
