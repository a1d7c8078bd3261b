"""Figure 1 reproduction: a timeline of the path algorithm's traffic.

The paper's Figure 1 shows messages propagating down-right along the
path, pausing at blocking vertices.  We rebuild exactly that picture from
a traced run: one row per time slot, one column per vertex; ``*`` marks a
transmission, ``.`` a listen, blank idle.  The payload's trajectory is
highlighted with ``P``.

The campaign's ``figure1`` row needs only the traffic split, which
:class:`TrafficObserver` counts during the run without a trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.broadcast.base import run_broadcast
from repro.broadcast.path import path_broadcast_protocol
from repro.graphs import path_graph
from repro.sim import LOCAL, ExecutionConfig, Knowledge
from repro.sim.observers import SlotObserver

__all__ = ["render_path_timeline", "figure1", "TrafficObserver"]


def _carries_payload(message, payload) -> bool:
    if message == payload:
        return True
    if isinstance(message, tuple):
        return any(_carries_payload(part, payload) for part in message)
    return False


class TrafficObserver(SlotObserver):
    """Figure 1's traffic split: transmissions that carry ``payload``
    (the ``P`` cells of the timeline) and control transmissions (``*``).

    ``payload`` must be the run's payload (``"m"`` is
    :func:`repro.broadcast.run_broadcast`'s default).
    """

    def __init__(self, payload: Any = "m") -> None:
        self.payload = payload
        self.payload_tx = 0
        self.control_tx = 0

    def on_run_start(self, n: int) -> None:
        self.payload_tx = 0
        self.control_tx = 0

    def on_slot(self, slot, senders, listeners, duplexers, feedbacks) -> None:
        payload = self.payload
        for transmitting in (senders, duplexers):
            for message in transmitting.values():
                if _carries_payload(message, payload):
                    self.payload_tx += 1
                else:
                    self.control_tx += 1

    def extras(self, outcome) -> Dict[str, float]:
        """Cell extras: the traffic split and the 2n slot bound the
        figure visualizes."""
        if outcome.payload != self.payload:
            raise ValueError(
                f"observed payload {self.payload!r}, but the run broadcast "
                f"{outcome.payload!r}"
            )
        n = len(outcome.sim.outputs)
        return {
            "payload_tx": float(self.payload_tx),
            "control_tx": float(self.control_tx),
            # _ok suffix: aggregates conjunctively — one seed over budget
            # flags the whole size.
            "slots_2n_ok": 1.0 if outcome.duration <= 2 * n else 0.0,
        }


def render_path_timeline(outcome, n: int, max_rows: Optional[int] = None) -> str:
    """ASCII timeline from a traced run (vertex columns, slot rows)."""
    trace = outcome.sim.trace
    if trace is None:
        raise ValueError(
            "render_path_timeline needs a traced run "
            "(exec_config=ExecutionConfig(record_trace=True))"
        )
    last = trace.last_slot()
    rows = last + 1 if max_rows is None else min(last + 1, max_rows)
    grid: List[List[str]] = [[" "] * n for _ in range(rows)]
    for event in trace:
        if event.slot >= rows:
            continue
        cell = "."
        if event.kind in ("send", "duplex"):
            cell = "P" if _carries_payload(event.message, outcome.payload) else "*"
        grid[event.slot][event.node] = cell
    header = "slot | " + "".join(str(v % 10) for v in range(n))
    lines = [header, "-" * len(header)]
    for slot, row in enumerate(grid):
        if all(cell == " " for cell in row):
            continue
        lines.append(f"{slot:4d} | " + "".join(row))
    lines.append("")
    lines.append("legend: P payload transmission, * control transmission, . listen")
    return "\n".join(lines)


def figure1(
    n: int = 32,
    seed: int = 0,
    exec_config: Optional[ExecutionConfig] = None,
) -> str:
    """Regenerate Figure 1: run Algorithm 1 on an n-vertex path and render
    the traffic timeline.

    ``exec_config`` steers how the traced run executes (resolution
    backend, fault specs, ...); tracing itself is always on — it is what
    the figure renders.
    """
    graph = path_graph(n)
    knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
    config = (exec_config or ExecutionConfig()).replace(record_trace=True)
    outcome = run_broadcast(
        graph, LOCAL, path_broadcast_protocol(oriented=True),
        knowledge=knowledge, seed=seed, exec_config=config,
    )
    status = "delivered" if outcome.delivered else "FAILED"
    header = (
        f"Figure 1 reproduction: Algorithm 1 on a {n}-vertex path "
        f"(seed {seed}, {status}, {outcome.duration} slots <= 2n = {2*n}, "
        f"max energy {outcome.max_energy})\n"
    )
    return header + render_path_timeline(outcome, n)
