#!/usr/bin/env python3
"""Relay-pipeline scenario: Algorithm 1 on a long chain of repeaters.

A linear chain of relay stations (a road tunnel, a pipeline, a border
fence) must forward an alert from one end to the other.  The Section 8
algorithm is provably optimal here: <= 2n slots end-to-end and O(log n)
expected transceiver wakeups per relay.  This example runs it, prints the
Figure 1 traffic timeline for a small chain, and the energy/time scaling
for longer ones.

Run:  python examples/relay_pipeline.py
"""

import math
import statistics

from repro.broadcast import run_broadcast
from repro.broadcast.path import path_broadcast_protocol
from repro.experiments import render_path_timeline
from repro.graphs import path_graph
from repro.sim import LOCAL, ExecutionConfig, Knowledge


def main() -> None:
    # Small chain with a rendered timeline.  Execution knobs (tracing,
    # resolution backend, fault specs, ...) travel in one validated
    # ExecutionConfig instead of per-call kwargs.
    n = 24
    graph = path_graph(n)
    knowledge = Knowledge(n=n, max_degree=2, diameter=n - 1)
    outcome = run_broadcast(
        graph, LOCAL, path_broadcast_protocol(oriented=True),
        knowledge=knowledge, seed=5,
        exec_config=ExecutionConfig(record_trace=True),
    )
    print(
        f"chain of {n} relays: delivered={outcome.delivered} in "
        f"{outcome.duration} slots (bound 2n = {2*n}), "
        f"max wakeups {outcome.max_energy}\n"
    )
    print(render_path_timeline(outcome, n))

    # Scaling table.
    print("\nscaling (medians over 5 seeds):")
    print(f"{'n':>6} {'slots':>7} {'2n':>7} {'meanE':>7} {'ln(2n)':>7}")
    for size in (64, 256, 1024, 4096):
        g = path_graph(size)
        k = Knowledge(n=size, max_degree=2, diameter=size - 1)
        durations, means = [], []
        for seed in range(5):
            out = run_broadcast(
                g, LOCAL, path_broadcast_protocol(oriented=True),
                knowledge=k, seed=seed,
            )
            durations.append(out.duration)
            means.append(out.mean_energy)
        print(
            f"{size:>6} {statistics.median(durations):>7.0f} {2*size:>7} "
            f"{statistics.median(means):>7.1f} {math.log(2*size):>7.1f}"
        )
    print(
        "\nslots stay below 2n and mean wakeups track ln(2n) — "
        "Theorem 21's optimal tradeoff."
    )


if __name__ == "__main__":
    main()
