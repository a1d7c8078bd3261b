"""The many-seed SR-frame batches of the ``many_seed_batch`` workload.

An SR frame is the paper's densest communication shape: a few
designated senders burst together in every window (so on a clique the
bursts collide), and every other node listens through the whole
schedule in one padded ``ListenUntil``.  Three batches run it through
``repro.sim.batch.run_trials`` in lock-step with numpy resolution:

* ``a`` clean frame, clique n=512, two colliding senders: the trial-SoA
  engine;
* ``b`` lossy frame, clique n=256, eight senders under a per-seed
  ``LossyModel(No-CD, 0.3)``: the SoA drop-mask path;
* ``c`` churned frame, clique n=256 under periodic churn: falls back to
  the per-trial driver (``soa_reason == "churn"``).

Devices get ``Knowledge`` up front, so no graph facts are computed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

WINDOW = 32  # slots per frame window
BURST = 4  # burst slots at the end of each window
WINDOWS = 4
TRIALS = 64
CHURN = "periodic:period=16,down=4,stagger=1"
LOSS_RATE = 0.3


def sr_frame_protocol(windows: int, senders: int) -> Callable:
    """Senders ``0..senders-1`` idle then burst in every window; all
    other nodes listen for the whole ``windows * WINDOW`` schedule."""
    from repro.sim import Idle, ListenUntil, Repeat, Send

    total = windows * WINDOW

    def protocol(ctx):
        if ctx.index < senders:
            burst = Send(("m", ctx.index))
            for _ in range(windows):
                yield Idle(WINDOW - BURST)
                yield Repeat(burst, BURST)
            return None
        return (yield ListenUntil(total, pad=True))

    return protocol


@dataclass(frozen=True)
class Batch:
    name: str
    n: int
    senders: int
    lossy: bool = False
    churn: Optional[str] = None

    def seeds(self, shift: int) -> List[int]:
        return list(range(shift, shift + TRIALS))

    def build(self, shift: int, lockstep: bool = True) -> Dict:
        """The ``run_trials`` arguments of this batch (builds the graph)."""
        from repro import graphs
        from repro.sim import NO_CD, ExecutionConfig, Knowledge, LossyModel

        options = dict(lockstep=lockstep, resolution="numpy")
        if self.lossy:
            options["model_factory"] = (
                lambda seed: LossyModel(NO_CD, LOSS_RATE, seed=seed)
            )
        if self.churn:
            options["churn"] = self.churn
        return dict(
            graph=graphs.clique(self.n),
            model=NO_CD,
            protocol_factory=sr_frame_protocol(WINDOWS, self.senders),
            seeds=self.seeds(shift),
            knowledge=Knowledge(n=self.n, max_degree=self.n - 1, diameter=1),
            exec_config=ExecutionConfig(**options),
        )


BATCHES = (
    Batch("a", 512, 2),
    Batch("b", 256, 8, lossy=True),
    Batch("c", 256, 2, churn=CHURN),
)

#: Batches that must run on the trial-SoA engine; a fallback there
#: would be measured as the wrong executor.
SOA_REQUIRED = ("a", "b")


def run_batch(spec: Dict):
    from repro.sim.batch import run_trials

    spec = dict(spec)
    return run_trials(
        spec.pop("graph"), spec.pop("model"), spec.pop("protocol_factory"),
        spec.pop("seeds"), **spec,
    )


def trial_record(result) -> str:
    return repr((
        result.seed, result.outputs, result.duration,
        [report.total for report in result.energy],
    ))


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(trial_record(result).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:24]


def frame_violations(batch: Batch, results) -> int:
    """Trials that break a seed-independent property of the frame.

    Nobody is active longer than the schedule.  Without churn every
    sender bursts in every window, so it spends exactly
    ``WINDOWS * BURST``.  On the clean frame the senders always collide,
    so every listener hears nothing and listens all the way.
    """
    total = WINDOWS * WINDOW
    bad = 0
    for result in results:
        energies = [report.total for report in result.energy]
        senders, listeners = energies[:batch.senders], energies[batch.senders:]
        ok = result.duration <= total and max(energies) <= total
        if not batch.churn:
            ok = ok and all(e == WINDOWS * BURST for e in senders)
        if not batch.churn and not batch.lossy:
            ok = ok and all(e == total for e in listeners) and all(
                out is None for out in result.outputs
            )
        bad += not ok
    return bad
