"""Composable fault injection: churn, jamming, and bursty loss.

The paper's protocols are analyzed on clean, static channels; this
module makes network adversity a first-class, reproducible workload.
Three fault families, each deterministic per trial seed and
sharding-independent (a fault decision is a pure function of the spec,
the trial seed, and the slot — never of which worker or block ran it):

* **Node churn** — :class:`CrashSchedule` and its seeded policies
  (:class:`PeriodicChurn`, :class:`RandomChurn`) mark per-node down
  intervals.  A crash is a *radio outage*: while down, a node neither
  transmits nor hears (its transmissions are removed from the air, its
  listens hear the model's empty-reception value — see
  :func:`down_feedback`), but its plan
  keeps stepping and its energy meters keep charging — the device keeps
  attempting operations, the radio just fails.  Recovery therefore
  re-enters the plan at a well-defined resume point (wherever the plan
  is at the recovery slot), identically in every engine.

* **Adversarial jamming** — :class:`Jammer` policies
  (:class:`PeriodicJammer`, :class:`RandomJammer`,
  :class:`ReactiveJammer`) decide per slot whether the adversary floods
  the spectrum.  :class:`JammedModel` applies the decision in
  ``ChannelModel``-composition form, so it stacks on all paper models:
  on a jammed slot every listener gets the wrapped model's jam feedback
  (see :data:`JAM_FEEDBACK`), and the inner model's rng is *not*
  consumed (the jammer drowns the channel before reception).  The jam
  feedback is noise under CD and CD*, a beep under BEEP, and the
  model's empty reception (an erasure) under No-CD and LOCAL, which
  have no noise symbol.

* **Correlated (bursty) loss** — :class:`GilbertElliottModel` extends
  :class:`~repro.sim.models.LossyModel` with the classic two-state
  Markov chain: a shared channel fade alternates between a *good* state
  (loss ``good_rate``, default 0.0) and a *bad* state (loss
  ``bad_rate``, default 1.0), with per-slot transition probabilities
  ``p_gb`` / ``p_bg``.  This models burst loss at the trial level (one
  fade per channel per slot); per-edge / per-receiver chains are the
  named next extension (they need receiver identity threaded through
  ``resolve``, which the resolution backends do not expose today).

Slot context reaches the models through the
:meth:`~repro.sim.models.ChannelModel.begin_slot` hook (models with
``slot_aware = True``).  Engines may skip slots nothing happens in, and
slots no one listens in (the serial engine never processes a slot that
holds only posted sends, see :mod:`repro.sim.engine`); a slot an engine
does process still counts every on-air transmitter, posted ones
included, in the ``n_transmitters`` the reactive jammer keys on.  So
slot-aware state must be *path-independent*: ``GilbertElliottModel``
advances its chain lazily — catching up from the last seen slot to the
current one always consumes exactly ``(current - last)`` rng draws — so
every drop draw at slot ``t`` sits at the same absolute rng-stream
position (after exactly ``t + 1`` transition draws plus all earlier
drop draws) no matter which engine ran the trial.  That invariant is
what keeps the reference simulator, the event-heap engine, and the
trial-SoA engine byte-identical.

Campaign/CLI entry: the ``churn``, ``jam``, and ``burst_loss``
:class:`~repro.sim.config.ExecutionConfig` fields hold spec strings
(grammar below), parsed by :func:`parse_churn_spec` /
:func:`parse_jam_spec` / :func:`parse_burst_loss_spec` and materialized
per trial by :meth:`FaultPlan.for_trial`.

Spec grammar (``key=value`` lists; numbers validated on config
construction, so an invalid spec never reaches an engine loop)::

    churn      = "periodic:period=P,down=D[,stagger=S]"
               | "random:p=R,period=P,down=D"
    jam        = "periodic:period=P[,offset=K]"
               | "random:rate=R"
               | "reactive[:min=K]"
    burst_loss = "p_gb=R,p_bg=R[,good=R][,bad=R]"
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.sim.feedback import BEEP, NOISE, SILENCE
from repro.sim.models import ChannelModel, LossyModel

__all__ = [
    "CrashSchedule",
    "PeriodicChurn",
    "RandomChurn",
    "Jammer",
    "PeriodicJammer",
    "RandomJammer",
    "ReactiveJammer",
    "JammedModel",
    "GilbertElliottModel",
    "JAM_FEEDBACK",
    "jam_feedback",
    "down_feedback",
    "FaultPlan",
    "parse_fault_specs",
    "parse_churn_spec",
    "parse_jam_spec",
    "parse_burst_loss_spec",
    "validate_fault_spec",
]


# --- seeded-process helpers ------------------------------------------------

# Large odd multipliers decorrelate the (seed, node, epoch) and
# (seed, slot) key spaces fed to random.Random below.  int seeding is
# platform- and version-stable (init_by_array), so fault decisions are
# reproducible across hosts — a requirement for resumable campaigns.
_MIX_A = 1_000_003
_MIX_B = 1_000_033
_SLOT_MIX = 1_000_000_007


def _mix(seed: int, a: int, b: int) -> int:
    return (seed * _MIX_A + a) * _MIX_B + b


# --- churn -----------------------------------------------------------------


class CrashSchedule:
    """Per-node down intervals, given explicitly.

    ``intervals`` maps vertex -> iterable of half-open ``(start, stop)``
    slot ranges during which that node's radio is down.  Policies that
    *draw* schedules from a seeded process subclass this and override
    :meth:`down`.
    """

    __slots__ = ("intervals",)

    def __init__(
        self,
        intervals: Optional[Mapping[int, Iterable[Tuple[int, int]]]] = None,
    ) -> None:
        self.intervals: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        for v, spans in (intervals or {}).items():
            spans = tuple(sorted((int(a), int(b)) for a, b in spans))
            for a, b in spans:
                if a < 0 or b < a:
                    raise ValueError(
                        f"crash interval ({a}, {b}) for node {v} is not a "
                        f"half-open slot range with 0 <= start <= stop"
                    )
            self.intervals[int(v)] = spans

    def down(self, v: int, slot: int) -> bool:
        """True when node ``v``'s radio is down during ``slot``."""
        spans = self.intervals.get(v)
        if not spans:
            return False
        for a, b in spans:
            if a > slot:
                return False
            if slot < b:
                return True
        return False

    def down_cells(self, slot: int, vertices):
        """Which of ``vertices`` (an integer numpy array) are down during
        ``slot``: a boolean sequence aligned with ``vertices``.

        The trial-SoA engine asks this once per trial per round, for the
        trial's active cells.  This form asks :meth:`down` once per
        vertex — exactly the queries the serial engine makes — so
        drawn schedules need no override; closed-form policies override
        it with one array expression.
        """
        down = self.down
        return [down(v, slot) for v in vertices.tolist()]


class PeriodicChurn(CrashSchedule):
    """Every node is down for the first ``down`` slots of each
    ``period``-slot cycle; ``stagger`` shifts node ``v``'s cycle by
    ``v * stagger`` slots so outages roll across the network instead of
    freezing it wholesale.  Deterministic — no seed involved."""

    __slots__ = ("period", "down_len", "stagger")

    def __init__(self, period: int, down: int, stagger: int = 0) -> None:
        super().__init__()
        if period < 1:
            raise ValueError(f"churn period must be >= 1, got {period}")
        if not 0 <= down <= period:
            raise ValueError(
                f"churn down length must be in [0, period], got {down}"
            )
        if stagger < 0:
            raise ValueError(f"churn stagger must be >= 0, got {stagger}")
        self.period = period
        self.down_len = down
        self.stagger = stagger

    def down(self, v: int, slot: int) -> bool:
        return (slot - v * self.stagger) % self.period < self.down_len

    def down_cells(self, slot: int, vertices):
        # numpy's % on integers is the floor modulo of Python ints, so
        # this is ``down`` elementwise.
        return (slot - vertices * self.stagger) % self.period < self.down_len


class RandomChurn(CrashSchedule):
    """Seeded crash/recovery process: time is cut into ``period``-slot
    epochs; in each epoch each node independently crashes with
    probability ``p`` for ``down`` slots starting at a uniform offset.

    Every decision comes from ``random.Random(_mix(seed, v, epoch))`` —
    a pure function of (seed, node, epoch) — so queries in any order
    (serial, sharded, engines skipping slots) see the same schedule.
    """

    __slots__ = ("p", "period", "down_len", "seed", "_cache")

    def __init__(self, p: float, period: int, down: int, seed: int = 0) -> None:
        super().__init__()
        if not 0 <= p <= 1:
            raise ValueError(f"churn probability must be in [0,1], got {p}")
        if period < 1:
            raise ValueError(f"churn period must be >= 1, got {period}")
        if not 0 <= down <= period:
            raise ValueError(
                f"churn down length must be in [0, period], got {down}"
            )
        self.p = p
        self.period = period
        self.down_len = down
        self.seed = seed
        self._cache: Dict[Tuple[int, int], int] = {}

    def _start(self, v: int, epoch: int) -> int:
        """Down-interval start offset within the epoch, or -1 (up)."""
        key = (v, epoch)
        cached = self._cache.get(key)
        if cached is None:
            rng = random.Random(_mix(self.seed, v, epoch))
            if rng.random() < self.p:
                cached = rng.randrange(self.period - self.down_len + 1)
            else:
                cached = -1
            self._cache[key] = cached
        return cached

    def down(self, v: int, slot: int) -> bool:
        if not self.down_len:
            return False
        epoch, offset = divmod(slot, self.period)
        start = self._start(v, epoch)
        return start >= 0 and start <= offset < start + self.down_len


# --- jamming ---------------------------------------------------------------


class Jammer:
    """Slot-level adversary policy: :meth:`jams` decides per slot.

    ``n_transmitters`` is the number of on-air transmitters this slot
    (after churn), so reactive policies can key on observed activity.
    Policies must be pure in (slot, n_transmitters) given their
    construction parameters — no cross-slot state — which is what makes
    jam schedules identical across engines and shards.
    """

    __slots__ = ()

    def jams(self, slot: int, n_transmitters: int) -> bool:
        raise NotImplementedError


class PeriodicJammer(Jammer):
    """Jam every slot congruent to ``offset`` modulo ``period``."""

    __slots__ = ("period", "offset")

    def __init__(self, period: int, offset: int = 0) -> None:
        if period < 1:
            raise ValueError(f"jam period must be >= 1, got {period}")
        self.period = period
        self.offset = offset % period

    def jams(self, slot: int, n_transmitters: int) -> bool:
        return slot % self.period == self.offset


class RandomJammer(Jammer):
    """Jam each slot independently with probability ``rate``.

    The decision for slot ``t`` is drawn from a throwaway
    ``random.Random(seed * _SLOT_MIX + t)`` — stateless in the slot, so
    engines that skip empty slots see the same jam schedule as engines
    that process every slot.
    """

    __slots__ = ("rate", "seed")

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0 <= rate <= 1:
            raise ValueError(f"jam rate must be in [0,1], got {rate}")
        self.rate = rate
        self.seed = seed

    def jams(self, slot: int, n_transmitters: int) -> bool:
        if not self.rate:
            return False
        return random.Random(self.seed * _SLOT_MIX + slot).random() < self.rate


class ReactiveJammer(Jammer):
    """Jam exactly the slots with at least ``minimum`` transmitters —
    the classic energy-efficient adversary that only burns power when
    someone is trying to talk."""

    __slots__ = ("minimum",)

    def __init__(self, minimum: int = 1) -> None:
        if minimum < 1:
            raise ValueError(f"reactive jam minimum must be >= 1, got {minimum}")
        self.minimum = minimum

    def jams(self, slot: int, n_transmitters: int) -> bool:
        return n_transmitters >= self.minimum


#: What a listener hears on a jammed slot, per stock model.  CD-class
#: listeners detect the jammer as noise; No-CD listeners cannot tell
#: jamming from silence (the paper's point about missing collision
#: detection); BEEP listeners hear a beep; CD* collision resolution is
#: drowned (noise, like CD — the one jam value its clean model never
#: produces).  LOCAL has no collisions and no noise symbol, so a jammed
#: LOCAL listener hears its model's empty reception ``()``, an erasure,
#: just as No-CD's jam value is its own empty reception, SILENCE.  Both
#: equal what :func:`down_feedback` gives a down listener.
JAM_FEEDBACK = {
    "LOCAL": (),
    "CD": NOISE,
    "CD-FD": NOISE,
    "No-CD": SILENCE,
    "No-CD-FD": SILENCE,
    "CD*": NOISE,
    "BEEP": BEEP,
}


def jam_feedback(model: ChannelModel) -> Any:
    """The jammed-slot feedback for ``model`` (wrappers are unwrapped)."""
    inner = model
    while hasattr(inner, "inner"):
        inner = inner.inner
    try:
        return JAM_FEEDBACK[inner.name]
    except KeyError:
        raise ValueError(
            f"no jam feedback defined for channel model {inner.name!r}; "
            f"add it to repro.sim.faults.JAM_FEEDBACK"
        ) from None


def down_feedback(model: ChannelModel) -> Any:
    """What a crashed (down) listener hears: the model's own
    empty-reception value — ``()`` under LOCAL (whose protocols iterate
    feedback tuples), :data:`~repro.sim.feedback.SILENCE` elsewhere.

    Computed as ``resolve([])`` on the unwrapped stock model: stock
    models are stateless, so this consumes no rng and is safe to probe
    once per run.
    """
    inner = model
    while hasattr(inner, "inner"):
        inner = inner.inner
    return inner.resolve([])


class JammedModel(ChannelModel):
    """``ChannelModel`` composition form of a :class:`Jammer`: stacks on
    any model (including :class:`~repro.sim.models.LossyModel` /
    :class:`GilbertElliottModel` wrappings).

    On a jammed slot every reception resolves to the wrapped model's
    jam feedback and the inner model's rng is *not* consumed —
    byte-identically in every engine, because the jam decision is made
    once per slot in :meth:`begin_slot` from (slot, on-air count).
    """

    __slots__ = ("inner", "jammer", "needs_first_message", "_jam_feedback",
                 "_jammed")

    stateful = True
    slot_aware = True

    def __init__(self, inner: ChannelModel, jammer: Jammer) -> None:
        super().__init__(f"jammed({inner.name})", inner.full_duplex)
        self.inner = inner
        self.jammer = jammer
        self.needs_first_message = inner.needs_first_message
        self._jam_feedback = jam_feedback(inner)
        self._jammed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JammedModel({self.inner.name!r}, {type(self.jammer).__name__})"

    def begin_slot(self, slot: int, n_transmitters: int) -> None:
        inner = self.inner
        if inner.slot_aware:
            inner.begin_slot(slot, n_transmitters)
        self._jammed = self.jammer.jams(slot, n_transmitters)

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        if self._jammed:
            return self._jam_feedback
        return self.inner.resolve(transmissions)


# --- correlated (bursty) loss ---------------------------------------------


class GilbertElliottModel(LossyModel):
    """Two-state Markov (Gilbert-Elliott) bursty-loss channel.

    One shared fade per trial: each slot the chain sits in *good*
    (per-transmission loss ``good_rate``) or *bad* (``bad_rate``) and
    transitions with probability ``p_gb`` (good->bad) / ``p_bg``
    (bad->good).  The chain starts good at slot -1 and advances lazily
    in :meth:`begin_slot` — exactly one transition draw per slot of
    simulated time, consumed from the *same* rng as the drop draws, so
    the draw at any point has a fixed absolute stream position
    regardless of which slots an engine actually processed
    (path-independence; see the module docstring).

    The nominal ``loss_rate`` attribute is the stationary loss rate
    ``pi_g * good_rate + pi_b * bad_rate`` — what the chain's empirical
    loss converges to (pinned by a hypothesis property).
    """

    __slots__ = ("p_gb", "p_bg", "good_rate", "bad_rate", "_state", "_slot")

    slot_aware = True

    def __init__(
        self,
        inner: ChannelModel,
        p_gb: float,
        p_bg: float,
        good_rate: float = 0.0,
        bad_rate: float = 1.0,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        for label, value in (
            ("p_gb", p_gb), ("p_bg", p_bg),
            ("good", good_rate), ("bad", bad_rate),
        ):
            if not (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and 0 <= value <= 1
            ):
                raise ValueError(
                    f"Gilbert-Elliott rate {label} must be in [0,1], "
                    f"got {value!r}"
                )
        total = p_gb + p_bg
        pi_bad = p_gb / total if total else 0.0
        stationary = (1.0 - pi_bad) * good_rate + pi_bad * bad_rate
        super().__init__(inner, stationary, seed=seed, rng=rng)
        self.name = f"ge({inner.name},{p_gb},{p_bg},{good_rate},{bad_rate})"
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.good_rate = good_rate
        self.bad_rate = bad_rate
        self._state = 0  # 0 = good, 1 = bad
        self._slot = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottModel({self.inner.name!r}, p_gb={self.p_gb}, "
            f"p_bg={self.p_bg}, good={self.good_rate}, bad={self.bad_rate})"
        )

    def begin_slot(self, slot: int, n_transmitters: int) -> None:
        steps = slot - self._slot
        if steps <= 0:
            return
        state, rng = self._state, self._rng
        p_gb, p_bg = self.p_gb, self.p_bg
        for _ in range(steps):
            # One draw per slot, unconditionally, so the stream position
            # never depends on the state sequence.
            r = rng.random()
            if state == 0:
                if r < p_gb:
                    state = 1
            elif r < p_bg:
                state = 0
        self._state = state
        self._slot = slot

    def resolve(self, transmissions: Sequence[Any]) -> Any:
        rate = self.bad_rate if self._state else self.good_rate
        rng = self._rng
        surviving = [m for m in transmissions if rng.random() >= rate]
        return self.inner.resolve(surviving)


# --- spec-string parsing ---------------------------------------------------


def _parse_kv(body: str, what: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    if not body:
        return params
    for part in body.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise ValueError(
                f"malformed {what} parameter {part!r} (expected key=value)"
            )
        if key in params:
            raise ValueError(f"duplicate {what} parameter {key!r}")
        params[key] = value.strip()
    return params


def _take(
    params: Dict[str, str],
    what: str,
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> None:
    missing = [key for key in required if key not in params]
    if missing:
        raise ValueError(f"{what} spec is missing parameter(s) {missing}")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ValueError(
            f"unknown {what} parameter(s) {unknown}; "
            f"allowed: {sorted(set(required) | set(optional))}"
        )


def _num(params: Dict[str, str], key: str, what: str, kind=float):
    try:
        return kind(params[key])
    except ValueError:
        raise ValueError(
            f"{what} parameter {key}={params[key]!r} is not a valid "
            f"{kind.__name__}"
        ) from None


def parse_churn_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``churn`` spec string; raises ``ValueError`` on nonsense.

    Returns ``{"policy": "periodic"|"random", ...numeric params...}``.
    Validation happens here *and* on construction of the schedule, so
    both the config door and direct API use fail fast.
    """
    policy, _, body = spec.partition(":")
    params = _parse_kv(body, "churn")
    if policy == "periodic":
        _take(params, "churn periodic", ("period", "down"), ("stagger",))
        parsed: Dict[str, Any] = {
            "policy": "periodic",
            "period": _num(params, "period", "churn", int),
            "down": _num(params, "down", "churn", int),
            "stagger": (
                _num(params, "stagger", "churn", int)
                if "stagger" in params else 0
            ),
        }
        PeriodicChurn(parsed["period"], parsed["down"], parsed["stagger"])
        return parsed
    if policy == "random":
        _take(params, "churn random", ("p", "period", "down"))
        parsed = {
            "policy": "random",
            "p": _num(params, "p", "churn"),
            "period": _num(params, "period", "churn", int),
            "down": _num(params, "down", "churn", int),
        }
        RandomChurn(parsed["p"], parsed["period"], parsed["down"])
        return parsed
    raise ValueError(
        f"unknown churn policy {policy!r}; expected "
        f"'periodic:period=P,down=D[,stagger=S]' or "
        f"'random:p=R,period=P,down=D'"
    )


def parse_jam_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``jam`` spec string; raises ``ValueError`` on nonsense."""
    policy, _, body = spec.partition(":")
    params = _parse_kv(body, "jam")
    if policy == "periodic":
        _take(params, "jam periodic", ("period",), ("offset",))
        parsed: Dict[str, Any] = {
            "policy": "periodic",
            "period": _num(params, "period", "jam", int),
            "offset": (
                _num(params, "offset", "jam", int)
                if "offset" in params else 0
            ),
        }
        PeriodicJammer(parsed["period"], parsed["offset"])
        return parsed
    if policy == "random":
        _take(params, "jam random", ("rate",))
        parsed = {"policy": "random", "rate": _num(params, "rate", "jam")}
        RandomJammer(parsed["rate"])
        return parsed
    if policy == "reactive":
        _take(params, "jam reactive", (), ("min",))
        parsed = {
            "policy": "reactive",
            "min": _num(params, "min", "jam", int) if "min" in params else 1,
        }
        ReactiveJammer(parsed["min"])
        return parsed
    raise ValueError(
        f"unknown jam policy {policy!r}; expected "
        f"'periodic:period=P[,offset=K]', 'random:rate=R', or "
        f"'reactive[:min=K]'"
    )


def parse_burst_loss_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``burst_loss`` (Gilbert-Elliott) spec string."""
    params = _parse_kv(spec, "burst_loss")
    _take(params, "burst_loss", ("p_gb", "p_bg"), ("good", "bad"))
    parsed = {
        "p_gb": _num(params, "p_gb", "burst_loss"),
        "p_bg": _num(params, "p_bg", "burst_loss"),
        "good": _num(params, "good", "burst_loss") if "good" in params else 0.0,
        "bad": _num(params, "bad", "burst_loss") if "bad" in params else 1.0,
    }
    for label in ("p_gb", "p_bg", "good", "bad"):
        if not 0 <= parsed[label] <= 1:
            raise ValueError(
                f"Gilbert-Elliott rate {label} must be in [0,1], "
                f"got {parsed[label]}"
            )
    return parsed


_PARSERS = {
    "churn": parse_churn_spec,
    "jam": parse_jam_spec,
    "burst_loss": parse_burst_loss_spec,
}


def validate_fault_spec(field: str, spec: str) -> None:
    """Validate one fault spec string (the ExecutionConfig door)."""
    _PARSERS[field](spec)


# --- per-trial materialization ---------------------------------------------


class FaultPlan:
    """Parsed fault configuration, shared by every execution layer.

    Built once per batch from an
    :class:`~repro.sim.config.ExecutionConfig` via
    :func:`parse_fault_specs`; :meth:`for_trial` materializes the
    per-trial fault objects (model wrappers seeded by the trial seed,
    plus that trial's :class:`CrashSchedule`).  Every executor reaches
    it through the one :meth:`repro.sim.trial.TrialSetup.faults`, so
    "the same faults in oracle form" is a construction guarantee, not a
    convention.
    """

    __slots__ = ("churn_params", "jam_params", "burst_params")

    def __init__(
        self,
        churn: Optional[str] = None,
        jam: Optional[str] = None,
        burst_loss: Optional[str] = None,
    ) -> None:
        self.churn_params = parse_churn_spec(churn) if churn else None
        self.jam_params = parse_jam_spec(jam) if jam else None
        self.burst_params = parse_burst_loss_spec(burst_loss) if burst_loss else None

    def build_churn(self, seed: int) -> Optional[CrashSchedule]:
        params = self.churn_params
        if params is None:
            return None
        if params["policy"] == "periodic":
            return PeriodicChurn(
                params["period"], params["down"], params["stagger"]
            )
        return RandomChurn(
            params["p"], params["period"], params["down"], seed=seed
        )

    def build_jammer(self, seed: int) -> Optional[Jammer]:
        params = self.jam_params
        if params is None:
            return None
        if params["policy"] == "periodic":
            return PeriodicJammer(params["period"], params["offset"])
        if params["policy"] == "random":
            return RandomJammer(params["rate"], seed=seed)
        return ReactiveJammer(params["min"])

    def for_trial(
        self, model: ChannelModel, seed: int
    ) -> Tuple[ChannelModel, Optional[CrashSchedule]]:
        """(possibly wrapped model, churn schedule) for one trial seed."""
        burst = self.burst_params
        if burst is not None:
            model = GilbertElliottModel(
                model, burst["p_gb"], burst["p_bg"],
                burst["good"], burst["bad"], seed=seed,
            )
        jammer = self.build_jammer(seed)
        if jammer is not None:
            model = JammedModel(model, jammer)
        return model, self.build_churn(seed)


def parse_fault_specs(config) -> Optional[FaultPlan]:
    """The :class:`FaultPlan` for an ExecutionConfig, or None when no
    fault field is set (the clean path stays byte-untouched)."""
    churn = getattr(config, "churn", None)
    jam = getattr(config, "jam", None)
    burst = getattr(config, "burst_loss", None)
    if not (churn or jam or burst):
        return None
    return FaultPlan(churn, jam, burst)
