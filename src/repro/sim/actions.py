"""Per-slot device actions.

The paper's model (Section 1, "The Model") gives each device three choices
per time slot: send a message, listen, or remain idle.  Sending and
listening cost one unit of energy; idling is free.  We add a fourth action,
:class:`SendListen`, for the full-duplex variants the paper uses in its
lower-bound reductions (Theorem 2) and in the path algorithm (Section 8,
"full duplex LOCAL model").

Protocols are generators that ``yield`` one action per step and receive the
channel feedback for that action via ``generator.send``.  ``Idle`` may span
many slots so that sleeping devices cost the simulator O(1) work, mirroring
the model's "idle time is free".
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = ["Send", "Listen", "SendListen", "Idle", "Action"]


# Plain __slots__ classes, like the plan classes in repro.sim.plan and
# for the same reason: protocols build one or more per step on the hot
# path, and a frozen dataclass's __init__ (object.__setattr__ per field)
# costs over twice a plain attribute store.  Instances are immutable by
# convention; there is deliberately no __setattr__ guard, which would
# give back over half of that saving.


class _Action:
    """Value semantics shared by the actions: equality on the exact class
    and the field tuple, the hash of the field tuple, and a
    ``Name(field=value)`` repr."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({fields})"


class Send(_Action):
    """Transmit ``message`` this slot.  Costs 1 energy.  Feedback: ``None``."""

    __slots__ = ("message",)
    _fields = ("message",)

    def __init__(self, message: Any) -> None:
        self.message = message


class Listen(_Action):
    """Listen this slot.  Costs 1 energy.

    Feedback depends on the collision model; see :mod:`repro.sim.models`.
    """

    __slots__ = ()


class SendListen(_Action):
    """Transmit ``message`` and listen in the same slot (full duplex).

    Costs 1 energy (one slot of transceiver usage).  Only legal in models
    whose :attr:`~repro.sim.models.ChannelModel.full_duplex` flag is set.
    The sender does not hear its own transmission.
    """

    __slots__ = ("message",)
    _fields = ("message",)

    def __init__(self, message: Any) -> None:
        self.message = message


class Idle(_Action):
    """Sleep for ``duration`` consecutive slots.  Free.  Feedback: ``None``."""

    __slots__ = ("duration",)
    _fields = ("duration",)

    def __init__(self, duration: int = 1) -> None:
        if duration < 1:
            raise ValueError(f"Idle duration must be >= 1, got {duration}")
        self.duration = duration


Action = (Send, Listen, SendListen, Idle)
