"""Pluggable reception-resolution backends.

Channel resolution — "what does each listener hear, given who
transmitted this slot?" — is the engine's hot path, and the best
implementation depends on the workload.  This module packages the two
strategies behind one interface so the engine can swap them via the
``resolution`` execution option (the trial-SoA engine builds on the
numpy backend's mask table):

* ``"bitmask"`` — arbitrary-precision int masks: OR the transmitters
  into one big-int ``transmit_mask``; each listener's contention count
  is ``popcount(neighbor_mask & transmit_mask)``.  One AND per listener
  regardless of degree.  The default.
* ``"numpy"`` — the same mask algebra over a packed ``uint64`` table
  (:meth:`repro.graphs.graph.Graph.neighbor_mask_array`): every
  listener's count comes out of one vectorized AND + popcount sweep,
  and the channel model classifies the whole count vector at once via
  :meth:`~repro.sim.models.ChannelModel.resolve_count_array`.  Wins
  when many listeners resolve per slot (dense graphs, large n); falls
  back per-listener for ``NEEDS_MESSAGES`` entries (LOCAL with >= 2
  transmitters) and for per-transmission models (``LossyModel``).

A backend is constructed once per (graph, resolution) pair; its
:meth:`ResolutionBackend.slot_resolver` specializes a per-slot closure
for one channel model, so per-run setup (silence caching, count-path
dispatch) happens once, not per slot.  All backends must produce
byte-identical feedback for identical inputs — the differential suite
(tests/test_reference_equivalence.py, tests/test_resolution.py) pins
every backend to the reference oracle's per-neighbor scan.

numpy is an optional dependency (``pip install -e .[fast]``).  When it
is missing, requesting ``resolution="numpy"`` warns once and silently
serves the bitmask backend instead, so configs and campaigns stay
portable across environments.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List

from repro.graphs.graph import Graph
from repro.sim.models import NEEDS_MESSAGES, ChannelModel

try:  # optional acceleration dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

__all__ = [
    "RESOLUTION_MODES",
    "ResolutionBackend",
    "BitmaskBackend",
    "NumpyBackend",
    "create_backend",
    "numpy_available",
]

RESOLUTION_MODES = ("bitmask", "numpy")

# A slot resolver fills ``feedbacks[v]`` for every v in ``receivers``
# given the slot's ``transmitting`` map (vertex -> message).
SlotResolver = Callable[[Dict[int, Any], List[int], Dict[int, Any]], None]

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - exercised on older CI pythons
    def _popcount(x: int) -> int:
        return bin(x).count("1")


def numpy_available() -> bool:
    return _np is not None


def _mask_messages(masked: int, transmitting: Dict[int, Any]) -> List[Any]:
    """Materialize the transmissions selected by ``masked``, ordered by
    sender index ascending (lowest set bit first)."""
    messages = []
    while masked:
        low = masked & -masked
        messages.append(transmitting[low.bit_length() - 1])
        masked ^= low
    return messages


class ResolutionBackend:
    """One strategy for resolving every reception of a slot.

    Instances are per-graph; :meth:`slot_resolver` binds one to a
    channel model, returning the closure the engine calls once per
    active slot.  Stateful models (``supports_count`` False) consume
    channel randomness per reception, so callers must pass their
    receivers in ascending vertex order — the engine sorts them, and
    every backend resolves in the order given.
    """

    name = "?"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def slot_resolver(self, model: ChannelModel) -> SlotResolver:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.graph.n})"


class BitmaskBackend(ResolutionBackend):
    """Big-int neighbor masks + popcount; the default backend."""

    name = "bitmask"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._masks = graph.neighbor_masks()
        self._bits = [1 << v for v in range(graph.n)]

    def slot_resolver(self, model: ChannelModel) -> SlotResolver:
        masks = self._masks
        bits = self._bits
        resolve = model.resolve

        if not model.supports_count:
            def resolve_slot(transmitting, receivers, feedbacks):
                transmit_mask = 0
                for v in transmitting:
                    transmit_mask |= bits[v]
                for v in receivers:
                    feedbacks[v] = resolve(
                        _mask_messages(masks[v] & transmit_mask, transmitting)
                    )

            return resolve_slot

        resolve_count = model.resolve_count
        # All count-based models map k == 0 to a fixed value; cache it so
        # the (typical) silent reception is branch + dict-store only.
        silence = resolve_count(0, None)

        def resolve_slot(transmitting, receivers, feedbacks):
            if not transmitting:
                for v in receivers:
                    feedbacks[v] = silence
                return
            transmit_mask = 0
            for v in transmitting:
                transmit_mask |= bits[v]
            for v in receivers:
                masked = masks[v] & transmit_mask
                if not masked:
                    feedbacks[v] = silence
                    continue
                first = transmitting[(masked & -masked).bit_length() - 1]
                feedback = resolve_count(_popcount(masked), first)
                if feedback is NEEDS_MESSAGES:
                    feedback = resolve(_mask_messages(masked, transmitting))
                feedbacks[v] = feedback

        return resolve_slot


# --- numpy backend ---------------------------------------------------------


def _popcount_rows_native(masked):
    """Per-row popcount over a (R, W) uint64 array via numpy >= 2.0, as
    int64.  Adding the W word columns into one int64 accumulator beats
    ``.sum(axis=1)`` (a reduction over a short inner axis) 2-4x on the
    SoA resolver's shapes, and does not widen to uint64."""
    bits = _np.bitwise_count(masked)
    total = _np.zeros(bits.shape[0], dtype=_np.int64)
    for w in range(bits.shape[1]):
        total += bits[:, w]
    return total


_BYTE_POPCOUNT = None


def _popcount_rows_table(masked):
    """Per-row popcount via a 256-entry byte table (numpy < 2.0)."""
    global _BYTE_POPCOUNT
    if _BYTE_POPCOUNT is None:
        _BYTE_POPCOUNT = _np.array(
            [bin(i).count("1") for i in range(256)], dtype=_np.uint8
        )
    rows = masked.shape[0]
    return _BYTE_POPCOUNT[masked.view(_np.uint8).reshape(rows, -1)].sum(
        axis=1, dtype=_np.int64
    )


def _popcount_rows(masked):
    if hasattr(_np, "bitwise_count"):
        return _popcount_rows_native(masked)
    return _popcount_rows_table(masked)


def _first_transmitters(masked, rows):
    """Lowest set-bit index (= lowest transmitting neighbor) per selected
    row of a (R, W) uint64 mask array.  Every selected row must be
    nonzero (the caller filters on count > 0)."""
    np = _np
    sub = masked[rows]
    # Two's-complement trick per word; uint64 arithmetic wraps mod 2^64.
    low = sub & (np.uint64(0) - sub)
    word = (low != 0).argmax(axis=1)
    lowvals = low[np.arange(sub.shape[0]), word]
    # Powers of two are exact in float64 up to 2^63, so log2 is exact.
    bit = np.log2(lowvals.astype(np.float64)).astype(np.int64)
    return word.astype(np.int64) * 64 + bit


class NumpyBackend(ResolutionBackend):
    """Vectorized mask-table resolution; requires numpy.

    One slot is resolved as a single sweep: gather the receivers' rows
    of the packed ``uint64`` mask table, AND with the slot's transmit
    mask, popcount per row, locate first transmitters where the model
    needs them, and let the model classify the whole count vector.
    """

    name = "numpy"

    def __init__(self, graph: Graph) -> None:
        if _np is None:
            raise ImportError("the numpy resolution backend requires numpy")
        super().__init__(graph)
        self._table = graph.neighbor_mask_array()
        self._words = self._table.shape[1]
        self._masks = graph.neighbor_masks()

    def transmit_mask_words(self, transmitting: Dict[int, Any]):
        """Pack one slot's transmitter set into a (W,) uint64 word array.

        Built as a Python big int first — a handful of small-int ORs —
        then reinterpreted: ``int.to_bytes`` + ``frombuffer`` beats
        scattering bits into the array elementwise.  The result is
        read-only (it aliases the bytes object); use it as an operand.
        """
        mask = 0
        for v in transmitting:
            mask |= 1 << v
        return _np.frombuffer(
            mask.to_bytes(self._words * 8, "little"), dtype=_np.uint64
        )

    def slot_resolver(self, model: ChannelModel) -> SlotResolver:
        np = _np
        table = self._table

        if not model.supports_count:
            # Per-transmission models need the ordered message list per
            # listener; the vector sweep cannot help, so resolve exactly
            # like the bitmask backend's slow path.
            masks = self._masks
            resolve = model.resolve

            def resolve_slot(transmitting, receivers, feedbacks):
                transmit_mask = 0
                for v in transmitting:
                    transmit_mask |= 1 << v
                for v in receivers:
                    feedbacks[v] = resolve(
                        _mask_messages(masks[v] & transmit_mask, transmitting)
                    )

            return resolve_slot

        silence = model.resolve_count(0, None)
        needs_first = model.needs_first_message
        resolve = model.resolve
        masks = self._masks

        def resolve_slot(transmitting, receivers, feedbacks):
            if not transmitting:
                for v in receivers:
                    feedbacks[v] = silence
                return
            if not receivers:
                return
            recv = np.fromiter(receivers, dtype=np.intp, count=len(receivers))
            masked = np.take(table, recv, axis=0)
            np.bitwise_and(masked, self.transmit_mask_words(transmitting),
                           out=masked)
            counts = _popcount_rows(masked)
            firsts = None
            if needs_first != "none":
                select = counts == 1 if needs_first == "one" else counts > 0
                rows = np.nonzero(select)[0]
                # Only the selected rows are ever read (the model's
                # selection is a subset by contract), so the rest of the
                # buffer can stay uninitialized.
                firsts = np.empty(len(receivers), dtype=np.int64)
                if rows.size:
                    firsts[rows] = _first_transmitters(masked, rows)
            out, needs = model.resolve_count_array(
                counts, firsts, transmitting
            )
            if needs:
                transmit_mask = 0
                for v in transmitting:
                    transmit_mask |= 1 << v
                for i in needs:
                    out[i] = resolve(_mask_messages(
                        masks[receivers[i]] & transmit_mask, transmitting
                    ))
            feedbacks.update(zip(receivers, out))

        return resolve_slot


    def trial_matrix_resolver(self):
        """Whole-trial-matrix resolution for the SoA lock-step engine.

        Returns ``resolve(send) -> (counts, masked)`` where ``send`` is a
        boolean ``[trials, nodes]`` matrix of this slot's transmitters
        (one row per in-flight trial) and

        * ``counts`` is the int64 ``[trials, nodes]`` matrix of
          transmitting-neighbor counts — every cell of every trial in one
          AND + popcount sweep over the shared mask table, and
        * ``masked`` is the ``[trials, nodes, words]`` uint64 array of
          per-cell transmitting-neighbor masks (feed it to
          :meth:`first_transmitter_matrix`; extract the transmitting
          senders' bit columns — ``(masked[..., s >> 6] >> (s & 63)) &
          1`` — for the lossy drop-mask path's (receiver, sender) pair
          enumeration; or walk a row's bits for the ordered-message
          slow path).

        The arrays are shaped like the caller's state matrices, so
        reception results scatter straight into struct-of-arrays trial
        state with no per-trial dict hops.
        """
        np = _np
        table = self._table
        words = self._words

        def resolve(send):
            packed = np.packbits(send, axis=1, bitorder="little")
            tmask = np.zeros((send.shape[0], words * 8), dtype=np.uint8)
            tmask[:, : packed.shape[1]] = packed
            masked = table[None, :, :] & tmask.view(np.uint64)[:, None, :]
            counts = _popcount_rows(masked.reshape(-1, words)).reshape(
                send.shape
            )
            return counts, masked

        return resolve

    def first_transmitter_matrix(self, masked, select):
        """Lowest transmitting neighbor per selected cell of a
        ``[trials, nodes, words]`` mask array (from
        :meth:`trial_matrix_resolver`).  Only the cells picked by the
        boolean ``select`` matrix are computed (they must have nonzero
        masks — the caller filters on count); the rest of the returned
        ``[trials, nodes]`` int64 matrix is uninitialized."""
        np = _np
        flat = masked.reshape(-1, masked.shape[-1])
        rows = np.nonzero(select.reshape(-1))[0]
        firsts = np.empty(select.shape, dtype=np.int64)
        if rows.size:
            firsts.reshape(-1)[rows] = _first_transmitters(flat, rows)
        return firsts


_BACKENDS = {
    "bitmask": BitmaskBackend,
    "numpy": NumpyBackend,
}

_warned_numpy_fallback = False


def create_backend(resolution: str, graph: Graph) -> ResolutionBackend:
    """Instantiate the named backend for ``graph``.

    ``"numpy"`` degrades gracefully: when numpy is not importable the
    bitmask backend is returned instead (warning once per process), so
    code written against the fast path still runs everywhere.
    """
    if resolution not in _BACKENDS:
        raise ValueError(
            f"resolution must be one of {RESOLUTION_MODES}, got {resolution!r}"
        )
    if resolution == "numpy" and _np is None:
        global _warned_numpy_fallback
        if not _warned_numpy_fallback:
            _warned_numpy_fallback = True
            warnings.warn(
                "numpy is not installed; resolution='numpy' falls back to "
                "the bitmask backend (pip install -e .[fast] to enable it)",
                RuntimeWarning,
                stacklevel=2,
            )
        resolution = "bitmask"
    return _BACKENDS[resolution](graph)
