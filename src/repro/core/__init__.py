"""Core building blocks: SR-communication, casts, labelings, clusterings.

**Fixed-frame contract.**  Every generator in this package consumes an
identical, parameter-determined number of slots on every vertex (senders,
receivers, and bystanders alike), so protocols composed from these pieces
stay slot-synchronized across the network without any explicit barrier.
"""

from repro.core.casts import all_cast, cast_sequence_slots, down_cast, identity, up_cast
from repro.core.clustering import broadcast_on_labeling, refine_labeling, refine_slots
from repro.core.labeling import is_good_labeling, layer_zero
from repro.core.schemes import SRScheme
from repro.core.sr_comm import (
    CDParams,
    DecayParams,
    Role,
    det_frame_length,
    sr_cd,
    sr_det_cd,
    sr_det_cd_payload,
    sr_local,
    sr_nocd,
)

__all__ = [
    "all_cast",
    "cast_sequence_slots",
    "down_cast",
    "identity",
    "up_cast",
    "broadcast_on_labeling",
    "refine_labeling",
    "refine_slots",
    "is_good_labeling",
    "layer_zero",
    "SRScheme",
    "CDParams",
    "DecayParams",
    "Role",
    "det_frame_length",
    "sr_cd",
    "sr_det_cd",
    "sr_det_cd_payload",
    "sr_local",
    "sr_nocd",
]
