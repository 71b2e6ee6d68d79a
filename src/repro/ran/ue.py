"""User equipment model.

UEs exist to (i) generate per-slice load on the air interface and (ii)
exercise the PLMN-based slice mapping: a UE is provisioned with the
PLMN-id of its slice and only attaches once an eNB broadcasts it —
exactly the behaviour shown live in the demo ("after few seconds, user
devices associated with the PLMN-id of the new slices are allowed to
connect").
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

import numpy as np

from repro.core.slices import PLMN
from repro.ran.channel import ChannelModel


class AttachState(enum.Enum):
    """EMM-ish attach state of a UE."""

    IDLE = "idle"
    SEARCHING = "searching"
    ATTACHING = "attaching"
    ATTACHED = "attached"
    DETACHED = "detached"


class UeError(RuntimeError):
    """Raised on illegal UE operations."""


_imsi_counter = itertools.count(1)


class UserEquipment:
    """A single UE bound to one slice's PLMN.

    Args:
        plmn: The PLMN identity the UE is provisioned for.
        slice_id: Owning slice (for telemetry attribution).
        channel: Radio condition; defaults to a cell-center one, or to a
            mean SNR drawn from ``rng`` when one is given.
        imsi: 15-digit IMSI; auto-derived from the PLMN when omitted.
    """

    def __init__(
        self,
        plmn: PLMN,
        slice_id: str,
        channel: Optional[ChannelModel] = None,
        imsi: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.plmn = plmn
        self.slice_id = slice_id
        serial = next(_imsi_counter)
        self.imsi = imsi or f"{plmn.plmn_id}{serial:0{15 - len(plmn.plmn_id)}d}"
        if len(self.imsi) != 15 or not self.imsi.isdigit():
            raise UeError(f"IMSI must be 15 digits, got {self.imsi!r}")
        if channel is None:
            mean_snr = 12.0 if rng is None else float(rng.uniform(4.0, 20.0))
            channel = ChannelModel(mean_snr_db=mean_snr)
        self.channel = channel
        self.state = AttachState.IDLE
        self.serving_enb: Optional[str] = None
        self.attach_latency_s: Optional[float] = None
        self.bytes_served = 0.0

    def start_search(self) -> None:
        """Begin scanning for the provisioned PLMN."""
        if self.state not in (AttachState.IDLE, AttachState.DETACHED):
            raise UeError(f"cannot search from state {self.state.value}")
        self.state = AttachState.SEARCHING

    def found_cell(self, enb_id: str) -> None:
        """Cell broadcasting our PLMN found; start the attach procedure."""
        if self.state is not AttachState.SEARCHING:
            raise UeError(f"cannot attach from state {self.state.value}")
        self.state = AttachState.ATTACHING
        self.serving_enb = enb_id

    def attach_complete(self, latency_s: float) -> None:
        """EPC confirmed the default bearer; UE is now served."""
        if self.state is not AttachState.ATTACHING:
            raise UeError(f"cannot complete attach from state {self.state.value}")
        if latency_s < 0:
            raise UeError(f"attach latency cannot be negative, got {latency_s}")
        self.state = AttachState.ATTACHED
        self.attach_latency_s = latency_s

    def detach(self) -> None:
        """Drop from the network (slice expiry or failure)."""
        self.state = AttachState.DETACHED
        self.serving_enb = None

    @property
    def attached(self) -> bool:
        """Whether the UE currently has a default bearer."""
        return self.state is AttachState.ATTACHED


__all__ = ["AttachState", "UeError", "UserEquipment"]
