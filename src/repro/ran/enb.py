"""eNodeB model with MOCN RAN sharing.

Mirrors the demo's NEC MB4420 small cells: a single LTE carrier whose
PRBs are split among slices, broadcasting up to ``max_plmns`` PLMN
identities simultaneously (the Multi-Operator Core Network sharing
model).  Slices are installed by adding their PLMN to the broadcast list
and reserving a PRB share; UEs provisioned with that PLMN can then
attach.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.core.slices import PLMN
from repro.ran.channel import throughput_per_prb_mbps
from repro.ran.prb import PrbGrid
from repro.ran.ue import UserEquipment


class RanConfigError(RuntimeError):
    """Raised on illegal eNB configuration actions."""


class ENodeB:
    """One LTE cell with per-slice PRB reservations and PLMN broadcast.

    Args:
        enb_id: Unique cell identifier.
        bandwidth_mhz: Standard LTE channel bandwidth (determines PRBs).
        max_plmns: MOCN broadcast capacity (6 per Rel-11 SIB1).
        reference_cqi: CQI used for dimensioning (PRBs-for-throughput
            conversions) when no live UE reports exist.
        transport_node: Name of the transport-graph node this cell hangs
            off (set by the testbed builder).
    """

    def __init__(
        self,
        enb_id: str,
        bandwidth_mhz: float = 20.0,
        max_plmns: int = 6,
        reference_cqi: int = 12,
        transport_node: Optional[str] = None,
    ) -> None:
        if max_plmns <= 0:
            raise RanConfigError(f"max_plmns must be positive, got {max_plmns}")
        if not 1 <= reference_cqi <= 15:
            raise RanConfigError(f"reference CQI must be in [1, 15], got {reference_cqi}")
        self.enb_id = enb_id
        self.grid = PrbGrid(bandwidth_mhz)
        self.max_plmns = int(max_plmns)
        self.reference_cqi = int(reference_cqi)
        self.transport_node = transport_node or f"{enb_id}-agg"
        self._broadcast: Dict[str, PLMN] = {}  # slice_id -> PLMN
        self._ues: Dict[str, List[UserEquipment]] = {}  # slice_id -> UEs
        #: Invoked after every mutation that changes the cell's free
        #: capacity or PLMN occupancy.  The owning RanController hooks
        #: this to keep its free-capacity index delta-maintained even
        #: for callers that mutate the cell directly.
        self.on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    # Dimensioning helpers
    # ------------------------------------------------------------------
    def throughput_per_prb(self, cqi: Optional[int] = None) -> float:
        """Mb/s one PRB yields at ``cqi`` (default: the reference CQI)."""
        return throughput_per_prb_mbps(cqi if cqi is not None else self.reference_cqi)

    def prbs_for_throughput(self, mbps: float, cqi: Optional[int] = None) -> int:
        """PRBs needed to carry ``mbps`` at ``cqi`` (ceil, ≥ 1)."""
        if mbps <= 0:
            raise RanConfigError(f"throughput must be positive, got {mbps}")
        per_prb = self.throughput_per_prb(cqi)
        return max(1, math.ceil(mbps / per_prb))

    # ------------------------------------------------------------------
    # Slice installation (MOCN)
    # ------------------------------------------------------------------
    @property
    def broadcast_plmns(self) -> List[PLMN]:
        """PLMNs currently in the broadcast list."""
        return list(self._broadcast.values())

    def broadcasts(self, plmn_id: str) -> bool:
        """Whether the cell currently broadcasts ``plmn_id``."""
        return any(p.plmn_id == plmn_id for p in self._broadcast.values())

    def install_slice(
        self, slice_id: str, plmn: PLMN, nominal_prbs: int, effective_prbs: int
    ) -> None:
        """Add the slice's PLMN to the broadcast list and reserve PRBs.

        Raises:
            RanConfigError: If the PLMN list is full or the PLMN is a
                duplicate; PRB errors propagate from the grid.
        """
        if slice_id in self._broadcast:
            raise RanConfigError(f"slice {slice_id} already installed on {self.enb_id}")
        if len(self._broadcast) >= self.max_plmns:
            raise RanConfigError(
                f"{self.enb_id} already broadcasts {self.max_plmns} PLMNs (MOCN limit)"
            )
        if self.broadcasts(plmn.plmn_id):
            raise RanConfigError(f"{self.enb_id} already broadcasts PLMN {plmn}")
        self.grid.reserve(slice_id, nominal_prbs, effective_prbs)
        self._broadcast[slice_id] = plmn
        self._ues.setdefault(slice_id, [])
        self._changed()

    def renominate_slice(self, slice_id: str, nominal_prbs: int, effective_prbs: int) -> None:
        """Re-dimension the slice's reservation (rescale or overbooking move)."""
        if slice_id not in self._broadcast:
            raise RanConfigError(f"slice {slice_id} not installed on {self.enb_id}")
        self.grid.renominate(slice_id, nominal_prbs, effective_prbs)
        self._changed()

    def remove_slice(self, slice_id: str) -> None:
        """Stop broadcasting the slice's PLMN and free its PRBs."""
        if slice_id not in self._broadcast:
            raise RanConfigError(f"slice {slice_id} not installed on {self.enb_id}")
        for ue in self._ues.get(slice_id, []):
            if ue.attached:
                ue.detach()
        del self._broadcast[slice_id]
        self._ues.pop(slice_id, None)
        self.grid.release(slice_id)
        self._changed()

    def installed_slices(self) -> List[str]:
        """Slice ids installed on this cell."""
        return list(self._broadcast)

    def installed_count(self) -> int:
        """Number of slices installed on this cell (O(1))."""
        return len(self._broadcast)

    # ------------------------------------------------------------------
    # UEs
    # ------------------------------------------------------------------
    def register_ue(self, ue: UserEquipment) -> None:
        """Associate a UE with its slice on this cell.

        Raises:
            RanConfigError: If the UE's slice is not installed here.
        """
        if ue.slice_id not in self._broadcast:
            raise RanConfigError(
                f"slice {ue.slice_id} not installed on {self.enb_id}; UE cannot camp"
            )
        self._ues[ue.slice_id].append(ue)

    def utilization(self) -> dict:
        """Telemetry snapshot consumed by the RAN controller."""
        return {
            "enb_id": self.enb_id,
            "total_prbs": self.grid.total_prbs,
            "effective_reserved": self.grid.effective_reserved,
            "nominal_reserved": self.grid.nominal_reserved,
            "free_prbs": self.grid.free_prbs,
            "overbooking_ratio": self.grid.overbooking_ratio,
            "plmns": [str(p) for p in self.broadcast_plmns],
            "slices": self.installed_slices(),
        }

__all__ = ["ENodeB", "RanConfigError"]
