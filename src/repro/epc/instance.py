"""Per-slice vEPC instance.

Wraps the Heat stack holding the four EPC VMs and exposes the
control-plane surface the attach procedure needs: subscriber
provisioning in the HSS and session/bearer state in SGW/PGW.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cloud.heat import HeatStack, StackState
from repro.epc.components import EPC_PROCESSING_MS


class EpcError(RuntimeError):
    """Raised on EPC control-plane violations."""


class EpcInstance:
    """One slice's virtualized core network.

    Args:
        slice_id: Owning slice.
        plmn_id: PLMN this core serves (UE IMSIs must start with it).
        stack: The CREATE_COMPLETE Heat stack hosting the four VMs.
    """

    def __init__(self, slice_id: str, plmn_id: str, stack: HeatStack) -> None:
        if stack.state is not StackState.CREATE_COMPLETE:
            raise EpcError(
                f"cannot bind EPC to stack in state {stack.state.value}"
            )
        self.slice_id = slice_id
        self.plmn_id = plmn_id
        self.stack = stack
        self._subscribers: Set[str] = set()  # provisioned IMSIs (HSS)
        self._sessions: Dict[str, int] = {}  # imsi -> bearer id (SGW/PGW)
        self._bearer_counter = 0
        self.running = True

    # ------------------------------------------------------------------
    # HSS surface
    # ------------------------------------------------------------------
    def provision_subscriber(self, imsi: str) -> None:
        """Add an IMSI to the HSS.

        Raises:
            EpcError: If the IMSI belongs to a foreign PLMN or is a
                duplicate.
        """
        if not imsi.startswith(self.plmn_id):
            raise EpcError(
                f"IMSI {imsi} does not belong to PLMN {self.plmn_id}"
            )
        if imsi in self._subscribers:
            raise EpcError(f"IMSI {imsi} already provisioned")
        self._subscribers.add(imsi)

    def is_subscriber(self, imsi: str) -> bool:
        """HSS lookup: whether the IMSI may attach."""
        return imsi in self._subscribers

    @property
    def subscriber_count(self) -> int:
        """Number of provisioned IMSIs."""
        return len(self._subscribers)

    # ------------------------------------------------------------------
    # Session management (SGW/PGW surface)
    # ------------------------------------------------------------------
    def create_session(self, imsi: str) -> int:
        """Establish the default bearer for an authenticated UE.

        Returns:
            The new bearer id.

        Raises:
            EpcError: If the EPC is down, the IMSI is unknown, or a
                session already exists.
        """
        if not self.running:
            raise EpcError(f"EPC of slice {self.slice_id} is not running")
        if imsi not in self._subscribers:
            raise EpcError(f"unknown IMSI {imsi} (authentication failure)")
        if imsi in self._sessions:
            raise EpcError(f"IMSI {imsi} already has an active session")
        self._bearer_counter += 1
        self._sessions[imsi] = self._bearer_counter
        return self._bearer_counter

    def delete_session(self, imsi: str) -> None:
        """Tear down the UE's bearer."""
        if imsi not in self._sessions:
            raise EpcError(f"IMSI {imsi} has no session")
        del self._sessions[imsi]

    def session_of(self, imsi: str) -> Optional[int]:
        """Bearer id of the IMSI (None if detached)."""
        return self._sessions.get(imsi)

    @property
    def active_sessions(self) -> int:
        """Count of established bearers."""
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop serving (stack deletion happens at the cloud controller)."""
        self.running = False
        self._sessions.clear()

    def control_plane_latency_ms(self) -> float:
        """Summed per-component processing latency of one attach pass."""
        return sum(EPC_PROCESSING_MS.values())

__all__ = ["EpcError", "EpcInstance"]
