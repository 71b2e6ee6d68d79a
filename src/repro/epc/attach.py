"""UE attach procedure.

Reproduces the demo's closing moment: "after few seconds, user devices
associated with the PLMN-id of the new slices are allowed to connect".
The procedure walks the standard LTE message sequence (RRC setup →
Attach Request → HSS auth → Create Session → Attach Accept) and accounts
latency as signalling round trips over the slice's transport path plus
per-EPC-component processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.epc.instance import EpcError, EpcInstance
from repro.ran.enb import ENodeB
from repro.ran.ue import AttachState, UserEquipment

#: RRC connection establishment time over the air (ms).
RRC_SETUP_MS = 15.0

#: Number of one-way transport traversals in the attach sequence
#: (Attach Request up, auth down+up, Create Session up, Accept down).
SIGNALLING_TRAVERSALS = 5


@dataclass
class AttachOutcome:
    """Result of one attach attempt.

    Attributes:
        success: Whether the UE reached ATTACHED.
        latency_ms: Total control-plane latency (0 when failed early).
        bearer_id: Default bearer id on success.
        failure_reason: Diagnostic on failure.
    """

    success: bool
    latency_ms: float
    bearer_id: Optional[int] = None
    failure_reason: Optional[str] = None


class AttachProcedure:
    """Executes attaches for one slice against its eNB + vEPC.

    Args:
        enb: The cell broadcasting the slice's PLMN.
        epc: The slice's vEPC instance.
        transport_delay_ms: One-way delay of the slice's transport path.
    """

    def __init__(self, enb: ENodeB, epc: EpcInstance, transport_delay_ms: float) -> None:
        if transport_delay_ms < 0:
            raise EpcError("transport delay cannot be negative")
        self.enb = enb
        self.epc = epc
        self.transport_delay_ms = float(transport_delay_ms)

    def expected_latency_ms(self) -> float:
        """Deterministic attach latency: RRC + signalling + EPC processing."""
        return (
            RRC_SETUP_MS
            + SIGNALLING_TRAVERSALS * self.transport_delay_ms
            + self.epc.control_plane_latency_ms()
        )

    def attach(self, ue: UserEquipment) -> AttachOutcome:
        """Run the full attach sequence for ``ue``.

        Fails (without raising) when the cell does not broadcast the
        UE's PLMN, the UE is out of coverage (CQI 0), the HSS does not
        know the IMSI, or the EPC is down.
        """
        if ue.state in (AttachState.IDLE, AttachState.DETACHED):
            ue.start_search()
        # Cell selection: the UE only finds a cell broadcasting its PLMN.
        if not self.enb.broadcasts(ue.plmn.plmn_id):
            return AttachOutcome(
                success=False,
                latency_ms=0.0,
                failure_reason=f"PLMN {ue.plmn} not broadcast by {self.enb.enb_id}",
            )
        if ue.channel.cqi() < 1:
            return AttachOutcome(
                success=False, latency_ms=0.0, failure_reason="out of coverage (CQI 0)"
            )
        ue.found_cell(self.enb.enb_id)
        # Attach Request → MME → HSS authentication.
        if not self.epc.is_subscriber(ue.imsi):
            ue.detach()
            return AttachOutcome(
                success=False,
                latency_ms=RRC_SETUP_MS + 2 * self.transport_delay_ms,
                failure_reason=f"IMSI {ue.imsi} rejected by HSS",
            )
        # Create Session at SGW/PGW: default bearer.
        try:
            bearer = self.epc.create_session(ue.imsi)
        except EpcError as exc:
            ue.detach()
            return AttachOutcome(
                success=False,
                latency_ms=RRC_SETUP_MS + 3 * self.transport_delay_ms,
                failure_reason=str(exc),
            )
        latency = self.expected_latency_ms()
        ue.attach_complete(latency / 1_000.0)
        return AttachOutcome(success=True, latency_ms=latency, bearer_id=bearer)

    def detach(self, ue: UserEquipment) -> None:
        """Tear down the UE's bearer and drop it from the cell."""
        if self.epc.session_of(ue.imsi) is not None:
            self.epc.delete_session(ue.imsi)
        ue.detach()


__all__ = [
    "AttachOutcome",
    "AttachProcedure",
    "RRC_SETUP_MS",
    "SIGNALLING_TRAVERSALS",
]
