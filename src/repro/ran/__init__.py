"""Radio access network substrate.

Replaces the demo's two NEC MB4420 LTE small cells with a
standards-derived model: 3GPP CQI→MCS mapping, PRB grids per channel
bandwidth, MOCN multi-PLMN broadcast with per-slice PRB reservations,
UE populations with stochastic channel quality, the MAC scheduler and the
RAN domain controller the orchestrator talks to.
"""

from repro.ran.channel import CqiEntry, CQI_TABLE, ChannelModel, efficiency_for_cqi
from repro.ran.prb import PRB_GRID, PrbGrid, prbs_for_bandwidth
from repro.ran.enb import ENodeB, RanConfigError
from repro.ran.ue import UserEquipment, AttachState
from repro.ran.scheduler import SliceAwareScheduler
from repro.ran.controller import RanController

__all__ = [
    "AttachState",
    "CQI_TABLE",
    "ChannelModel",
    "CqiEntry",
    "ENodeB",
    "PRB_GRID",
    "PrbGrid",
    "RanConfigError",
    "RanController",
    "SliceAwareScheduler",
    "UserEquipment",
    "efficiency_for_cqi",
    "prbs_for_bandwidth",
]
