"""EPC network functions and the per-slice vEPC Heat template.

OpenEPC 7 packages the core functions as separate VMs; we mirror the
canonical four-box split.  Flavors follow typical vEPC sizing for a
small-cell deployment (the control-plane boxes are small; the PGW, which
forwards user-plane traffic, is the largest).
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.cloud.flavors import FLAVORS, Flavor
from repro.cloud.heat import HeatTemplate, StackResource


class EpcComponentType(enum.Enum):
    """The four EPC network functions deployed per slice."""

    MME = "mme"  # mobility management entity (control plane)
    HSS = "hss"  # home subscriber server (subscription DB)
    SGW = "sgw"  # serving gateway (user plane anchor, RAN side)
    PGW = "pgw"  # packet data network gateway (user plane, internet side)


#: Flavor of each component's VM.
EPC_COMPONENT_FLAVORS: Dict[EpcComponentType, Flavor] = {
    EpcComponentType.MME: FLAVORS["m1.small"],
    EpcComponentType.HSS: FLAVORS["m1.small"],
    EpcComponentType.SGW: FLAVORS["m1.medium"],
    EpcComponentType.PGW: FLAVORS["m1.medium"],
}

#: The flavors one vEPC boots — what ``epc_template(...).flavors()``
#: lists, for callers that need no named template.
EPC_FLAVORS = tuple(EPC_COMPONENT_FLAVORS.values())

#: Per-component processing latency (ms) added to control-plane procedures.
EPC_PROCESSING_MS: Dict[EpcComponentType, float] = {
    EpcComponentType.MME: 2.0,
    EpcComponentType.HSS: 1.5,
    EpcComponentType.SGW: 1.0,
    EpcComponentType.PGW: 1.0,
}


def epc_template(slice_id: str) -> HeatTemplate:
    """Build the Heat template instantiating one vEPC for ``slice_id``."""
    resources = tuple(
        StackResource(name=component.value, flavor=flavor)
        for component, flavor in EPC_COMPONENT_FLAVORS.items()
    )
    return HeatTemplate(name=f"vEPC-{slice_id}", resources=resources)


__all__ = [
    "EPC_COMPONENT_FLAVORS",
    "EPC_FLAVORS",
    "EPC_PROCESSING_MS",
    "EpcComponentType",
    "epc_template",
]
