"""OpenStack-style instance flavors.

A flavor fixes the vCPU/RAM/disk footprint of a VM.  The preset table
covers the sizes the per-slice vEPC components need plus generic sizes
for edge-application workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Flavor:
    """Resource footprint of one VM.

    Attributes:
        name: Flavor identifier (OpenStack naming convention).
        vcpus: Virtual CPU cores.
        ram_gb: Memory in GiB.
        disk_gb: Root disk in GiB.
    """

    name: str
    vcpus: int
    ram_gb: float
    disk_gb: float

    def __post_init__(self) -> None:
        if self.vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {self.vcpus}")
        if self.ram_gb <= 0:
            raise ValueError(f"ram must be positive, got {self.ram_gb}")
        if self.disk_gb <= 0:
            raise ValueError(f"disk must be positive, got {self.disk_gb}")

    def fits_within(self, vcpus: int, ram_gb: float, disk_gb: float) -> bool:
        """Whether this flavor fits in the given free resources."""
        return (
            self.vcpus <= vcpus
            and self.ram_gb <= ram_gb + 1e-9
            and self.disk_gb <= disk_gb + 1e-9
        )


FLAVORS: Dict[str, Flavor] = {
    "m1.tiny": Flavor("m1.tiny", vcpus=1, ram_gb=0.5, disk_gb=1.0),
    "m1.small": Flavor("m1.small", vcpus=1, ram_gb=2.0, disk_gb=20.0),
    "m1.medium": Flavor("m1.medium", vcpus=2, ram_gb=4.0, disk_gb=40.0),
    "m1.large": Flavor("m1.large", vcpus=4, ram_gb=8.0, disk_gb=80.0),
    "m1.xlarge": Flavor("m1.xlarge", vcpus=8, ram_gb=16.0, disk_gb=160.0),
}


__all__ = ["FLAVORS", "Flavor"]
