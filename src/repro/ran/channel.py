"""LTE channel model: CQI reporting and CQI→spectral-efficiency mapping.

The CQI table is the 4-bit table from 3GPP TS 36.213 (Table 7.2.3-1).
Spectral efficiency is bits per resource element; throughput per PRB
follows from the 12 subcarriers × 14 OFDM symbols per 1 ms subframe,
minus a control/reference-signal overhead fraction.

A UE's channel quality is its mean SNR (cell-center vs. cell-edge)
mapped onto CQI; fading is not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CqiEntry:
    """One row of the 3GPP CQI table.

    Attributes:
        cqi: Index 0-15 (0 = out of range).
        modulation: Modulation scheme name.
        code_rate: Effective code rate × 1024.
        efficiency: Spectral efficiency in bits per resource element.
    """

    cqi: int
    modulation: str
    code_rate: int
    efficiency: float


# 3GPP TS 36.213 Table 7.2.3-1 (CQI 0 means "out of range": no service).
CQI_TABLE: tuple[CqiEntry, ...] = (
    CqiEntry(0, "none", 0, 0.0),
    CqiEntry(1, "QPSK", 78, 0.1523),
    CqiEntry(2, "QPSK", 120, 0.2344),
    CqiEntry(3, "QPSK", 193, 0.3770),
    CqiEntry(4, "QPSK", 308, 0.6016),
    CqiEntry(5, "QPSK", 449, 0.8770),
    CqiEntry(6, "QPSK", 602, 1.1758),
    CqiEntry(7, "16QAM", 378, 1.4766),
    CqiEntry(8, "16QAM", 490, 1.9141),
    CqiEntry(9, "16QAM", 616, 2.4063),
    CqiEntry(10, "64QAM", 466, 2.7305),
    CqiEntry(11, "64QAM", 567, 3.3223),
    CqiEntry(12, "64QAM", 666, 3.9023),
    CqiEntry(13, "64QAM", 772, 4.5234),
    CqiEntry(14, "64QAM", 873, 5.1152),
    CqiEntry(15, "64QAM", 948, 5.5547),
)

#: Resource elements per PRB per 1 ms subframe (12 subcarriers × 14 symbols).
RE_PER_PRB_PER_MS = 12 * 14

#: Fraction of resource elements lost to PDCCH/CRS/PBCH overhead.
DEFAULT_OVERHEAD = 0.25

# SNR thresholds (dB) at which each CQI becomes decodable; approximately
# linear fit used widely in system-level LTE simulators.
_SNR_TO_CQI_SLOPE = 16.62 / 15.0  # dB per CQI step
_SNR_AT_CQI1 = -6.7


def efficiency_for_cqi(cqi: int) -> float:
    """Spectral efficiency (bits per RE) for a CQI index.

    Raises:
        ValueError: If ``cqi`` is outside 0-15.
    """
    if not 0 <= cqi <= 15:
        raise ValueError(f"CQI must be in [0, 15], got {cqi}")
    return CQI_TABLE[cqi].efficiency


def cqi_for_snr(snr_db: float) -> int:
    """Map an SNR sample to the highest decodable CQI (0 if out of range)."""
    if snr_db < _SNR_AT_CQI1:
        return 0
    cqi = 1 + int((snr_db - _SNR_AT_CQI1) / _SNR_TO_CQI_SLOPE)
    return min(cqi, 15)


def throughput_per_prb_mbps(cqi: int, overhead: float = DEFAULT_OVERHEAD) -> float:
    """Achievable throughput of a single PRB at ``cqi``, in Mb/s.

    One PRB delivers ``efficiency × RE_PER_PRB_PER_MS × (1 - overhead)``
    bits per millisecond.
    """
    if not 0.0 <= overhead < 1.0:
        raise ValueError(f"overhead must be in [0, 1), got {overhead}")
    bits_per_ms = efficiency_for_cqi(cqi) * RE_PER_PRB_PER_MS * (1.0 - overhead)
    return bits_per_ms / 1_000.0  # kb/ms == Mb/s


class ChannelModel:
    """A UE's radio condition: ``mean_snr_db`` (cell-center vs.
    cell-edge) and the CQI it reports."""

    def __init__(self, mean_snr_db: float = 12.0) -> None:
        self.mean_snr_db = float(mean_snr_db)

    def cqi(self) -> int:
        """CQI corresponding to the mean SNR."""
        return cqi_for_snr(self.mean_snr_db)


__all__ = [
    "CQI_TABLE",
    "ChannelModel",
    "CqiEntry",
    "DEFAULT_OVERHEAD",
    "RE_PER_PRB_PER_MS",
    "cqi_for_snr",
    "efficiency_for_cqi",
    "throughput_per_prb_mbps",
]
