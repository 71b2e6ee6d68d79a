"""Scenario scoring: the :class:`ScenarioReport` and its digest.

The report is the scenario engine's output contract: every score the
CI gate or a benchmark table consumes lives here, split into

* **deterministic** fields — functions of the spec + seed only (event
  counts, SLA violations, lost/leaked audits, heal convergence in sim
  time).  These are hashed into :attr:`ScenarioReport.digest`, the
  value the determinism property suite pins: same spec + same seed ⇒
  same digest.  (Gross revenue, penalties, multiplexing gain and the
  final active count are deterministic too; they joined the report
  after the first digests were recorded and stay outside the hash,
  which already covers net revenue and every admission decision.)
* **wall-clock** fields — handover/rescale control-plane latencies
  measured with ``perf_counter``.  Reported (they are the point of the
  handover-latency score) but *excluded* from the digest, since wall
  time varies run to run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ScenarioReport", "percentile"]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a sample list (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


@dataclass
class ScenarioReport:
    """Scores of one scenario run (see module docstring for the
    deterministic/wall-clock split)."""

    name: str
    seed: int
    horizon_s: float

    # Admission yield -------------------------------------------------
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0

    # Mobility / handover ---------------------------------------------
    handovers: int = 0
    rescales_attempted: int = 0
    rescales_applied: int = 0
    rescales_rejected: int = 0

    # SLA --------------------------------------------------------------
    sla_epochs: int = 0
    sla_violations: int = 0

    # Failures / heal --------------------------------------------------
    outages: int = 0
    outages_healed: int = 0
    heal_convergence_s: List[Optional[float]] = field(default_factory=list)
    repairs_performed: int = 0

    # End-of-run audit -------------------------------------------------
    lost_slices: List[str] = field(default_factory=list)
    leaked_reservations: List[str] = field(default_factory=list)

    # Economics (the paper's gains vs. penalties) ------------------------
    gross_revenue: float = 0.0
    total_penalties: float = 0.0
    net_revenue: float = 0.0
    mean_multiplexing_gain: float = 0.0
    peak_multiplexing_gain: float = 0.0

    # Bookkeeping ------------------------------------------------------
    events_processed: int = 0
    final_active_slices: int = 0
    outage_detail: List[dict] = field(default_factory=list)
    timeline: List[list] = field(default_factory=list)
    spec_json: str = ""

    # Wall-clock (excluded from the digest) ----------------------------
    handover_latency_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0

    def count(self, admitted: bool) -> None:
        """Book one admission decision, whichever load source asked."""
        self.submitted += 1
        if admitted:
            self.admitted += 1
        else:
            self.rejected += 1

    # ------------------------------------------------------------------
    # Derived scores
    # ------------------------------------------------------------------
    @property
    def admission_yield(self) -> float:
        return self.admitted / self.submitted if self.submitted else 0.0

    @property
    def violation_rate(self) -> float:
        return self.sla_violations / self.sla_epochs if self.sla_epochs else 0.0

    @property
    def heal_convergence_max_s(self) -> float:
        known = [c for c in self.heal_convergence_s if c is not None]
        return max(known) if known else 0.0

    @property
    def handover_p50_ms(self) -> float:
        return percentile(self.handover_latency_ms, 0.50)

    @property
    def handover_p95_ms(self) -> float:
        return percentile(self.handover_latency_ms, 0.95)

    @property
    def clean(self) -> bool:
        """Zero lost slices and zero leaked reservations."""
        return not self.lost_slices and not self.leaked_reservations

    # ------------------------------------------------------------------
    # Digest + serialisation
    # ------------------------------------------------------------------
    def deterministic_dict(self) -> Dict[str, Any]:
        """The digest input: every field that is a pure function of
        spec + seed (no wall-clock measurements)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "spec": self.spec_json,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "handovers": self.handovers,
            "rescales_attempted": self.rescales_attempted,
            "rescales_applied": self.rescales_applied,
            "rescales_rejected": self.rescales_rejected,
            "sla_epochs": self.sla_epochs,
            "sla_violations": self.sla_violations,
            "outages": self.outages,
            "outages_healed": self.outages_healed,
            "heal_convergence_s": self.heal_convergence_s,
            "repairs_performed": self.repairs_performed,
            "lost_slices": self.lost_slices,
            "leaked_reservations": self.leaked_reservations,
            "events_processed": self.events_processed,
            "net_revenue": round(self.net_revenue, 6),
            "timeline": self.timeline,
        }

    @property
    def digest(self) -> str:
        """sha256 over the canonical deterministic payload."""
        canonical = json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def row(self) -> Dict[str, float]:
        """The result row ``repro scenario`` prints and the D-experiment
        tables are cut from."""
        return {
            "requests": self.submitted,
            "admitted": self.admitted,
            "acceptance": self.admission_yield,
            "gross": self.gross_revenue,
            "penalties": self.total_penalties,
            "net": self.net_revenue,
            "viol_rate": self.violation_rate,
            "gain_mean": self.mean_multiplexing_gain,
            "gain_peak": self.peak_multiplexing_gain,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON artifact (``scenario_report.json``)."""
        payload = self.deterministic_dict()
        payload.update(
            {
                "digest": self.digest,
                "admission_yield": round(self.admission_yield, 4),
                "violation_rate": round(self.violation_rate, 4),
                "gross_revenue": round(self.gross_revenue, 6),
                "total_penalties": round(self.total_penalties, 6),
                "mean_multiplexing_gain": round(self.mean_multiplexing_gain, 4),
                "peak_multiplexing_gain": round(self.peak_multiplexing_gain, 4),
                "final_active_slices": self.final_active_slices,
                "heal_convergence_max_s": self.heal_convergence_max_s,
                "outage_detail": self.outage_detail,
                "lost": len(self.lost_slices),
                "leaked": len(self.leaked_reservations),
                "clean": self.clean,
                "handover_p50_ms": round(self.handover_p50_ms, 3),
                "handover_p95_ms": round(self.handover_p95_ms, 3),
                "wall_s": round(self.wall_s, 3),
            }
        )
        return payload

    def summary(self) -> str:
        """One human-readable block for the CLI."""
        lines = [
            f"scenario {self.name} (seed {self.seed}, "
            f"{self.horizon_s / 3600.0:.1f} h simulated, "
            f"{self.wall_s:.1f} s wall)",
            f"  admission   {self.admitted}/{self.submitted} admitted "
            f"(yield {self.admission_yield:.2f})",
            f"  handovers   {self.handovers} "
            f"(rescales {self.rescales_applied}/{self.rescales_attempted} applied, "
            f"p50 {self.handover_p50_ms:.2f} ms, p95 {self.handover_p95_ms:.2f} ms)",
            f"  sla         {self.sla_violations}/{self.sla_epochs} epochs violated "
            f"(rate {self.violation_rate:.4f})",
            f"  outages     {self.outages_healed}/{self.outages} healed, "
            f"max convergence {self.heal_convergence_max_s:.0f} s, "
            f"{self.repairs_performed} path repairs",
            f"  audit       lost={len(self.lost_slices)} "
            f"leaked={len(self.leaked_reservations)} "
            f"({'clean' if self.clean else 'DIRTY'})",
            f"  digest      {self.digest[:16]}…",
        ]
        return "\n".join(lines)
