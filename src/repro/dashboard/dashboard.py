"""The control dashboard.

Consumes :meth:`repro.core.orchestrator.Orchestrator.snapshot` and
renders the three panels the demo shows live: the slice table, the
per-domain utilization bars, and the gain-vs-penalty headline.
"""

from __future__ import annotations

from repro.core.orchestrator import Orchestrator
from repro.dashboard.reports import format_table, gain_vs_penalty_report, sparkline


class Dashboard:
    """Text/JSON views over a live orchestrator."""

    def __init__(self, orchestrator: Orchestrator) -> None:
        self.orchestrator = orchestrator

    # ------------------------------------------------------------------
    # Panels
    # ------------------------------------------------------------------
    def slice_table(self) -> str:
        """The installed-slices panel."""
        snapshot = self.orchestrator.snapshot()
        headers = [
            "slice", "tenant", "type", "state", "plmn",
            "thr(Mb/s)", "lat(ms)", "price", "viol", "sla",
        ]
        rows = [
            [
                s["slice_id"],
                s["tenant"],
                s["service_type"],
                s["state"],
                s["plmn"] or "-",
                s["throughput_mbps"],
                s["max_latency_ms"],
                s["price"],
                s["violation_epochs"],
                "ok" if s["sla_met"] else "BREACH",
            ]
            for s in snapshot["slices"]
        ]
        return format_table(headers, rows)

    def domain_panel(self) -> str:
        """Per-domain utilization bars (effective vs. nominal)."""
        snapshot = self.orchestrator.snapshot()
        ran = snapshot["domains"]["ran"]
        transport = snapshot["domains"]["transport"]
        cloud = snapshot["domains"]["cloud"]
        rows = [
            [
                "ran (PRBs)",
                f"{ran['effective_reserved']}/{ran['total_prbs']}",
                f"{ran['nominal_reserved']}/{ran['total_prbs']}",
                self._bar(ran["effective_reserved"], ran["total_prbs"]),
            ],
            [
                "transport (Mb/s)",
                f"{transport['effective_reserved_mbps']:.0f}/{transport['total_capacity_mbps']:.0f}",
                f"{transport['nominal_reserved_mbps']:.0f}/{transport['total_capacity_mbps']:.0f}",
                self._bar(
                    transport["effective_reserved_mbps"],
                    transport["total_capacity_mbps"],
                ),
            ],
            [
                "cloud (vCPUs)",
                f"{cloud['total_vcpus'] - cloud['free_vcpus']}/{cloud['total_vcpus']}",
                "-",
                self._bar(
                    cloud["total_vcpus"] - cloud["free_vcpus"], cloud["total_vcpus"]
                ),
            ],
        ]
        return format_table(["domain", "effective", "nominal", "load"], rows)

    @staticmethod
    def _bar(used: float, total: float, width: int = 20) -> str:
        if total <= 0:
            return "." * width
        filled = int(round(width * min(1.0, used / total)))
        return "#" * filled + "." * (width - filled)

    def headline(self) -> str:
        """The gains-vs-penalties headline box (with a gain sparkline)."""
        snapshot = self.orchestrator.snapshot()
        ledger = snapshot["ledger"]
        report = gain_vs_penalty_report(
            gain=snapshot["multiplexing_gain"],
            gross_revenue=ledger["gross_revenue"],
            penalties=ledger["total_penalties"],
            violation_rate=snapshot["violation_rate"],
        )
        spark = self.gain_sparkline()
        if spark:
            report += f"\ngain history           : {spark}"
        return report

    def gain_sparkline(self, width: int = 40) -> str:
        """Sparkline of the recorded multiplexing-gain series."""
        series = self.orchestrator.fleet.gain_tracker.series
        if not series:
            return ""
        return sparkline(series.tolist(), width=width)

    def calendar_panel(self) -> str:
        """Upcoming advance bookings (empty string when none pending)."""
        now = self.orchestrator.sim.now
        upcoming = [
            b for b in self.orchestrator.calendar.bookings() if b.start > now
        ]
        if not upcoming:
            return ""
        rows = [
            [b.booking_id, b.start, b.end, b.demand.prbs, b.demand.mbps]
            for b in upcoming
        ]
        return format_table(
            ["booking", "start_s", "end_s", "prbs", "mbps"], rows
        )

    # ------------------------------------------------------------------
    # Full views
    # ------------------------------------------------------------------
    def render(self) -> str:
        """All panels, ready to print."""
        snapshot = self.orchestrator.snapshot()
        parts = [
            f"t = {snapshot['time']:.0f} s   active slices: {snapshot['active']}   "
            f"acceptance: {snapshot['ledger']['acceptance_ratio']:.0%}",
            "",
            self.headline(),
            "",
            "--- Domains ---",
            self.domain_panel(),
            "",
            "--- Slices ---",
            self.slice_table(),
        ]
        calendar = self.calendar_panel()
        if calendar:
            parts.extend(["", "--- Upcoming bookings ---", calendar])
        return "\n".join(parts)

__all__ = ["Dashboard"]
