"""Failure packs: scheduled DC/link/eNB outages *with restoration*.

A :class:`FailurePack` translates the declarative
:class:`~repro.scenarios.spec.FailureSpec` entries onto the concrete
testbed and schedules the fail/restore pairs on the simulator:

* ``link``  → both directions of one duplex transport link
  (``<target>-fwd`` / ``<target>-rev``);
* ``dc``    → the datacenter's attachment links (``switch-edge`` for
  the edge DC — which has *no detour*, so the heal path can only wait
  for restoration; ``core-rtr-dc`` for the core DC);
* ``enb``   → all four directed links of the cell's two uplinks
  (mmWave + µwave), isolating the cell;
* ``driver-stall`` → arms the stall gate of a chaos
  :class:`~repro.drivers.mock.MockDriver` for the window.

Overlapping windows are safe: link state is reference-counted, so a
link shared by two concurrent outages only restores when the *last*
window ends — the "failure strikes again mid-heal" case the chaos
suites pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.drivers.mock import MockDriver
from repro.scenarios.spec import FailureSpec, ScenarioError
from repro.sim.engine import Simulator
from repro.transport.topology import Topology, TopologyError

__all__ = ["FailurePack", "OutageRecord"]

#: Huge stall budget ≈ "every op during the window hangs".
_STALL_ALL = 1_000_000


@dataclass
class OutageRecord:
    """One scheduled outage, annotated by the runner as it progresses."""

    kind: str
    target: str
    start_s: float
    end_s: float
    link_ids: Sequence[str] = ()
    #: Sim time the runner first observed every active path healthy
    #: again after ``start_s`` (None = never converged inside the run).
    converged_at: Optional[float] = None

    @property
    def healed(self) -> bool:
        return self.converged_at is not None

    @property
    def convergence_s(self) -> Optional[float]:
        if self.converged_at is None:
            return None
        return self.converged_at - self.start_s

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "links": list(self.link_ids),
            "converged_at": self.converged_at,
            "convergence_s": self.convergence_s,
            "healed": self.healed,
        }


#: DC id → base link id of its (sole) attachment in the canonical testbed.
_DC_ATTACHMENT = {
    "edge-dc": ("switch-edge",),
    "core-dc": ("core-rtr-dc",),
}


class FailurePack:
    """Schedules a spec's outages onto one testbed + simulator."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        failures: Sequence[FailureSpec],
        chaos_drivers: Optional[Dict[str, MockDriver]] = None,
        on_event: Optional[Callable[[str, FailureSpec], None]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.chaos_drivers = chaos_drivers or {}
        self.on_event = on_event
        #: link id → number of outage windows currently holding it down.
        self._down_count: Dict[str, int] = {}
        self.records: List[OutageRecord] = [
            OutageRecord(
                kind=f.kind,
                target=f.target,
                start_s=f.start_s,
                end_s=f.end_s,
                link_ids=self._resolve_links(f),
            )
            for f in failures
        ]
        self._specs = list(failures)

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve_links(self, failure: FailureSpec) -> List[str]:
        """Concrete directed link ids a failure takes down (empty for
        driver-stall outages)."""
        if failure.kind == "link":
            return self._duplex(failure.target)
        if failure.kind == "dc":
            bases = _DC_ATTACHMENT.get(failure.target)
            if bases is None:
                raise ScenarioError(
                    f"unknown dc {failure.target!r}; "
                    f"expected one of {sorted(_DC_ATTACHMENT)}"
                )
            return [lid for base in bases for lid in self._duplex(base)]
        if failure.kind == "enb":
            return [
                lid
                for base in (f"{failure.target}-mmwave", f"{failure.target}-uwave")
                for lid in self._duplex(base)
            ]
        if failure.kind == "driver-stall":
            if failure.target not in self.chaos_drivers:
                raise ScenarioError(
                    f"driver-stall target {failure.target!r} is not a "
                    f"registered chaos driver"
                )
            return []
        raise ScenarioError(f"unknown failure kind {failure.kind!r}")

    def _duplex(self, base: str) -> List[str]:
        """Both directions of a duplex link; accepts an already-directed
        id verbatim."""
        if base.endswith("-fwd") or base.endswith("-rev"):
            ids = [base]
        else:
            ids = [f"{base}-fwd", f"{base}-rev"]
        for lid in ids:
            try:
                self.topology.link(lid)
            except TopologyError:
                raise ScenarioError(f"no such transport link {lid!r}") from None
        return ids

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self) -> None:
        """Put every fail/restore pair on the simulator."""
        for record, spec in zip(self.records, self._specs):
            self.sim.schedule_at(
                record.start_s,
                lambda r=record, s=spec: self._strike(r, s),
                name=f"fail-{record.kind}-{record.target}",
            )
            self.sim.schedule_at(
                record.end_s,
                lambda r=record, s=spec: self._restore(r, s),
                name=f"restore-{record.kind}-{record.target}",
            )

    def _strike(self, record: OutageRecord, spec: FailureSpec) -> None:
        for lid in record.link_ids:
            count = self._down_count.get(lid, 0)
            if count == 0:
                self.topology.link(lid).fail()
            self._down_count[lid] = count + 1
        if record.kind == "driver-stall":
            self.chaos_drivers[record.target].stall(count=_STALL_ALL)
        if self.on_event is not None:
            self.on_event("failure.strike", spec)

    def _restore(self, record: OutageRecord, spec: FailureSpec) -> None:
        for lid in record.link_ids:
            count = self._down_count.get(lid, 0) - 1
            if count <= 0:
                self._down_count.pop(lid, None)
                # Reference count reached zero: no other window holds
                # the link, bring it back.
                self.topology.link(lid).restore()
            else:
                self._down_count[lid] = count
        if record.kind == "driver-stall":
            self.chaos_drivers[record.target].release_stall()
        if self.on_event is not None:
            self.on_event("failure.restore", spec)

    # ------------------------------------------------------------------
    # Runner hooks
    # ------------------------------------------------------------------
    def note_all_healthy(self, now: float) -> None:
        """Mark outages converged: every active path is healthy at ``now``."""
        for record in self.records:
            if record.converged_at is None and record.start_s <= now:
                record.converged_at = now

    def any_links_down(self) -> bool:
        return bool(self._down_count)
