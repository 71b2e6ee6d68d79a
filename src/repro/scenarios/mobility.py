"""Synthetic mobility models: per-user cell-attachment timelines.

No measurement traces ship with the repo, so both models are
*synthetic-but-parameterized*: seeded generators shaped like the two
canonical workloads a metro deployment sees —

* :class:`CommuterTides` — the residential/business tide: users start
  on the edge (residential) cells, surge onto the core (business)
  cells across a morning window and ebb back across an evening window;
* :class:`VehicularCorridor` — convoys traversing the eNB chain in
  order, producing the ordered handover chains a highway corridor
  generates.

Both emit the same artifact, a :class:`MobilityTimeline`: initial
attachments plus a time-sorted list of :class:`HandoverEvent`.  The
``trace`` model (:func:`load_trace_timeline`) reads the identical
artifact from a JSONL attachment log, which is the seam real traces
plug into later.

Determinism: models draw only from the ``numpy`` generator they are
handed; the same generator state yields the same timeline.  Ties in
handover times are broken by (time, user index) so sorting is total.
Each value comes from the cheapest call that reads the same stream and
returns the same bits as the textbook one: ``seq[rng.integers(len(seq))]``
for ``Generator.choice`` over ``seq``, ``lo + (hi - lo) * rng.random()``
for ``rng.uniform(lo, hi)`` (``tests/properties/test_draw_identity.py``
keeps the textbook loops as the oracle).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.scenarios.spec import MobilitySpec, ScenarioError

__all__ = [
    "CommuterTides",
    "HandoverEvent",
    "MobilityModel",
    "MobilityTimeline",
    "VehicularCorridor",
    "build_model",
    "load_trace_timeline",
]


@dataclass(frozen=True)
class HandoverEvent:
    """One user re-attaching from one cell to another."""

    time_s: float
    user: int
    from_cell: int
    to_cell: int


@dataclass(frozen=True)
class MobilityTimeline:
    """Initial attachments + time-ordered handovers for one scenario."""

    n_cells: int
    initial_cells: Sequence[int]  # cell index per user
    handovers: Sequence[HandoverEvent]  # sorted by (time_s, user)

    def users_per_cell_initial(self) -> List[int]:
        counts = [0] * self.n_cells
        for cell in self.initial_cells:
            counts[cell] += 1
        return counts

    def validate(self) -> None:
        clock: dict = {}
        current = list(self.initial_cells)
        for event in self.handovers:
            if not 0 <= event.from_cell < self.n_cells:
                raise ScenarioError(f"handover from unknown cell {event.from_cell}")
            if not 0 <= event.to_cell < self.n_cells:
                raise ScenarioError(f"handover to unknown cell {event.to_cell}")
            if current[event.user] != event.from_cell:
                raise ScenarioError(
                    f"user {event.user} hands over from cell {event.from_cell} "
                    f"but is attached to {current[event.user]}"
                )
            if event.time_s < clock.get(event.user, 0.0):
                raise ScenarioError(f"user {event.user} timeline not ordered")
            clock[event.user] = event.time_s
            current[event.user] = event.to_cell


class MobilityModel(ABC):
    """Interface: produce a timeline for ``n_users`` over ``n_cells``."""

    @abstractmethod
    def timeline(
        self,
        n_users: int,
        n_cells: int,
        horizon_s: float,
        rng: np.random.Generator,
    ) -> MobilityTimeline:
        """The timeline, drawn from ``rng``."""


class CommuterTides(MobilityModel):
    """Morning edge→core surge, evening reverse.

    The fleet is split into *edge* cells (first half, residential) and
    *core* cells (second half, business).  Each commuter:

    * starts on a random edge cell;
    * moves to a random core cell at a time drawn uniformly inside the
      morning window;
    * returns to a (possibly different) edge cell inside the evening
      window — when the horizon reaches that far.

    Windows are fractions of the horizon so the same shape scales from
    a CI smoke hour to a full simulated day:
    ``morning=(0.20, 0.35)``, ``evening=(0.70, 0.85)`` by default.
    ``commuter_fraction`` (default 0.85) of users commute; the rest
    stay home and only anchor the edge-zone baseline.
    """

    def __init__(
        self,
        morning: tuple = (0.20, 0.35),
        evening: tuple = (0.70, 0.85),
        commuter_fraction: float = 0.85,
    ) -> None:
        if not 0.0 <= morning[0] < morning[1] <= evening[0] < evening[1] <= 1.0:
            raise ScenarioError(
                f"windows must satisfy 0 <= morning < evening <= 1, "
                f"got {morning} / {evening}"
            )
        if not 0.0 < commuter_fraction <= 1.0:
            raise ScenarioError(
                f"commuter_fraction must be in (0, 1], got {commuter_fraction}"
            )
        self.morning = morning
        self.evening = evening
        self.commuter_fraction = commuter_fraction

    def timeline(
        self,
        n_users: int,
        n_cells: int,
        horizon_s: float,
        rng: np.random.Generator,
    ) -> MobilityTimeline:
        edge_cells = list(range(n_cells // 2))
        core_cells = list(range(n_cells // 2, n_cells))
        initial = rng.integers(0, len(edge_cells), size=n_users).tolist()
        commutes = rng.random(n_users) < self.commuter_fraction
        out_lo, out_hi = self.morning
        back_lo, back_hi = self.evening
        out_span, back_span = out_hi - out_lo, back_hi - back_lo
        events: List[HandoverEvent] = []
        for user in range(n_users):
            if not commutes[user]:
                continue
            work_cell = core_cells[rng.integers(len(core_cells))]
            out_t = (out_lo + out_span * rng.random()) * horizon_s
            events.append(HandoverEvent(out_t, user, initial[user], work_cell))
            back_t = (back_lo + back_span * rng.random()) * horizon_s
            if back_t < horizon_s:
                home_cell = edge_cells[rng.integers(len(edge_cells))]
                events.append(HandoverEvent(back_t, user, work_cell, home_cell))
        events.sort(key=lambda e: (e.time_s, e.user))
        return MobilityTimeline(n_cells, initial, events)


class VehicularCorridor(MobilityModel):
    """Convoys traversing the eNB chain ``0 → 1 → ... → n-1`` in order.

    Each vehicle departs at a staggered time (uniform inside
    ``depart=(0.05, 0.45)`` of the horizon) and dwells
    ``dwell_fraction / n_cells`` of the horizon per cell, jittered
    ±``dwell_jitter`` relatively — so every vehicle emits the full
    ordered handover chain along the corridor, and chains from
    different vehicles interleave.
    """

    def __init__(
        self,
        depart: tuple = (0.05, 0.45),
        dwell_fraction: float = 0.45,
        dwell_jitter: float = 0.2,
    ) -> None:
        if not 0.0 <= depart[0] < depart[1] < 1.0:
            raise ScenarioError(f"depart window must be inside (0, 1), got {depart}")
        if not 0.0 < dwell_fraction < 1.0:
            raise ScenarioError(
                f"dwell_fraction must be in (0, 1), got {dwell_fraction}"
            )
        if not 0.0 <= dwell_jitter < 1.0:
            raise ScenarioError(
                f"dwell_jitter must be in [0, 1), got {dwell_jitter}"
            )
        self.depart = depart
        self.dwell_fraction = dwell_fraction
        self.dwell_jitter = dwell_jitter

    def timeline(
        self,
        n_users: int,
        n_cells: int,
        horizon_s: float,
        rng: np.random.Generator,
    ) -> MobilityTimeline:
        initial = [0] * n_users
        dwell_base = self.dwell_fraction * horizon_s / max(1, n_cells)
        depart_lo, depart_hi = self.depart
        depart_span = depart_hi - depart_lo
        jitter_lo = -self.dwell_jitter
        jitter_span = self.dwell_jitter - jitter_lo
        events: List[HandoverEvent] = []
        for vehicle in range(n_users):
            t = (depart_lo + depart_span * rng.random()) * horizon_s
            for cell in range(n_cells - 1):
                jitter = 1.0 + (jitter_lo + jitter_span * rng.random())
                t += dwell_base * jitter
                if t >= horizon_s:
                    break  # vehicle leaves the corridor past the horizon
                events.append(HandoverEvent(t, vehicle, cell, cell + 1))
        events.sort(key=lambda e: (e.time_s, e.user))
        return MobilityTimeline(n_cells, initial, events)


class TraceMobility(MobilityModel):
    """A pre-loaded timeline (from a trace file) behind the model API."""

    def __init__(self, timeline: MobilityTimeline) -> None:
        self._timeline = timeline

    def timeline(
        self,
        n_users: int,
        n_cells: int,
        horizon_s: float,
        rng: np.random.Generator,
    ) -> MobilityTimeline:
        if self._timeline.n_cells > n_cells:
            raise ScenarioError(
                f"trace references {self._timeline.n_cells} cells but the "
                f"testbed has {n_cells}"
            )
        return self._timeline


def load_trace_timeline(path: str) -> MobilityTimeline:
    """Read a JSONL attachment log into a :class:`MobilityTimeline`.

    Each line is ``{"t": seconds, "user": str|int, "cell": int}``; a
    user's first record is their initial attachment, every later record
    a handover.  This is the loader real commuter/vehicular traces
    (e.g. the wifi-vehicles or commuter datasets referenced in
    ROADMAP.md) convert into.
    """
    attachments: dict = {}
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                records.append((float(row["t"]), row["user"], int(row["cell"])))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"{path}:{line_no}: bad trace row: {exc}")
    records.sort(key=lambda r: (r[0], str(r[1])))
    user_index: dict = {}
    initial: List[int] = []
    events: List[HandoverEvent] = []
    n_cells = 0
    for t, user, cell in records:
        n_cells = max(n_cells, cell + 1)
        if user not in user_index:
            user_index[user] = len(initial)
            initial.append(cell)
            attachments[user] = cell
            continue
        idx = user_index[user]
        events.append(HandoverEvent(t, idx, attachments[user], cell))
        attachments[user] = cell
    timeline = MobilityTimeline(n_cells, initial, events)
    timeline.validate()
    return timeline


def build_model(spec: MobilitySpec) -> MobilityModel:
    """Instantiate the model a :class:`MobilitySpec` names."""
    params = dict(spec.params)
    if spec.model == "commuter-tides":
        return CommuterTides(
            morning=tuple(params.get("morning", (0.20, 0.35))),
            evening=tuple(params.get("evening", (0.70, 0.85))),
            commuter_fraction=float(params.get("commuter_fraction", 0.85)),
        )
    if spec.model == "vehicular-corridor":
        return VehicularCorridor(
            depart=tuple(params.get("depart", (0.05, 0.45))),
            dwell_fraction=float(params.get("dwell_fraction", 0.45)),
            dwell_jitter=float(params.get("dwell_jitter", 0.2)),
        )
    if spec.model == "trace":
        return TraceMobility(load_trace_timeline(spec.trace_path))
    raise ScenarioError(f"unknown mobility model {spec.model!r}")
