"""Declarative scenario specs: load sources + failures + policies.

A :class:`ScenarioSpec` is the reproducibility unit of the scenario
engine: everything a run needs — testbed sizing, the load sources (zone
tenants moved by a mobility model, Poisson arrivals), the failure
schedule and the broker's policies by name — lives in one seeded,
JSON-serialisable value.  Two runs of the same spec with the same seed
produce the identical event timeline and the identical
:class:`~repro.scenarios.report.ScenarioReport` digest; that contract
is what the determinism property suite pins.

Specs come from three places:

* the built-in named packs (:func:`named_scenarios` /
  :func:`build_named`), e.g. ``commuter-failure``;
* a plain dict (:meth:`ScenarioSpec.from_dict`), e.g. parsed from a
  config service;
* a JSON file on disk (:func:`load_scenario_file`), the interface real
  trace-derived packs plug into.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.admission import FcfsPolicy, GreedyPricePolicy, KnapsackPolicy
from repro.core.orchestrator import OrchestratorConfig
from repro.core.overbooking import (
    AdaptiveOverbooking,
    FixedOverbooking,
    ForecastOverbooking,
    NoOverbooking,
    OverbookingError,
    OverbookingPolicy,
)
from repro.core.slices import ServiceType
from repro.traffic.generator import RequestMix

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_MIXES",
    "ArrivalSpec",
    "FailureSpec",
    "MobilitySpec",
    "ScenarioError",
    "ScenarioSpec",
    "TenantSpec",
    "build_named",
    "load_scenario_file",
    "named_scenarios",
    "parse_overbooking",
]

#: Failure kinds the pack knows how to translate onto the testbed.
FAILURE_KINDS = ("link", "dc", "enb", "driver-stall")

#: Mobility models shipped with the engine ("trace" loads a file).
MOBILITY_MODELS = ("commuter-tides", "vehicular-corridor", "trace")


class ScenarioError(ValueError):
    """A scenario spec failed validation."""


# ----------------------------------------------------------------------
# Policy names: the strings a spec (and the CLI) carries
# ----------------------------------------------------------------------
#: Admission policies a spec can name.
ADMISSION_POLICIES = {
    "fcfs": FcfsPolicy,
    "greedy": GreedyPricePolicy,
    "knapsack": KnapsackPolicy,
}

#: Overbooking policies a spec can name, as ``<kind>[:<number>]``; the
#: number is the policy's one knob (factor, quantile, violation budget).
OVERBOOKING_POLICIES = {
    "none": NoOverbooking,
    "fixed": FixedOverbooking,
    "forecast": ForecastOverbooking,
    "adaptive": AdaptiveOverbooking,
}

#: Request mixes an :class:`ArrivalSpec` can name: the generator's
#: five-vertical default, or one vertical alone.
ARRIVAL_MIXES = {
    "default": RequestMix,
    **{t.value: partial(RequestMix.single, t) for t in ServiceType},
}

#: ``OrchestratorConfig`` fields a spec may override (the monitoring
#: epoch is ``ScenarioSpec.epoch_s``).
_ORCHESTRATOR_KEYS = {f.name for f in fields(OrchestratorConfig)} - {"monitoring_epoch_s"}

#: Fields younger than the first recorded digests and the values
#: ``canonical_json`` omits — pinned here, not read off the dataclass, so
#: a later change of default cannot move a recorded digest.
_YOUNG_FIELDS = {"arrivals": None, "admission": "fcfs", "overbooking": "none", "orchestrator": {}}


def _require_finite(owner: str, **values: float) -> None:
    """Refuse a NaN or infinite number (JSON reads both), which the
    range checks below would let through."""
    for key, value in values.items():
        if not math.isfinite(value):
            raise ScenarioError(f"{owner}: {key} must be finite, got {value}")


def parse_overbooking(text: str) -> OverbookingPolicy:
    """A fresh policy from ``none``, ``fixed:<factor>``,
    ``forecast:<quantile>`` or ``adaptive:<budget>``; anything else is
    a :class:`ScenarioError`."""
    kind, _, knob = text.partition(":")
    try:
        return OVERBOOKING_POLICIES[kind](*([float(knob)] if knob else []))
    except (KeyError, TypeError, ValueError, OverbookingError) as exc:
        raise ScenarioError(
            f"bad overbooking spec {text!r} (none | fixed:<factor> | "
            f"forecast:<quantile> | adaptive:<budget>): {exc!r}"
        ) from None


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the scenario's slice mix.

    Every tenant runs one *zone slice* per cell, sized to the zone's
    attached-user count: ``clamp(min_mbps, base_mbps_per_user x users,
    max_mbps)``.  Mobility re-sizes those slices; the tenant spec fixes
    the economics and SLA shape.
    """

    tenant_id: str
    service_type: str = "embb"
    base_mbps_per_user: float = 0.25
    min_mbps: float = 4.0
    max_mbps: float = 30.0
    max_latency_ms: float = 50.0
    price_per_slice: float = 120.0
    penalty_rate: float = 1.0

    def validate(self) -> None:
        if not self.tenant_id:
            raise ScenarioError("tenant_id must be non-empty")
        _require_finite(
            self.tenant_id, base_mbps_per_user=self.base_mbps_per_user,
            min_mbps=self.min_mbps, max_mbps=self.max_mbps, max_latency_ms=self.max_latency_ms,
            price_per_slice=self.price_per_slice, penalty_rate=self.penalty_rate,
        )
        if self.base_mbps_per_user <= 0:
            raise ScenarioError(
                f"{self.tenant_id}: base_mbps_per_user must be positive"
            )
        if not 0 < self.min_mbps <= self.max_mbps:
            raise ScenarioError(
                f"{self.tenant_id}: need 0 < min_mbps <= max_mbps, "
                f"got [{self.min_mbps}, {self.max_mbps}]"
            )


@dataclass(frozen=True)
class MobilitySpec:
    """Which mobility model shapes the user timelines, and how.

    ``params`` is model-specific (window fractions for the commuter
    tides, dwell times for the corridor); ``trace_path`` points the
    ``trace`` model at a JSONL attachment log — the loader interface
    real measurement traces plug into.
    """

    model: str = "commuter-tides"
    n_users: int = 60
    params: Mapping[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None

    def validate(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ScenarioError(
                f"unknown mobility model {self.model!r}; "
                f"expected one of {MOBILITY_MODELS}"
            )
        if self.model == "trace" and not self.trace_path:
            raise ScenarioError("trace mobility requires trace_path")
        _require_finite("mobility", n_users=self.n_users)
        if self.model != "trace" and self.n_users <= 0:
            raise ScenarioError(f"n_users must be positive, got {self.n_users}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Poisson slice requests over the whole horizon, drawn from the
    run's ``"arrivals"`` stream: the load of the paper's admission and
    overbooking figures.  ``mix`` is one of :data:`ARRIVAL_MIXES`."""

    rate_per_s: float
    mix: str = "default"

    def validate(self) -> None:
        _require_finite("arrivals", rate_per_s=self.rate_per_s)
        if self.rate_per_s <= 0:
            raise ScenarioError(
                f"arrival rate must be positive, got {self.rate_per_s}"
            )
        if self.mix not in ARRIVAL_MIXES:
            raise ScenarioError(
                f"unknown mix {self.mix!r}; valid: {list(ARRIVAL_MIXES)}"
            )


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled outage *with restoration*.

    Kinds:
        ``link``  — one duplex transport link (target: base link id,
                    e.g. ``enb1-mmwave``).
        ``dc``    — a datacenter's attachment links (target: dc id,
                    e.g. ``edge-dc``).
        ``enb``   — both of an eNB's uplinks, isolating the cell
                    (target: enb id, e.g. ``enb2``).
        ``driver-stall`` — a chaos :class:`~repro.drivers.mock.MockDriver`
                    domain stalls its southbound ops for the window
                    (target: driver domain name).
    """

    kind: str
    target: str
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def validate(self, horizon_s: float) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ScenarioError(
                f"unknown failure kind {self.kind!r}; expected {FAILURE_KINDS}"
            )
        if not self.target:
            raise ScenarioError("failure target must be non-empty")
        _require_finite(f"failure {self.kind}:{self.target}",
                        start_s=self.start_s, duration_s=self.duration_s)
        if self.start_s <= 0:
            raise ScenarioError(
                f"failure start must be positive, got {self.start_s}"
            )
        if self.duration_s <= 0:
            raise ScenarioError(
                f"failure duration must be positive, got {self.duration_s}"
            )
        if self.end_s >= horizon_s:
            raise ScenarioError(
                f"failure {self.kind}:{self.target} must restore inside the "
                f"horizon (ends {self.end_s}, horizon {horizon_s}) — heal "
                f"convergence is unmeasurable otherwise"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """The reproducibility unit: one complete scenario.

    Attributes:
        name: Pack name (reported, and part of the digest).
        seed: Root seed for every random stream the run uses.
        horizon_s: Simulated duration.
        epoch_s: Orchestrator monitoring epoch (also the heal-poll
            cadence).
        n_enbs: Fleet size; the first half are *edge* (residential)
            cells, the second half *core* (business) cells.
        rescale_hysteresis: Relative throughput change below which a
            handover does not re-dimension the zone slice.
        tenants: The slice mix (one zone slice per tenant per cell);
            may be empty when ``arrivals`` is set.
        mobility: User movement model.
        failures: Scheduled outages with restoration.
        testbed: Extra :class:`~repro.experiments.testbed.TestbedConfig`
            overrides (capacities, DC sizing, ...).
        arrivals: Poisson request load, beside or instead of tenants.
        admission: Admission policy, a key of :data:`ADMISSION_POLICIES`.
        overbooking: Overbooking policy, a :func:`parse_overbooking` string.
        orchestrator: :class:`~repro.core.orchestrator.OrchestratorConfig`
            overrides (``epoch_s`` is the monitoring epoch).
    """

    name: str
    seed: int = 0
    horizon_s: float = 6 * 3_600.0
    epoch_s: float = 60.0
    n_enbs: int = 4
    rescale_hysteresis: float = 0.10
    tenants: Tuple[TenantSpec, ...] = ()
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    failures: Tuple[FailureSpec, ...] = ()
    testbed: Mapping[str, Any] = field(default_factory=dict)
    arrivals: Optional[ArrivalSpec] = None
    admission: str = "fcfs"
    overbooking: str = "none"
    orchestrator: Mapping[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        _require_finite(self.name, seed=self.seed, horizon_s=self.horizon_s,
                        epoch_s=self.epoch_s, n_enbs=self.n_enbs)
        if self.horizon_s <= 0:
            raise ScenarioError(f"horizon must be positive, got {self.horizon_s}")
        if self.epoch_s <= 0:
            raise ScenarioError(f"epoch must be positive, got {self.epoch_s}")
        if self.n_enbs < 2:
            raise ScenarioError(
                f"need >= 2 eNBs for an edge/core split, got {self.n_enbs}"
            )
        if not 0.0 <= self.rescale_hysteresis < 1.0:
            raise ScenarioError(
                f"hysteresis must be in [0, 1), got {self.rescale_hysteresis}"
            )
        if not self.tenants and self.arrivals is None:
            raise ScenarioError(
                "at least one tenant or an arrivals source is required"
            )
        seen = set()
        for tenant in self.tenants:
            tenant.validate()
            if tenant.tenant_id in seen:
                raise ScenarioError(f"duplicate tenant {tenant.tenant_id}")
            seen.add(tenant.tenant_id)
        self.mobility.validate()
        for failure in self.failures:
            failure.validate(self.horizon_s)
            if failure.kind == "enb":
                index = _enb_index(failure.target)
                if index is None or not 1 <= index <= self.n_enbs:
                    raise ScenarioError(
                        f"enb failure target {failure.target!r} outside the "
                        f"{self.n_enbs}-cell fleet"
                    )
        if self.arrivals is not None:
            self.arrivals.validate()
        if self.admission not in ADMISSION_POLICIES:
            raise ScenarioError(
                f"unknown admission policy {self.admission!r}; "
                f"expected one of {sorted(ADMISSION_POLICIES)}"
            )
        parse_overbooking(self.overbooking)
        unknown = set(self.orchestrator) - _ORCHESTRATOR_KEYS
        if unknown:
            raise ScenarioError(f"unknown orchestrator fields: {sorted(unknown)}")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        payload = asdict(self)
        payload["tenants"] = [asdict(t) for t in self.tenants]
        payload["mobility"] = asdict(self.mobility)
        payload["mobility"]["params"] = dict(self.mobility.params)
        payload["failures"] = [asdict(f) for f in self.failures]
        payload["testbed"] = dict(self.testbed)
        payload["orchestrator"] = dict(self.orchestrator)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a plain dict."""
        data = dict(payload)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        tenants = tuple(
            t if isinstance(t, TenantSpec) else TenantSpec(**t)
            for t in data.pop("tenants", ())
        )
        mobility = data.pop("mobility", None)
        if mobility is not None and not isinstance(mobility, MobilitySpec):
            mobility = MobilitySpec(**mobility)
        failures = tuple(
            f if isinstance(f, FailureSpec) else FailureSpec(**f)
            for f in data.pop("failures", ())
        )
        arrivals = data.pop("arrivals", None)
        if isinstance(arrivals, Mapping):
            arrivals = ArrivalSpec(**arrivals)
        spec = cls(
            tenants=tenants,
            mobility=mobility or MobilitySpec(),
            failures=failures,
            arrivals=arrivals,
            **data,
        )
        spec.validate()
        return spec

    def canonical_json(self) -> str:
        """Stable serialisation — the digest input.  A young field is
        left out while it holds its default, so older digests repeat."""
        payload = self.to_dict()
        for name, default in _YOUNG_FIELDS.items():
            if payload[name] == default:
                del payload[name]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_scenario_file(path: str) -> ScenarioSpec:
    """Load a spec from a JSON file (the external-pack interface)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ScenarioError(f"{path}: expected a JSON object at top level")
    return ScenarioSpec.from_dict(payload)


def _enb_index(enb_id: str) -> Optional[int]:
    if not enb_id.startswith("enb"):
        return None
    try:
        return int(enb_id[3:])
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Built-in packs
# ----------------------------------------------------------------------
def _commuter_failure(seed: int) -> ScenarioSpec:
    """The flagship pack: a 6-hour commuter day over six cells.

    The slice mix pins both DCs — placement is core-first when latency
    allows, so the eMBB tenant lands on the core DC while the 10 ms
    URLLC tenant is forced onto the edge DC.  The failure schedule then
    hits both (neither DC attachment has a detour, so those heals must
    wait for restoration), cuts a backhaul link (heals by re-route to
    the parallel µwave hop) and isolates one cell."""
    horizon = 6 * 3_600.0
    return ScenarioSpec(
        name="commuter-failure",
        seed=seed,
        horizon_s=horizon,
        n_enbs=6,
        tenants=(
            TenantSpec(
                tenant_id="metro-embb",
                service_type="embb",
                base_mbps_per_user=0.25,
                min_mbps=4.0,
                max_mbps=30.0,
                max_latency_ms=50.0,
            ),
            TenantSpec(
                tenant_id="city-urllc",
                service_type="urllc",
                base_mbps_per_user=0.10,
                min_mbps=2.0,
                max_mbps=12.0,
                max_latency_ms=10.0,
                price_per_slice=180.0,
                penalty_rate=2.0,
            ),
        ),
        mobility=MobilitySpec(model="commuter-tides", n_users=120),
        failures=(
            FailureSpec("dc", "edge-dc", start_s=0.38 * horizon, duration_s=900.0),
            FailureSpec("dc", "core-dc", start_s=0.48 * horizon, duration_s=1_200.0),
            FailureSpec(
                "link", "enb1-mmwave", start_s=0.60 * horizon, duration_s=900.0
            ),
            FailureSpec("enb", "enb3", start_s=0.68 * horizon, duration_s=600.0),
        ),
        testbed={"plmn_pool_size": 16},
    )


def _commuter_failure_smoke(seed: int) -> ScenarioSpec:
    """Tiny-scale variant of the flagship pack for the per-push CI
    matrix: one simulated hour, two cells, both outage classes."""
    return ScenarioSpec(
        name="commuter-failure-smoke",
        seed=seed,
        horizon_s=3_600.0,
        n_enbs=2,
        tenants=(
            TenantSpec(
                tenant_id="metro-embb",
                service_type="embb",
                base_mbps_per_user=0.4,
                min_mbps=4.0,
                max_mbps=24.0,
            ),
        ),
        mobility=MobilitySpec(model="commuter-tides", n_users=24),
        failures=(
            FailureSpec("dc", "core-dc", start_s=1_505.0, duration_s=600.0),
            FailureSpec("link", "enb1-mmwave", start_s=2_705.0, duration_s=300.0),
        ),
    )


def _vehicular_corridor(seed: int) -> ScenarioSpec:
    """Convoys traversing the eNB chain in order (handover chains),
    with a mid-corridor backhaul cut that the heal path re-routes."""
    horizon = 2 * 3_600.0
    return ScenarioSpec(
        name="vehicular-corridor",
        seed=seed,
        horizon_s=horizon,
        n_enbs=6,
        tenants=(
            TenantSpec(
                tenant_id="fleet-auto",
                service_type="automotive",
                base_mbps_per_user=0.8,
                min_mbps=4.0,
                max_mbps=25.0,
                max_latency_ms=30.0,
            ),
        ),
        mobility=MobilitySpec(model="vehicular-corridor", n_users=16),
        failures=(
            FailureSpec(
                "link", "enb3-mmwave", start_s=0.42 * horizon, duration_s=600.0
            ),
        ),
        testbed={"plmn_pool_size": 12},
    )


def _commuter_quiet(seed: int) -> ScenarioSpec:
    """Commuter tides with no failures — the mobility-only baseline the
    property and unit suites lean on (fast, small)."""
    return ScenarioSpec(
        name="commuter-quiet",
        seed=seed,
        horizon_s=1_800.0,
        n_enbs=2,
        tenants=(
            TenantSpec(tenant_id="metro-embb", base_mbps_per_user=0.4),
        ),
        mobility=MobilitySpec(model="commuter-tides", n_users=16),
    )


_NAMED: Dict[str, Callable[[int], ScenarioSpec]] = {
    "commuter-failure": _commuter_failure,
    "commuter-failure-smoke": _commuter_failure_smoke,
    "vehicular-corridor": _vehicular_corridor,
    "commuter-quiet": _commuter_quiet,
}


def named_scenarios() -> Tuple[str, ...]:
    """The built-in pack names, stable order."""
    return tuple(sorted(_NAMED))


def build_named(name: str, seed: int = 0) -> ScenarioSpec:
    """Instantiate a built-in pack at a seed.

    Raises:
        ScenarioError: If the name is unknown.
    """
    try:
        builder = _NAMED[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(named_scenarios())}"
        ) from None
    spec = builder(seed)
    spec.validate()
    return spec
