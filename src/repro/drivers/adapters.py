"""Adapter drivers wrapping the simulator's domain controllers.

Each adapter translates the uniform :class:`~repro.drivers.base.DomainDriver`
contract onto one controller's native vocabulary:

========== ============================ ===========================
domain      prepare / rollback           native controller calls
========== ============================ ===========================
``ran``     install_slice / remove_slice :class:`~repro.ran.controller.RanController`
``transport`` reserve_path / release_path :class:`~repro.transport.controller.TransportController`
``cloud``   deploy / teardown            :class:`~repro.cloud.controller.CloudController`
``epc``     bind instance / shutdown     :class:`~repro.epc.instance.EpcInstance`
========== ============================ ===========================

None of the controllers has native two-phase semantics, so ``prepare``
performs the real reservation and ``rollback`` the compensating
release (``capabilities().transactional`` is False); ``commit`` is a
bookkeeping step.  :func:`build_default_registry` wires all four in
install order — the registry any alternative backend (or an injected
:class:`~repro.drivers.mock.MockDriver`) extends.

None of the simulator controllers is thread-safe either, so every
adapter declares ``max_concurrent_installs=1``: under the concurrent
batch planner, :class:`~repro.drivers.base.BaseDriver` then serializes
each adapter's lifecycle calls.  The cloud and EPC adapters touch the
*same* controller (the EPC binds to the stack the cloud deployed), so
:func:`build_default_registry` hands them one shared serialization
lock — the per-controller half of the locking discipline.  The EPC
adapter additionally declares ``prepare_after=("cloud",)``: within one
install its prepare runs only after the cloud stack exists, while the
other domains prepare in parallel.

All four controllers are in-memory objects whose calls cannot block,
and each adapter knows it: :class:`_InProcessDriver` resolves the
futures-based async lifecycle *inline*, on the caller's thread, so a
window installed by the batch planner runs entirely on the thread that
flushed it — no thread per southbound call, no hop back.  For the same
reason the adapters declare no ``operation_timeout_s``: there is no RPC
to bound.  An adapter wrapping a *remote* SDN/NFV controller would
derive from :class:`~repro.drivers.base.BaseDriver` directly, keep the
worker hand-off it inherits, and declare its RPC deadline.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional

from repro.cloud.controller import CloudController
from repro.cloud.datacenter import CloudError
from repro.cloud.heat import HeatStack
from repro.drivers.base import (
    BaseDriver,
    DomainSpec,
    DriverAbsentError,
    DriverCapabilities,
    DriverError,
    Reservation,
)
from repro.drivers.registry import DriverRegistry
from repro.epc.components import epc_template
from repro.epc.instance import EpcError, EpcInstance
from repro.ran.controller import RanController
from repro.ran.enb import RanConfigError
from repro.transport.controller import TransportController, TransportError
from repro.transport.paths import PathRequest


class _InProcessDriver(BaseDriver):
    """A driver over an in-memory controller: nothing behind
    ``prepare``/``commit``/``rollback``/``release`` can block, so their
    ``*_async`` futures are resolved before they are returned."""

    def _shim_async(self, label: str, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class RanDriver(_InProcessDriver):
    """Radio domain: PRB reservations on a fleet of eNBs.

    Spec attributes: ``plmn`` (required :class:`~repro.core.slices.PLMN`),
    ``enb_id`` (optional pinned cell; auto-selected when absent).
    """

    domain = "ran"

    def __init__(
        self,
        controller: RanController,
        serial_lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(serial_lock=serial_lock)
        self.controller = controller

    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(
            domain=self.domain,
            resource_units=("prbs",),
            supports_resize=True,
        )

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        plmn = spec.attributes.get("plmn")
        if plmn is None:
            raise DriverError(self.domain, f"slice {spec.slice_id} has no PLMN")
        try:
            allocation = self.controller.install_slice(
                spec.slice_id,
                plmn,
                spec.throughput_mbps,
                effective_fraction=spec.effective_fraction,
                enb_id=spec.attributes.get("enb_id"),
            )
        except RanConfigError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {
            "allocation": allocation,
            "enb_id": allocation.enb_id,
            "enb_node": self.controller.enb(allocation.enb_id).transport_node,
            "latency_ms": allocation.latency_ms,
        }

    def _do_rollback(self, reservation: Reservation) -> None:
        try:
            self.controller.remove_slice(reservation.slice_id)
        except RanConfigError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def _do_release(self, slice_id: str) -> None:
        try:
            self.controller.remove_slice(slice_id)
        except RanConfigError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def _do_resize(self, slice_id: str, spec: DomainSpec,
                   reservation: Reservation) -> Dict[str, Any]:
        # A fraction move is a re-nomination at an unchanged nominal.
        try:
            allocation = self.controller.modify_slice(
                slice_id, spec.throughput_mbps, spec.effective_fraction
            )
        except RanConfigError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {"allocation": allocation, "enb_id": allocation.enb_id}

    def utilization(self) -> dict:
        return self.controller.utilization()


class TransportDriver(_InProcessDriver):
    """Transport domain: constrained paths + flow programming.

    Spec attributes: ``src``/``dst`` (required node names),
    ``max_delay_ms`` (required path-delay budget), ``plmn_id``
    (required for flow programming).
    """

    domain = "transport"

    def __init__(
        self,
        controller: TransportController,
        serial_lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(serial_lock=serial_lock)
        self.controller = controller

    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(
            domain=self.domain,
            resource_units=("mbps",),
            supports_resize=True,
            supports_repair=True,
        )

    def _path_request(self, spec: DomainSpec) -> PathRequest:
        try:
            return PathRequest(
                src=spec.attributes["src"],
                dst=spec.attributes["dst"],
                min_bandwidth_mbps=spec.throughput_mbps,
                max_delay_ms=spec.attributes["max_delay_ms"],
            )
        except KeyError as exc:
            raise DriverError(
                self.domain, f"spec missing transport attribute {exc}"
            ) from None

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        request = self._path_request(spec)
        plmn_id = spec.attributes.get("plmn_id")
        if plmn_id is None:
            raise DriverError(self.domain, f"slice {spec.slice_id} has no PLMN")
        try:
            allocation = self.controller.reserve_path(
                spec.slice_id,
                plmn_id,
                request,
                effective_fraction=spec.effective_fraction,
            )
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {
            "allocation": allocation,
            "delay_ms": allocation.delay_ms,
            "link_ids": list(allocation.path.link_ids),
        }

    def _do_rollback(self, reservation: Reservation) -> None:
        try:
            self.controller.release_path(reservation.slice_id)
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def _do_release(self, slice_id: str) -> None:
        try:
            self.controller.release_path(slice_id)
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def _do_resize(self, slice_id: str, spec: DomainSpec,
                   reservation: Reservation) -> Dict[str, Any]:
        try:
            allocation = self.controller.modify_bandwidth(
                slice_id, spec.throughput_mbps, spec.effective_fraction
            )
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {
            "allocation": allocation,
            "delay_ms": allocation.delay_ms,
            "link_ids": list(allocation.path.link_ids),
        }

    def _do_health(self, slice_id: str) -> Dict[str, Any]:
        try:
            healthy = self.controller.path_healthy(slice_id)
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {"domain": self.domain, "slice_id": slice_id, "healthy": healthy}

    def degraded(self) -> bool:
        return bool(self.controller.topology.down_link_ids)

    def repair(self, slice_id: str) -> Reservation:
        reservation = self.reservation_of(slice_id)
        if reservation is None:
            raise DriverAbsentError(self.domain, f"slice {slice_id} holds nothing")
        try:
            allocation = self.controller.repair_path(slice_id)
        except TransportError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        reservation.details.update(
            {
                "allocation": allocation,
                "delay_ms": allocation.delay_ms,
                "link_ids": list(allocation.path.link_ids),
            }
        )
        return reservation

    def utilization(self) -> dict:
        return self.controller.utilization()


class CloudDriver(_InProcessDriver):
    """Cloud domain: per-slice Heat stacks in edge/core datacenters.

    Spec attributes: ``dc_id`` (required target datacenter),
    ``template`` (optional :class:`~repro.cloud.heat.HeatTemplate`;
    defaults to the standard vEPC template for the slice).
    """

    domain = "cloud"

    def __init__(
        self,
        controller: CloudController,
        serial_lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(serial_lock=serial_lock)
        self.controller = controller

    def capabilities(self) -> DriverCapabilities:
        return DriverCapabilities(
            domain=self.domain,
            resource_units=("vcpus",),
        )

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        dc_id = spec.attributes.get("dc_id")
        if dc_id is None:
            raise DriverError(self.domain, f"spec missing cloud attribute 'dc_id'")
        template = spec.attributes.get("template") or epc_template(spec.slice_id)
        try:
            allocation = self.controller.deploy(spec.slice_id, template, dc_id)
        except CloudError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        return {
            "allocation": allocation,
            "dc_id": allocation.dc_id,
            "stack_id": allocation.stack_id,
            "processing_delay_ms": allocation.processing_delay_ms,
        }

    def _do_rollback(self, reservation: Reservation) -> None:
        try:
            self.controller.teardown(reservation.slice_id)
        except CloudError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def _do_release(self, slice_id: str) -> None:
        try:
            self.controller.teardown(slice_id)
        except CloudError as exc:
            raise DriverError(self.domain, str(exc)) from exc

    def utilization(self) -> dict:
        return self.controller.utilization()


class EpcDriver(_InProcessDriver):
    """vEPC domain: binds an :class:`EpcInstance` to the slice's stack.

    The instance manager used to live inline in the orchestrator's UE
    path; as a driver it participates in the install transaction (a
    slice whose core cannot bind is rolled back like any other domain).

    Spec attributes: ``plmn_id`` (required).  The hosting stack is
    resolved through ``stack_lookup`` (the cloud controller's
    ``stack_of`` in the default wiring), so the EPC domain must be
    registered *after* the cloud domain.
    """

    domain = "epc"

    def __init__(
        self,
        stack_lookup: Callable[[str], Optional[HeatStack]],
        serial_lock: Optional[threading.RLock] = None,
    ) -> None:
        super().__init__(serial_lock=serial_lock)
        self.stack_lookup = stack_lookup
        self._instances: Dict[str, EpcInstance] = {}

    def capabilities(self) -> DriverCapabilities:
        # The vEPC binds to the cloud stack, so within one install its
        # prepare must wait for the cloud domain's prepare to land.
        return DriverCapabilities(
            domain=self.domain,
            prepare_after=("cloud",),
        )

    def _do_prepare(self, spec: DomainSpec) -> Dict[str, Any]:
        plmn_id = spec.attributes.get("plmn_id")
        if plmn_id is None:
            raise DriverError(self.domain, f"slice {spec.slice_id} has no PLMN")
        stack = self.stack_lookup(spec.slice_id)
        if stack is None:
            raise DriverError(
                self.domain, f"slice {spec.slice_id} has no cloud stack to bind"
            )
        try:
            instance = EpcInstance(spec.slice_id, plmn_id, stack)
        except EpcError as exc:
            raise DriverError(self.domain, str(exc)) from exc
        self._instances[spec.slice_id] = instance
        return {"instance": instance, "plmn_id": plmn_id}

    def _do_rollback(self, reservation: Reservation) -> None:
        instance = self._instances.pop(reservation.slice_id, None)
        if instance is not None:
            instance.shutdown()

    def _do_release(self, slice_id: str) -> None:
        instance = self._instances.pop(slice_id, None)
        if instance is None:
            raise DriverError(self.domain, f"slice {slice_id} has no EPC instance")
        instance.shutdown()

    def utilization(self) -> dict:
        return {
            "domain": self.domain,
            "active_instances": len(self._instances),
            "subscribers": sum(
                i.subscriber_count for i in self._instances.values()
            ),
            "active_sessions": sum(
                i.active_sessions for i in self._instances.values()
            ),
        }


def build_default_registry(allocator: Any) -> DriverRegistry:
    """The canonical four-domain registry over a wired testbed.

    ``allocator`` is anything exposing ``ran``/``transport``/``cloud``
    controllers (the :class:`~repro.core.allocation.MultiDomainAllocator`
    in practice).  Registration order is install order: RAN pins the
    ingress, transport reaches the DC, cloud hosts the stack, EPC binds
    to it.

    Each adapter serializes on *its controller's own lock* (the
    per-controller half of the locking discipline), so a direct caller
    honouring ``controller.lock`` and the drivers never interleave.
    The cloud and EPC drivers share the cloud controller's lock because
    they drive the same backend (the EPC's ``stack_lookup`` reads the
    stacks the cloud driver deploys); under the concurrent batch
    planner that controller therefore sees one caller at a time.
    """
    registry = DriverRegistry()
    registry.register(RanDriver(allocator.ran, serial_lock=allocator.ran.lock))
    registry.register(
        TransportDriver(allocator.transport, serial_lock=allocator.transport.lock)
    )
    registry.register(
        CloudDriver(allocator.cloud, serial_lock=allocator.cloud.lock)
    )
    registry.register(
        EpcDriver(allocator.cloud.stack_of, serial_lock=allocator.cloud.lock)
    )
    return registry


__all__ = [
    "CloudDriver",
    "EpcDriver",
    "RanDriver",
    "TransportDriver",
    "build_default_registry",
]
