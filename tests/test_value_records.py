"""Which records stay frozen, and why.

A frozen dataclass pays one ``object.__setattr__`` per field on every
construction, several times the cost of a plain one.  A record built and
dropped inside one operation, or handed once to a new owner, is plain
(``DomainSpec``, ``AdmissionDecision``, ``JournalRecord``, ...).  A record
stays frozen only where something relies on its value or identity never
moving; ``FROZEN`` names each one with that reason.  A new frozen record
must be added here with its reason, or made plain.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import repro

DICT_KEY = "dict key"  # hashed by its fields as a key of a live table
SORTED_INDEX = "sorted index"  # a sorted index is ordered by its fields
IDENTITY_CACHE = "identity cache"  # a cache trusts its identity for its value
SHARED_INSTANCE = "shared instance"  # one instance serves many owners
CONSTANT = "constant/spec"  # a table entry, catalogue, configuration or spec

FROZEN = {
    # LiveSlots' row key: an unchanged object means an unchanged row.
    "ran.controller.RanAllocation": IDENTITY_CACHE,
    "transport.controller.TransportAllocation": IDENTITY_CACHE,
    "cloud.controller.CloudAllocation": IDENTITY_CACHE,
    "core.allocation.EndToEndAllocation": IDENTITY_CACHE,
    # Part of the row key, and a standby's request copy shares it.
    "core.slices.SLA": IDENTITY_CACHE,
    "core.slices.PLMN": DICT_KEY,
    "transport.switch.FlowMatch": DICT_KEY,
    "core.calendar.Booking": SORTED_INDEX,
    "core.allocation.SliceSize": SHARED_INSTANCE,
    "core.admission.ResourceVector": SHARED_INSTANCE,
    "drivers.base.DriverCapabilities": SHARED_INSTANCE,
    "core.admission.TenantQuota": CONSTANT,
    "cloud.flavors.Flavor": CONSTANT,
    "ran.channel.CqiEntry": CONSTANT,
    "traffic.verticals.VerticalSpec": CONSTANT,
    "api.schemas.Field": CONSTANT,
    "scenarios.spec.TenantSpec": CONSTANT,
    "scenarios.spec.MobilitySpec": CONSTANT,
    "scenarios.spec.ArrivalSpec": CONSTANT,
    "scenarios.spec.FailureSpec": CONSTANT,
    "scenarios.spec.ScenarioSpec": CONSTANT,
    "scenarios.mobility.HandoverEvent": CONSTANT,
    "scenarios.mobility.MobilityTimeline": CONSTANT,
}

REASONS = {DICT_KEY, SORTED_INDEX, IDENTITY_CACHE, SHARED_INSTANCE, CONSTANT}


def frozen_dataclasses() -> dict:
    """``module.Class`` (less the ``repro.`` prefix) → class, for every
    frozen dataclass a ``repro`` module defines."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                found[f"{module.__name__.removeprefix('repro.')}.{name}"] = cls
    return found


def test_every_frozen_record_says_why_it_is_frozen():
    unlisted = sorted(frozen_dataclasses().keys() - FROZEN.keys())
    assert not unlisted, (
        f"frozen records with no reason to be: {unlisted} — make each plain "
        "or add it to FROZEN with the reason it must never change"
    )


def test_the_list_names_only_frozen_dataclasses():
    stale = sorted(FROZEN.keys() - frozen_dataclasses().keys())
    assert not stale, f"FROZEN names records that are not frozen: {stale}"


def test_every_reason_is_one_of_the_five():
    assert set(FROZEN.values()) <= REASONS
