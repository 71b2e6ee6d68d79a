"""Admin surface (`/v1/admin/*`) and the durable event cursor
(`GET /v1/events?after_lsn=`)."""

from __future__ import annotations

from repro.api.service import SliceService
from repro.api.v1 import build_v1_api
from repro.core.orchestrator import Orchestrator, OrchestratorConfig
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def build_stack(testbed, tmp_path=None, **config_overrides):
    config = OrchestratorConfig(
        durability_dir=str(tmp_path / "store") if tmp_path is not None else None,
        event_log_capacity=config_overrides.pop("event_log_capacity", 1024),
        **config_overrides,
    )
    orchestrator = Orchestrator(
        sim=Simulator(),
        allocator=testbed.allocator,
        plmn_pool=testbed.plmn_pool,
        config=config,
        streams=RandomStreams(seed=5),
        registry=testbed.registry,
    )
    orchestrator.start()
    service = SliceService(orchestrator)
    return orchestrator, service, build_v1_api(service)


def slice_body(**overrides):
    body = {
        "service_type": "embb",
        "throughput_mbps": 10.0,
        "max_latency_ms": 50.0,
        "duration_s": 3_600.0,
        "price": 100.0,
        "penalty_rate": 1.0,
    }
    body.update(overrides)
    return body


class TestAdminState:
    def test_state_reports_durability_and_control_plane(self, testbed, tmp_path):
        orchestrator, _, api = build_stack(testbed, tmp_path)
        created = api.post("/v1/slices", slice_body())
        assert created.status == 201
        response = api.get("/v1/admin/state")
        assert response.ok
        durability = response.body["durability"]
        assert durability["enabled"] is True
        assert durability["last_lsn"] > 0
        control = response.body["control_plane"]
        assert control["live_slices"] == 1
        assert "planner" in response.body
        response.json()  # everything must be JSON-safe

    def test_pending_bookings_counts_bookings_not_live_windows(self, testbed):
        """The calendar holds every live slice's window too; the gauge
        counts advance bookings not yet installed, and nothing else."""
        _, _, api = build_stack(testbed)
        assert api.post("/v1/slices", slice_body()).status == 201
        booked = api.post("/v1/bookings", slice_body(start_time=1_000.0))
        assert booked.status == 201
        control = api.get("/v1/admin/state").body["control_plane"]
        assert control["live_slices"] == 1
        assert control["pending_bookings"] == 1

    def test_state_with_durability_disabled(self, testbed):
        _, _, api = build_stack(testbed)
        response = api.get("/v1/admin/state")
        assert response.ok
        assert response.body["durability"] == {"enabled": False}


class TestAdminCheckpoint:
    def test_checkpoint_compacts_and_reports_lsn(self, testbed, tmp_path):
        orchestrator, _, api = build_stack(testbed, tmp_path)
        assert api.post("/v1/slices", slice_body()).status == 201
        before = orchestrator.store.records_since_checkpoint
        assert before > 0
        response = api.post("/v1/admin/checkpoint")
        assert response.ok
        assert response.body["checkpoint_lsn"] > 0
        assert orchestrator.store.snapshot_lsn == response.body["checkpoint_lsn"]
        assert orchestrator.store.records_since_checkpoint <= 1  # audit marker

    def test_checkpoint_conflicts_when_disabled(self, testbed):
        _, _, api = build_stack(testbed)
        response = api.post("/v1/admin/checkpoint")
        assert response.status == 409
        assert response.body["error"]["code"] == "conflict"


class TestDurableEventCursor:
    def test_after_lsn_replays_events_with_lsns(self, testbed, tmp_path):
        _, _, api = build_stack(testbed, tmp_path)
        assert api.post("/v1/slices", slice_body()).status == 201
        response = api.get("/v1/events?after_lsn=0")
        assert response.ok
        events = response.body["events"]
        assert events, "journaled events expected"
        assert all("lsn" in event for event in events)
        assert [e["lsn"] for e in events] == sorted(e["lsn"] for e in events)
        assert response.body["last_lsn"] >= events[-1]["lsn"]
        assert "replay_floor_lsn" in response.body
        # Resuming from the last lsn returns only what came after.
        resumed = api.get(f"/v1/events?after_lsn={events[-1]['lsn']}")
        assert resumed.ok
        assert all(e["lsn"] > events[-1]["lsn"] for e in resumed.body["events"])

    def test_after_lsn_reaches_past_the_inmemory_buffer(self, testbed, tmp_path):
        """The whole point of the durable cursor: events evicted from
        the bounded in-memory feed are still replayable."""
        orchestrator, _, api = build_stack(
            testbed, tmp_path, event_log_capacity=4
        )
        for i in range(8):
            orchestrator.events.emit(0.0, f"test.event-{i}")
        in_memory = api.get("/v1/events?since=0")
        assert len(in_memory.body["events"]) <= 4  # buffer evicted the rest
        durable = api.get("/v1/events?after_lsn=0&limit=1000")
        names = [e["type"] for e in durable.body["events"]]
        assert [f"test.event-{i}" for i in range(8)] == [
            n for n in names if n.startswith("test.event-")
        ]

    def test_after_lsn_is_tenant_scoped(self, testbed, tmp_path):
        _, _, api = build_stack(testbed, tmp_path)
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "tenant-a"}
        ).status == 201
        assert api.post(
            "/v1/slices", slice_body(), headers={"X-Tenant-Id": "tenant-b"}
        ).status == 201
        response = api.get(
            "/v1/events?after_lsn=0", headers={"X-Tenant-Id": "tenant-a"}
        )
        tenants = {e.get("tenant_id") for e in response.body["events"]}
        assert "tenant-b" not in tenants

    def test_after_lsn_requires_durability(self, testbed):
        _, _, api = build_stack(testbed)
        response = api.get("/v1/events?after_lsn=0")
        assert response.status == 400
        assert response.body["error"]["field"] == "after_lsn"

    def test_after_lsn_survives_restart(self, testbed, tmp_path):
        """A consumer's durable cursor keeps working against the
        restarted control plane."""
        from repro.store import ControlPlaneStore, RecoveryManager
        from repro.core.slices import PlmnPool

        orchestrator, _, api = build_stack(testbed, tmp_path)
        assert api.post("/v1/slices", slice_body()).status == 201
        feed = api.get("/v1/events?after_lsn=0").body
        cursor = feed["events"][-1]["lsn"]
        orchestrator.store.close()

        store = ControlPlaneStore(str(tmp_path / "store"))
        restarted = Orchestrator(
            sim=Simulator(),
            allocator=testbed.allocator,
            plmn_pool=PlmnPool(size=testbed.config.plmn_pool_size),
            config=OrchestratorConfig(),
            streams=RandomStreams(seed=6),
            registry=testbed.registry,
            store=store,
        )
        RecoveryManager(restarted).restore()
        fresh_api = build_v1_api(SliceService(restarted))
        resumed = fresh_api.get(f"/v1/events?after_lsn={cursor}")
        assert resumed.ok
        # Recovery writes no checkpoint: the floor (where replay starts,
        # gap-detection Kafka-retention style) stays at or below the
        # cursor, so the consumer resumes without a gap — and the
        # recovery.completed marker is visible past it.
        assert resumed.body["replay_floor_lsn"] <= cursor
        types = [e["type"] for e in resumed.body["events"]]
        assert "recovery.completed" in types
        assert all(e["lsn"] > cursor for e in resumed.body["events"])
        # Seq numbering never went backwards across the restart.
        seqs = [e["seq"] for e in resumed.body["events"]]
        assert all(s > feed["events"][-1]["seq"] for s in seqs if s)


class TestQuotaDurability:
    def test_set_quota_is_journaled(self, testbed, tmp_path):
        orchestrator, _, _ = build_stack(testbed, tmp_path)
        orchestrator.set_quota("tenant-a", max_active_slices=2)
        kinds = [r.record_type for r in orchestrator.store.records()]
        assert "quota.set" in kinds
        # And the fold a checkpoint writes carries it too.
        assert orchestrator.durable.fold.quotas["tenant-a"]["max_active_slices"] == 2


class TestAdminObservability:
    """`GET /v1/admin/metrics` + `GET /v1/admin/traces`: the 32-slice
    batch acceptance trace, the Prometheus scrape, and the cheap
    disabled-mode answers."""

    def _install_batch(self, api, orchestrator, n=32):
        for i in range(n):
            created = api.post(
                "/v1/slices?mode=batch",
                slice_body(throughput_mbps=2.0),
                headers={"X-Tenant-Id": f"t{i % 4}"},
            )
            assert created.status == 202, created.body
        orchestrator.sim.run_until(orchestrator.sim.now + 600.0)

    def test_batch_trace_is_complete_with_correct_parentage(self, testbed):
        orchestrator, _, api = build_stack(testbed, observability=True)
        self._install_batch(api, orchestrator)
        response = api.get("/v1/admin/traces?limit=20")
        assert response.ok
        assert response.body["enabled"] is True
        traces = response.body["traces"]
        assert traces
        trace = max(traces, key=lambda t: t["span_count"])
        spans = trace["spans"]
        names = {s["name"] for s in spans}
        # Every pipeline stage shows up in the batch's trace.
        assert {
            "install.batch", "install.job", "admission",
            "placement", "driver.prepare", "driver.commit",
        } <= names
        # Exactly one root, and every other span's parent resolves
        # within the trace — no orphans, whatever thread closed it.
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "install.batch"
        ids = {s["span_id"] for s in spans}
        assert all(
            s["parent_id"] in ids for s in spans if s["parent_id"] is not None
        )
        # Every span settled (the batch outruns the 12-identity PLMN
        # pool, so late jobs are *rejected* — their admission spans
        # must close as errors carrying the rejection, not hang open).
        assert all(s["status"] in ("ok", "error") for s in spans)
        rejected = [s for s in spans if s["status"] == "error"]
        assert all("PLMN" in (s["error"] or "") for s in rejected)
        assert all(s["status"] == "ok" for s in spans if s["name"].startswith("driver."))
        # Settled bookkeeping: nothing in flight, nothing dropped.
        tracer = response.body["tracer"]
        assert tracer["spans_started"] == tracer["spans_finished"]
        assert tracer["spans_dropped"] == 0

    def test_traces_slow_filter_and_limit(self, testbed):
        orchestrator, _, api = build_stack(
            testbed, observability=True, observability_slow_span_ms=0.0
        )
        self._install_batch(api, orchestrator, n=4)
        slow = api.get("/v1/admin/traces?slow=true&limit=5")
        assert slow.ok
        assert slow.body["slow"] is True
        assert slow.body["slow_threshold_ms"] == 0.0
        assert 0 < len(slow.body["slow_spans"]) <= 5
        # Slow entries carry ancestry for attribution.
        assert all("ancestry" in e for e in slow.body["slow_spans"])

    def test_metrics_scrape_is_prometheus_text(self, testbed):
        orchestrator, _, api = build_stack(testbed, observability=True)
        self._install_batch(api, orchestrator, n=8)
        response = api.get("/v1/admin/metrics")
        assert response.ok
        assert response.content_type.startswith("text/plain")
        assert response.text.endswith("\n")
        text = response.text
        # Control-plane namespace: per-stage histograms with buckets.
        assert "# TYPE cp_admission_ms histogram" in text
        assert 'cp_driver_commit_ms_bucket{label="ran",le="+Inf"}' in text
        assert "cp_tracer_spans_finished_total" in text
        # Sim-telemetry namespace rides along, prefixed.
        assert "sim_" in text

    def test_disabled_mode_answers_cheaply(self, testbed):
        orchestrator, _, api = build_stack(testbed)  # observability off
        self._install_batch(api, orchestrator, n=2)
        traces = api.get("/v1/admin/traces")
        assert traces.ok
        assert traces.body == {
            "enabled": False, "slow": False, "count": 0,
            "traces": [], "slow_spans": [],
        }
        metrics = api.get("/v1/admin/metrics")
        assert metrics.ok
        assert "cp_" not in metrics.text
        assert "sim_" in metrics.text  # sim telemetry is always on

    def test_bad_query_parameters_are_400s(self, testbed):
        _, _, api = build_stack(testbed, observability=True)
        assert api.get("/v1/admin/traces?limit=0").status == 400
        assert api.get("/v1/admin/traces?limit=bogus").status == 400
        assert api.get("/v1/admin/traces?slow=maybe").status == 400
