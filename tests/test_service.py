"""End-to-end tests for the scan-observatory service (``repro serve``).

The asyncio server runs on a background thread with its own event loop;
tests drive it through :class:`repro.api.ServiceClient` (stdlib
``http.client``) from the pytest thread, exactly like an external
caller would.  No asyncio test framework is needed.
"""

import http.client
import json
import threading

import asyncio

import pytest

from repro.api import (
    QueueFullError,
    RateLimitedError,
    ServiceClient,
    ShuttingDownError,
    StudySpec,
    run_study,
)
from repro.errors import InvalidSpecError, NotFoundError
from repro.scanner.ratelimit import TokenBucket
from repro.experiments import ExecutionPolicy, FaultPlan, FaultRule, RunStore
from repro.service import (
    ObservatoryService,
    ServiceConfig,
    StudyQueue,
    TenantPolicy,
    TenantRegistry,
)
from repro.service.queue import _DATASET_NAMES, EventLog

SMALL = dict(scale="tiny", budget=300, tgas=("6gen", "6tree"), ports=("icmp",))


def small_spec(**overrides):
    return StudySpec(**{**SMALL, **overrides})


class Harness:
    """Run an ObservatoryService on a daemon thread with its own loop."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        self.config = ServiceConfig(**config_kwargs)
        self.service = None
        self.loop = None
        self._thread = None
        self._started = threading.Event()

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.service = ObservatoryService(self.config)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()
        self.loop.close()

    def __enter__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        return self

    def __exit__(self, *exc):
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        future.result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)

    @property
    def base_url(self):
        return f"http://127.0.0.1:{self.service.port}"

    def client(self, tenant=None):
        return ServiceClient(self.base_url, tenant=tenant)


def normalize(rows):
    """JSON round-trip, so tuples compare equal to decoded lists."""
    return json.loads(json.dumps(rows, sort_keys=True))


def direct_rows(spec):
    """The lossless records a direct in-process run produces, in the
    service's grid order (ports outer, tgas inner)."""
    from repro.experiments.store import result_to_dict

    result = run_study(spec)
    return [
        result_to_dict(result.get(tga, port))
        for port in spec.ports
        for tga in spec.tgas
    ]


class TestEndToEnd:
    def test_submit_poll_stream_results(self):
        spec = small_spec()
        with Harness() as harness, harness.client() as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["api_version"] == "1"

            record = client.submit(spec)
            assert record["id"].startswith("st-")
            assert record["digest"] == spec.digest
            assert record["dedup"] == "none"
            assert record["spec"] == spec.to_dict()

            events = list(client.events(record["id"]))
            types = {event.get("type") for event in events}
            assert "study" in types
            assert "progress" in types
            progress = [e for e in events if e.get("type") == "progress"]
            assert progress[-1]["done"] == spec.size
            assert events[-1] == {
                "type": "study", "id": record["id"], "state": "done",
                "cells": spec.size,
            }

            done = client.wait(record["id"], timeout=60)
            assert done["state"] == "done"
            payload = client.results(record["id"])
            assert payload["study"]["state"] == "done"
            assert payload["results"] == normalize(direct_rows(spec))

            metrics = client.metrics()
            assert "service_submitted" in metrics
            assert "service_completed" in metrics

    def test_memory_dedup_shares_one_job(self):
        spec = small_spec()
        with Harness() as harness, harness.client() as client:
            first = client.submit(spec)
            client.wait(first["id"], timeout=60)
            second = client.submit(spec)
            assert second["id"] == first["id"]
            assert second["dedup"] == "memory"
            assert second["state"] == "done"
            assert len(client.list()) == 1
            assert "service_dedup_memory" in client.metrics()

    def test_checkpoint_dedup_survives_a_restart(self, tmp_path):
        spec = small_spec()
        state_dir = tmp_path / "state"
        with Harness(state_dir=state_dir) as harness:
            with harness.client() as client:
                record = client.submit(spec)
                client.wait(record["id"], timeout=60)
                executed = client.results(record["id"])["results"]
        digest_hex = spec.digest.split(":", 1)[1]
        assert (state_dir / f"{digest_hex}.jsonl").exists()
        # A fresh process (fresh Harness) knows nothing in memory; the
        # on-disk RunStore answers the resubmission without executing.
        with Harness(state_dir=state_dir) as harness:
            with harness.client() as client:
                record = client.submit(spec)
                assert record["dedup"] == "checkpoint"
                assert record["state"] == "done"
                restored = client.results(record["id"])["results"]
        assert restored == executed
        assert restored == normalize(direct_rows(spec))

    def test_graceful_shutdown_drains_workers(self):
        spec = small_spec(tgas=("6gen",))
        harness = Harness()
        with harness:
            with harness.client() as client:
                record = client.submit(spec)
        # __exit__ ran shutdown: the submitted study must have settled,
        # not been abandoned.
        job = harness.service.queue.get(record["id"])
        assert job.state == "done"
        assert job.events.closed
        assert not any(
            thread.name.startswith("repro-study") and thread.is_alive()
            for thread in threading.enumerate()
        )
        with pytest.raises(ShuttingDownError):
            harness.service.queue.submit(small_spec(budget=301), "anyone")


class TestPartialGrid:
    def test_failed_cell_fails_the_job_and_keeps_completed_cells(self, tmp_path):
        """A grid that gives up on a cell fails with a structured code,
        and every cell that did complete is already in the store."""
        state_dir = tmp_path / "state"
        queue = StudyQueue(
            state_dir=state_dir,
            workers=1,
            policy=ExecutionPolicy(
                fault_plan=FaultPlan(rules=(FaultRule("exception", tga="6gen"),)),
                max_retries=0,
            ),
        )
        spec = StudySpec(
            scale="tiny", budget=300, tgas=("6tree", "6gen", "eip"), ports=("icmp",)
        )
        try:
            job, created = queue.submit(spec, "anyone")
        finally:
            queue.shutdown(wait=True)
        assert created
        assert job.state == "failed"
        error = job.error["error"]
        assert error["code"] == "partial_results"
        assert len(error["detail"]["failed"]) == 1
        assert error["detail"]["failed"][0].startswith("6gen × all-active × icmp")
        store = RunStore(state_dir / (spec.digest.split(":", 1)[1] + ".jsonl"))
        store.load()
        assert sorted(tga for tga, _, _, _ in store.keys()) == ["6tree", "eip"]


class TestRejections:
    def test_rate_limited_submissions_get_429(self):
        spec = small_spec(tgas=("6gen",))
        policy = TenantPolicy(rate=0.001, burst=1.0)
        with Harness(tenant_policy=policy) as harness:
            with harness.client(tenant="hammer") as client:
                client.submit(spec)  # consumes the only token
                with pytest.raises(RateLimitedError) as excinfo:
                    client.submit(spec)
        assert excinfo.value.http_status == 429
        assert excinfo.value.detail["retry_after"] > 0
        assert excinfo.value.detail["tenant"] == "hammer"

    def test_retry_after_header_is_served(self):
        spec = small_spec(tgas=("6gen",))
        policy = TenantPolicy(rate=0.001, burst=1.0)
        with Harness(tenant_policy=policy) as harness:
            with harness.client() as client:
                client.submit(spec)
            conn = http.client.HTTPConnection("127.0.0.1", harness.service.port)
            try:
                conn.request(
                    "POST", "/v1/studies", body=json.dumps(spec.to_dict()),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 429
                assert float(response.getheader("Retry-After")) > 0
                body = json.loads(response.read())
                assert body["error"]["code"] == "rate_limited"
            finally:
                conn.close()

    def test_malformed_json_body_gets_400(self):
        with Harness() as harness:
            conn = http.client.HTTPConnection("127.0.0.1", harness.service.port)
            try:
                conn.request(
                    "POST", "/v1/studies", body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 400
                assert json.loads(response.read())["error"]["code"] == "bad_request"
            finally:
                conn.close()

    def test_invalid_spec_gets_400_with_field_detail(self):
        with Harness() as harness, harness.client() as client:
            with pytest.raises(InvalidSpecError) as excinfo:
                client.submit({"scale": "planetary"})
            assert excinfo.value.http_status == 400
            assert excinfo.value.detail["field"] == "scale"
            with pytest.raises(InvalidSpecError):
                client.submit({"bogus": 1})

    def test_empty_body_gets_400(self):
        with Harness() as harness:
            conn = http.client.HTTPConnection("127.0.0.1", harness.service.port)
            try:
                conn.request("POST", "/v1/studies")
                response = conn.getresponse()
                assert response.status == 400
                assert json.loads(response.read())["error"]["code"] == "invalid_spec"
            finally:
                conn.close()

    def test_unknown_study_and_route_get_404(self):
        with Harness() as harness, harness.client() as client:
            with pytest.raises(NotFoundError):
                client.get("st-0000000000000000")
            with pytest.raises(NotFoundError):
                client._json("GET", "/no/such/route")


class TestTenantRegistry:
    def test_active_cap_enforced_without_sleeping(self):
        registry = TenantRegistry(
            TenantPolicy(rate=1000.0, burst=1000.0, max_active=2)
        )
        registry.admit("team")
        registry.admit("team")
        with pytest.raises(QueueFullError) as excinfo:
            registry.admit("team")
        assert excinfo.value.detail["max_active"] == 2
        registry.release("team")
        registry.admit("team")  # a freed slot admits again

    def test_token_bucket_driven_by_injectable_clock(self):
        now = [0.0]
        registry = TenantRegistry(
            TenantPolicy(rate=1.0, burst=2.0, max_active=100),
            clock=lambda: now[0],
        )
        registry.admit("t")
        registry.admit("t")  # burst exhausted
        with pytest.raises(RateLimitedError) as excinfo:
            registry.admit("t")
        assert excinfo.value.detail["retry_after"] == pytest.approx(1.0)
        now[0] += 1.0  # one token refills at rate=1/s
        registry.admit("t")

    def test_tenants_are_isolated(self):
        registry = TenantRegistry(
            TenantPolicy(rate=0.001, burst=1.0), clock=lambda: 0.0
        )
        registry.admit("a")
        with pytest.raises(RateLimitedError):
            registry.admit("a")
        registry.admit("b")  # a's exhaustion never touches b
        snapshot = registry.snapshot()
        assert snapshot["a"]["rejected"] == 1
        assert snapshot["b"]["rejected"] == 0


class TestTokenBucket:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1, 0)

    def test_failed_acquire_consumes_nothing(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)
        # Repeated failures do not push the wait further out.
        assert bucket.try_acquire() == pytest.approx(1.0)
        now[0] += 0.5
        assert bucket.try_acquire() == pytest.approx(0.5)
        now[0] += 0.5
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.available == pytest.approx(3.0)


class TestEventLog:
    def test_append_since_close(self):
        log = EventLog()
        log.append({"n": 1})
        log.append({"n": 2})
        assert len(log) == 2
        assert log.since(0) == [{"n": 1}, {"n": 2}]
        assert log.since(1) == [{"n": 2}]
        assert log.since(5) == []
        assert not log.closed
        log.close()
        assert log.closed


class TestDatasetNamePinning:
    def test_service_keys_match_real_construction_names(self):
        """_DATASET_NAMES mirrors DatasetConstructions; drift would make
        the checkpoint tier silently miss, so pin every mapping."""
        spec = small_spec()
        study = spec.build_study()
        for dataset in _DATASET_NAMES:
            named = StudySpec(**{**SMALL, "dataset": dataset})
            assert named.dataset_for(study).name == _DATASET_NAMES[dataset]
