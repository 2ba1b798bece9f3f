"""Tests for the serving layer: job grammar, endpoints, single-flight.

The acceptance invariant lives in ``TestSingleFlight``: N concurrent
identical ``/expansion`` requests must produce exactly one build chain —
``CacheStats.builds`` is the proof, not response timing.  Everything runs
on loopback with ``port=0`` (the OS picks a free port) and an injected
memory-only cache, so the suite is hermetic and parallel-safe.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

import repro.serve.http as http_mod
from repro.core.bounds import (
    LG7,
    memory_independent_bound,
    parallel_io_bound,
    sequential_io_bound,
)
from repro.engine import pool as pool_runtime
from repro.engine.builders import cached_estimate
from repro.engine.cache import CACHE_NAMESPACE, EngineCache
from repro.serve import (
    JOB_KINDS,
    ExpansionService,
    Job,
    ServeConfig,
    fetch_json,
    parse_job,
    run_job_inline,
)
from repro.serve.http import Request
from repro.serve.jobs import MAX_K, MAX_SWEEP_POINTS
from repro.topology import Topology


@pytest.fixture
def cache():
    return EngineCache(disk=False)


def _run_with_service(cache, scenario, workers=0):
    """Boot a service on a free loopback port, run ``scenario(svc)``, stop."""

    async def _main():
        svc = ExpansionService(
            ServeConfig(host="127.0.0.1", port=0, workers=workers), cache=cache
        )
        await svc.start()
        try:
            return await scenario(svc)
        finally:
            await svc.stop()

    return asyncio.run(_main())


def _get(svc, target):
    return fetch_json("127.0.0.1", svc.port, target)


def _request(target):
    """A parsed GET for ``svc.handle`` (no sockets)."""
    path, _, query = target.partition("?")
    params = dict(item.split("=", 1) for item in query.split("&")) if query else {}
    return Request(method="GET", target=target, path=path, query=params, headers={})


class TestJobGrammar:
    def test_param_order_is_canonicalized(self):
        a = parse_job("expansion", {"scheme": "strassen", "k": "2"})
        b = parse_job("expansion", {"k": "2", "scheme": "strassen"})
        assert a == b
        assert a.key() == b.key()

    def test_defaults_fill_in(self):
        job = parse_job("expansion", {})
        assert job.as_dict() == {"scheme": "strassen", "k": 4, "policy": "auto"}

    def test_kinds_are_distinct_key_namespaces(self):
        # same (empty) raw query, different kinds: keys must never collide
        keys = {parse_job(kind, {}).key() for kind in ("expansion", "bounds")}
        assert len(keys) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            parse_job("spectra", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_job("expansion", {"kk": "2"})

    def test_type_and_range_validation(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_job("expansion", {"k": "two"})
        with pytest.raises(ValueError, match=rf"\[1, {MAX_K}\]"):
            parse_job("expansion", {"k": str(MAX_K + 1)})
        with pytest.raises(ValueError, match="policy"):
            parse_job("expansion", {"policy": "bogus"})

    def test_sweep_point_cap(self):
        with pytest.raises(ValueError, match=str(MAX_SWEEP_POINTS)):
            parse_job(
                "sweep",
                {"k_min": "1", "k_max": "7", "memories": ",".join(["48"] * 40)},
            )
        with pytest.raises(ValueError, match="k_min"):
            parse_job("sweep", {"k_min": "3", "k_max": "1"})

    def test_all_kinds_parse_their_defaults(self):
        for kind in JOB_KINDS:
            job = parse_job(kind, {})
            assert isinstance(job, Job) and job.kind == kind


class TestEndpoints:
    def test_healthz(self, cache):
        async def scenario(svc):
            return await _get(svc, "/healthz")

        status, body = _run_with_service(cache, scenario)
        assert (status, body) == (200, {"status": "ok"})

    def test_expansion_matches_direct_computation(self, cache):
        async def scenario(svc):
            return await _get(svc, "/expansion?scheme=strassen&k=2")

        status, body = _run_with_service(cache, scenario)
        est = cached_estimate("strassen", 2, cache=EngineCache(disk=False))
        assert status == 200
        assert body["method"] == est.method
        assert body["upper"] == pytest.approx(est.upper)
        assert body["lower"] == pytest.approx(est.lower)
        iv = est.interval()
        assert body["interval"]["provenance"] == iv.provenance
        assert body["interval"]["lower"] == pytest.approx(iv.lower)
        assert body["interval"]["upper"] == pytest.approx(iv.upper)
        assert body["interval"]["lower"] <= body["interval"]["upper"]

    def test_zero_expansion_graph_answers_zero_interval(self, cache):
        # classical2's Dec_3 has a zero-boundary witness: h = 0 is certified
        async def scenario(svc):
            return await _get(svc, "/expansion?scheme=classical2&k=3")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["interval"]["lower"] == body["interval"]["upper"] == 0.0

    def test_cone_only_nan_serializes_as_null(self, cache):
        async def scenario(svc):
            return await _get(svc, "/expansion?scheme=strassen&k=5")

        status, body = _run_with_service(cache, scenario)
        est = cached_estimate("strassen", 5, cache=EngineCache(disk=False))
        assert status == 200 and est.method == "cone-only" and math.isnan(est.lower)
        assert body["lower"] is None  # strict JSON: NaN -> null, never a NaN token
        # The certified interval has no hole: the trivial 0 lower, tagged.
        assert body["interval"] == {
            "lower": 0.0,
            "upper": pytest.approx(est.upper),
            "provenance": "cone",
        }

    def test_bounds_matches_closed_forms(self, cache):
        async def scenario(svc):
            return await _get(svc, "/bounds?n=4096&M=256&p=64")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["sequential_io_bound"] == pytest.approx(
            sequential_io_bound(4096.0, 256.0, omega0=LG7)
        )
        assert body["parallel_io_bound"] == pytest.approx(
            parallel_io_bound(4096.0, 256.0, 64, omega0=LG7)
        )
        assert body["memory_independent_bound"] == pytest.approx(
            memory_independent_bound(4096.0, 64, omega0=LG7)
        )
        assert body["binding"] in ("memory-dependent", "memory-independent")

    def test_sweep_runs_and_reports_points(self, cache):
        async def scenario(svc):
            return await _get(svc, "/sweep?schemes=strassen&k_min=1&k_max=2&memories=48")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["points"] == 2 == len(body["rows"])
        assert body["spec"]["schemes"] == ["strassen"]

    def test_scaling_runs_and_reports_points(self, cache):
        async def scenario(svc):
            return await _get(svc, "/scaling?n=16&p_max=4&cs=1,2")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["points"] == len(body["rows"]) > 0

    def test_plan_returns_ranked_plans(self, cache):
        async def scenario(svc):
            return await _get(svc, "/plan?n=56&topology=fat-tree:4x4")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["topology"]["name"] == "fat-tree:4x4"
        rows = body["plans"]
        assert rows
        times = [row["predicted_time"] for row in rows]
        assert times == sorted(times)
        assert {"label", "p", "words", "lower_bound", "binding"} <= set(rows[0])

    def test_plan_bad_topology_400(self, cache):
        async def scenario(svc):
            return await _get(svc, "/plan?n=56&topology=hypercube:8")

        status, body = _run_with_service(cache, scenario)
        assert status == 400 and "topology" in body["error"]

    @pytest.mark.parametrize("route", ["/scaling?n=28", "/plan?n=56"])
    @pytest.mark.parametrize("cs", ["0", "-1", "1,0"])
    def test_replication_factor_below_one_400(self, cache, route, cs):
        # c = 0 used to divide by zero (500); c < 0 silently dropped every
        # 2.5D row (200)
        async def scenario(svc):
            return await _get(svc, f"{route}&cs={cs}")

        status, body = _run_with_service(cache, scenario)
        assert status == 400 and "replication factor" in body["error"]

    def test_plan_hit_builds_no_topology(self, cache, monkeypatch):
        # the 400 check reads the spec's grammar; only the build constructs
        torus = Topology.torus
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return torus(*args, **kwargs)

        monkeypatch.setattr(Topology, "torus", spy)
        request = _request("/plan?n=256&topology=torus:64x64")

        async def scenario(svc):
            first = await svc.handle(request)
            after_build = len(calls)
            second = await svc.handle(request)
            return first, second, after_build

        first, second, after_build = _run_with_service(cache, scenario)
        assert first.status == second.status == 200
        assert after_build == 1  # the one payload build
        assert len(calls) == 1  # the hit constructed nothing

    def test_unknown_route_404(self, cache):
        async def scenario(svc):
            return await _get(svc, "/spectra")

        status, body = _run_with_service(cache, scenario)
        assert status == 404 and "no route" in body["error"]

    def test_domain_error_400(self, cache):
        async def scenario(svc):
            return await _get(svc, "/expansion?scheme=strassen&k=99")

        status, body = _run_with_service(cache, scenario)
        assert status == 400 and "k" in body["error"]

    def test_unknown_scheme_400_not_500(self, cache):
        # KeyError from the scheme registry is the client's fault
        async def scenario(svc):
            return await _get(svc, "/expansion?scheme=nope&k=1")

        status, body = _run_with_service(cache, scenario)
        assert status == 400

    def test_post_405(self, cache):
        async def post(svc):
            return await fetch_json("127.0.0.1", svc.port, "/expansion", method="POST")

        status, body = _run_with_service(cache, post)
        assert status == 405 and "POST" in body["error"]

    def test_malformed_request_line_400(self, cache):
        async def scenario(svc):
            reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
            try:
                writer.write(b"GARBAGE\r\n\r\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()
            return raw

        raw = _run_with_service(cache, scenario)
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_keep_alive_serves_sequential_requests(self, cache):
        async def scenario(svc):
            reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
            try:
                statuses = []
                for _ in range(2):
                    writer.write(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
                    await writer.drain()
                    line = await reader.readuntil(b"\r\n")
                    statuses.append(line.decode().split()[1])
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = next(
                        int(h.split(":", 1)[1])
                        for h in head.decode().lower().split("\r\n")
                        if h.startswith("content-length")
                    )
                    await reader.readexactly(length)
                return statuses
            finally:
                writer.close()

        assert _run_with_service(cache, scenario) == ["200", "200"]

    def test_cache_info_includes_service_block(self, cache):
        async def scenario(svc):
            await _get(svc, "/expansion?scheme=strassen&k=1")
            return await _get(svc, "/cache/info")

        status, body = _run_with_service(cache, scenario)
        assert status == 200
        assert body["service"]["requests"] == 2
        assert body["service"]["workers"] == 0
        assert "disk_degraded" in body and "memory" in body
        assert body["namespace"] == CACHE_NAMESPACE


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self, cache):
        """The acceptance criterion: 8 racing clients, one build chain."""
        clients = 8

        async def scenario(svc):
            results = await asyncio.gather(
                *(_get(svc, "/expansion?scheme=strassen&k=2") for _ in range(clients))
            )
            return results

        results = _run_with_service(cache, scenario)
        assert all(status == 200 for status, _ in results)
        bodies = [body for _, body in results]
        assert all(body == bodies[0] for body in bodies)
        # strassen k=2 at auto policy resolves spectrally: dec graph +
        # spectrum + estimate = 3 builds, total — not 3 per client.
        assert cache.stats.builds == 3

    def test_submit_dedup_is_exact(self, cache):
        """Driving handle() directly (no sockets): followers dedup exactly."""
        clients = 8
        request = _request("/expansion?scheme=strassen&k=2")

        async def scenario(svc):
            responses = await asyncio.gather(*(svc.handle(request) for _ in range(clients)))
            return responses, svc.deduped, svc.errors

        responses, deduped, errors = _run_with_service(cache, scenario)
        assert [r.status for r in responses] == [200] * clients
        assert errors == 0
        assert deduped == clients - 1  # one leader, everyone else rode along
        assert cache.stats.builds == 3

    def test_warm_key_answers_without_new_flight(self, cache):
        async def scenario(svc):
            first = await _get(svc, "/expansion?scheme=strassen&k=1")
            second = await _get(svc, "/expansion?scheme=strassen&k=1")
            return first, second, svc.deduped, dict(svc._inflight)

        first, second, deduped, inflight = _run_with_service(cache, scenario)
        assert first == second
        assert deduped == 0  # sequential: the second hit the cache, not a flight
        assert inflight == {}  # nothing leaked in the in-flight map

    def test_distinct_keys_do_not_dedup(self, cache):
        async def scenario(svc):
            await asyncio.gather(
                _get(svc, "/expansion?scheme=strassen&k=1"),
                _get(svc, "/expansion?scheme=strassen&k=2"),
            )
            return svc.deduped

        assert _run_with_service(cache, scenario) == 0


class TestStoredBodies:
    """Hot keys answer with the body bytes encoded at build time."""

    def test_hits_do_not_reencode(self, cache, monkeypatch):
        calls = []
        jsonable = http_mod.jsonable

        def counting(obj):
            calls.append(obj)
            return jsonable(obj)

        monkeypatch.setattr(http_mod, "jsonable", counting)
        targets = ["/expansion?scheme=strassen&k=2", "/bounds?n=4096&M=256&p=64"]

        async def scenario(svc):
            for target in targets:
                await svc.handle(_request(target))
            built = len(calls)
            for _ in range(5):
                for target in targets:
                    assert (await svc.handle(_request(target))).status == 200
            return built

        built = _run_with_service(cache, scenario)
        assert built == len(targets)  # one top-level encode per build
        assert len(calls) == built  # ten hits, zero encodes

    def test_cold_hit_follower_and_pooled_bodies_are_identical(self, cache):
        request = _request("/expansion?scheme=strassen&k=2")

        async def leader_and_follower(svc):
            cold, follower = await asyncio.gather(svc.handle(request), svc.handle(request))
            hit = await svc.handle(request)
            return cold, follower, hit, svc.deduped

        async def pooled(svc):
            first = await svc.handle(request)
            return first, await svc.handle(request)

        cold, follower, hit, deduped = _run_with_service(cache, leader_and_follower)
        pooled_cold, pooled_hit = _run_with_service(EngineCache(disk=False), pooled, workers=2)
        assert deduped == 1
        bodies = {r.body for r in (cold, follower, hit, pooled_cold, pooled_hit)}
        assert len(bodies) == 1
        assert json.loads(bodies.pop())["method"].startswith("spectral")

    def test_cone_only_nan_is_stored_as_null(self, cache):
        request = _request("/expansion?scheme=strassen&k=5&policy=cone")

        async def scenario(svc):
            return [await svc.handle(request) for _ in range(2)]

        cold, hit = _run_with_service(cache, scenario)
        assert cold.body == hit.body
        assert b"NaN" not in hit.body
        assert json.loads(hit.body)["lower"] is None

    def test_memory_tier_counts_body_bytes(self):
        cache = EngineCache(disk=False, memory_bytes=1 << 20)
        job = parse_job("bounds", {})
        body = run_job_inline(job, cache)
        assert isinstance(body, bytes)
        assert cache.info()["memory"]["bytes"] >= len(body)


class TestWorkerPool:
    def test_process_pool_merges_worker_stats(self, tmp_path):
        cache = EngineCache(tmp_path / "serve-cache")

        async def scenario(svc):
            status, body = await _get(svc, "/expansion?scheme=strassen&k=1")
            info_status, info = await _get(svc, "/cache/info")
            return status, body, info

        status, body, info = _run_with_service(cache, scenario, workers=1)
        assert status == 200 and body["method"] == "exact"
        # the worker's counter delta was merged into the parent's stats
        assert info["stats"]["builds"] >= 1
        assert info["service"]["workers"] == 1

    def test_bounds_never_ships_to_the_pool(self, cache):
        def shipped():
            stats = pool_runtime.pool_stats_snapshot()
            return stats["tasks_dispatched"] + stats["serial_tasks"]

        async def scenario(svc):
            before = shipped()
            status, _ = await _get(svc, "/bounds?n=4096&M=256&p=64")
            after_bounds = shipped()
            await _get(svc, "/expansion?scheme=strassen&k=1")
            return status, after_bounds - before, shipped() - after_bounds

        status, bounds_shipped, expansion_shipped = _run_with_service(cache, scenario, workers=2)
        assert status == 200
        assert bounds_shipped == 0  # closed form: answered in the thread executor
        assert expansion_shipped == 1  # a build still rides the pool


class TestCliWiring:
    def test_serve_flags_construct_config(self, monkeypatch):
        import repro.serve.service as service_mod
        from repro.engine.cli import main

        captured = {}

        def fake_run(config):
            captured["config"] = config
            return 0

        monkeypatch.setattr(service_mod, "run", fake_run)
        rc = main(
            [
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--memory-items",
                "8",
                "--memory-mb",
                "0",
            ]
        )
        assert rc == 0
        config = captured["config"]
        assert config.port == 0 and config.workers == 2
        assert config.memory_items == 8 and config.memory_bytes is None

    def test_run_job_inline_counts_one_build_per_payload(self, cache):
        job = parse_job("bounds", {})
        first = run_job_inline(job, cache)
        builds_after_first = cache.stats.builds
        second = run_job_inline(job, cache)
        assert first is second  # the stored body itself
        assert builds_after_first == cache.stats.builds  # warm path: no rebuild
