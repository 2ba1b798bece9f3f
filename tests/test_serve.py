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
import socket

import pytest

import repro.serve.http as http_mod
import repro.serve.service as service_mod
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
from repro.serve.http import MAX_HEADERS, MAX_LINE_BYTES, HttpError, Request, parse_request
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
    return Request(method="GET", target=target)


def _get_line(target, *headers, version="HTTP/1.1"):
    """One raw GET request as bytes."""
    lines = [f"GET {target} {version}", "host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _read_response(reader):
    """One response off a keep-alive stream: ``(status, headers, body)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10)
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:] if line)
    }
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split()[1]), headers, body


async def _session(svc, chunks, count):
    """Write ``chunks`` on one connection, then read ``count`` responses.

    Returns the responses and, when the last one says ``connection:
    close``, whether the server then closed the socket (else None).
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
        responses = [await _read_response(reader) for _ in range(count)]
        closed = None
        if responses[-1][1]["connection"] == "close":
            closed = await asyncio.wait_for(reader.read(), timeout=10) == b""
        return responses, closed
    finally:
        writer.close()


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
                    writer.write(_get_line("/healthz"))
                    await writer.drain()
                    statuses.append((await _read_response(reader))[0])
                return statuses
            finally:
                writer.close()

        assert _run_with_service(cache, scenario) == [200, 200]

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


class TestParseRequest:
    """The buffer parser alone: one complete request off the front, or None."""

    def test_byte_at_a_time_parses_once_complete(self):
        raw = _get_line("/bounds?n=64&M=16", "content-length: 3") + b"abc"
        buf = bytearray()
        for i, byte in enumerate(raw):
            buf.append(byte)
            request = parse_request(buf)
            if i + 1 < len(raw):
                assert request is None and len(buf) == i + 1  # nothing consumed
        assert request is not None and buf == bytearray()
        assert (request.method, request.body) == ("GET", b"abc")
        assert request.path == "/bounds" and request.query == {"n": "64", "M": "16"}

    def test_takes_only_the_first_of_pipelined_requests(self):
        buf = bytearray(_get_line("/a") + _get_line("/b"))
        assert parse_request(buf).target == "/a"
        assert parse_request(buf).target == "/b"
        assert parse_request(buf) is None and buf == bytearray()

    @pytest.mark.parametrize("complete", [True, False])
    def test_line_cap_holds_on_partial_and_complete_heads(self, complete):
        raw = b"GET /" + b"a" * MAX_LINE_BYTES
        if complete:
            raw += b" HTTP/1.1\r\n\r\n"
        with pytest.raises(HttpError, match="line longer"):
            parse_request(bytearray(raw))

    @pytest.mark.parametrize("complete", [True, False])
    def test_header_cap_holds_on_partial_and_complete_heads(self, complete):
        headers = [f"x-{i}: {'v' * 200}" for i in range(MAX_HEADERS + 1)]
        raw = _get_line("/healthz", *headers)
        if not complete:
            raw = raw[:-2]  # no blank line yet
        with pytest.raises(HttpError, match=f"more than {MAX_HEADERS} headers"):
            parse_request(bytearray(raw))

    def test_header_count_at_the_cap_is_accepted(self):
        headers = [f"x-{i}: v" for i in range(MAX_HEADERS - 1)]  # plus host
        assert parse_request(bytearray(_get_line("/healthz", *headers))) is not None

    def test_body_waits_for_all_its_bytes(self):
        buf = bytearray(_get_line("/healthz", "content-length: 4") + b"ab")
        assert parse_request(buf) is None
        buf += b"cd"
        assert parse_request(buf).body == b"abcd"


class TestFraming:
    """Protocol-level framing over real sockets."""

    def test_pipelined_requests_in_one_write_are_answered_in_order(self, cache):
        async def scenario(svc):
            payload = _get_line("/bounds?n=4096&M=256&p=64") + _get_line("/healthz")
            return await _session(svc, [payload], 2)

        (first, second), _ = _run_with_service(cache, scenario)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["p"] == 64
        assert json.loads(second[2]) == {"status": "ok"}

    def test_request_fed_one_byte_per_write_is_parsed(self, cache):
        async def scenario(svc):
            raw = _get_line("/healthz")
            return await _session(svc, [raw[i : i + 1] for i in range(len(raw))], 1)

        (response,), _ = _run_with_service(cache, scenario)
        assert response[0] == 200 and json.loads(response[2]) == {"status": "ok"}

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n",
            _get_line("/healthz", *(f"x-{i}: v" for i in range(MAX_HEADERS + 1))),
            _get_line("/healthz", "content-length: five"),
        ],
        ids=["long-line", "too-many-headers", "non-integer-content-length"],
    )
    def test_bad_framing_gets_400_and_a_close(self, cache, raw):
        async def scenario(svc):
            return await _session(svc, [raw], 1)

        (response,), closed = _run_with_service(cache, scenario)
        assert response[0] == 400 and "error" in json.loads(response[2])
        assert response[1]["connection"] == "close" and closed

    def test_content_length_body_is_consumed(self, cache):
        async def scenario(svc):
            payload = _get_line("/healthz", "content-length: 5") + b"hello" + _get_line("/healthz")
            return await _session(svc, [payload], 2)

        responses, _ = _run_with_service(cache, scenario)
        assert [status for status, _, _ in responses] == [200, 200]

    def test_uncached_request_then_pipelined_hot_one_answer_in_order(self, cache):
        hot = "/bounds?n=4096&M=256&p=64"
        cold = "/expansion?scheme=strassen&k=2"

        async def scenario(svc):
            await _get(svc, hot)
            assert svc.stored_body(_request(hot)) is not None  # the lane would answer it
            return await _session(svc, [_get_line(cold) + _get_line(hot)], 2)

        (first, second), _ = _run_with_service(cache, scenario)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["scheme"] == "strassen"
        assert json.loads(second[2])["p"] == 64

    def test_unread_answers_pause_and_resume_writing(self, cache, monkeypatch):
        calls = []
        for name in ("pause_writing", "resume_writing"):
            original = getattr(service_mod._Connection, name)

            def spy(conn, original=original, name=name):
                calls.append(name)
                original(conn)

            monkeypatch.setattr(service_mod._Connection, name, spy)
        targets = ["/bounds?n=4096&M=256&p=64", "/bounds?n=1024&M=256&p=7"]
        rounds = 10_000

        async def scenario(svc):
            for target in targets:
                await _get(svc, target)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", svc.port))
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                writer.write(b"".join(_get_line(t) for t in targets) * rounds)
                await asyncio.sleep(0.2)  # let the server's write buffer fill
                answers = [await _read_response(reader) for _ in range(2 * rounds)]
                return [json.loads(body)["p"] for _, _, body in answers]
            finally:
                writer.close()

        assert _run_with_service(cache, scenario) == [64, 7] * rounds
        assert "pause_writing" in calls and calls[-1] == "resume_writing"


class TestKeepAlive:
    def test_http10_closes_by_default(self, cache):
        async def scenario(svc):
            return await _session(svc, [_get_line("/healthz", version="HTTP/1.0")], 1)

        (response,), closed = _run_with_service(cache, scenario)
        assert response[0] == 200
        assert response[1]["connection"] == "close" and closed

    def test_http10_keep_alive_on_request(self, cache):
        async def scenario(svc):
            raw = _get_line("/healthz", "connection: keep-alive", version="HTTP/1.0")
            return await _session(svc, [raw, raw], 2)

        responses, closed = _run_with_service(cache, scenario)
        assert [r[0] for r in responses] == [200, 200]
        assert all(r[1]["connection"] == "keep-alive" for r in responses) and closed is None

    def test_keep_alive_follows_version_and_header(self):
        def keep(version, connection=None):
            headers = {} if connection is None else {"connection": connection}
            return Request("GET", "/", headers, version=version).keep_alive

        assert keep("HTTP/1.1") and not keep("HTTP/1.1", "close")
        assert not keep("HTTP/1.0") and keep("HTTP/1.0", "Keep-Alive")


class TestShutdown:
    def test_stop_closes_idle_keep_alive_connections_cleanly(self, cache):
        contexts = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: contexts.append(ctx))
            svc = ExpansionService(ServeConfig(host="127.0.0.1", port=0), cache=cache)
            await svc.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
            try:
                writer.write(_get_line("/healthz"))
                await writer.drain()
                status = (await _read_response(reader))[0]
                await svc.stop()  # the client is idle on a keep-alive socket
                eof = await asyncio.wait_for(reader.read(), timeout=5)
            finally:
                writer.close()
            return status, eof

        assert asyncio.run(main()) == (200, b"")
        assert contexts == []  # the loop's exception handler never ran


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
            (wire,), _ = await _session(svc, [_get_line(request.target)], 1)
            return cold, follower, hit, svc.stored_body(request), wire[2], svc.deduped

        async def pooled(svc):
            first = await svc.handle(request)
            return first, await svc.handle(request), svc.stored_body(request)

        cold, follower, hit, lane, wire, deduped = _run_with_service(cache, leader_and_follower)
        pooled_cold, pooled_hit, pooled_lane = _run_with_service(
            EngineCache(disk=False), pooled, workers=2
        )
        assert deduped == 1
        bodies = {r.body for r in (cold, follower, hit, pooled_cold, pooled_hit)}
        bodies |= {lane, wire, pooled_lane}
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


class TestBodyTier:
    """Serve bodies live in a tier of their own, apart from the artifacts."""

    def test_artifact_churn_evicts_no_stored_body(self):
        artifacts = EngineCache(disk=False, memory_items=4)
        hot = "/bounds?n=4096&M=256&p=64"
        churn = [
            f"/expansion?scheme={scheme}&k={k}&policy={policy}"
            for scheme in ("strassen", "winograd")
            for k in (1, 2)
            for policy in ("auto", "spectral", "cone")
        ]

        async def scenario(svc):
            await svc.handle(_request(hot))
            for target in churn:
                assert (await svc.handle(_request(target))).status == 200
            return svc.stored_body(_request(hot)), svc.body_cache.info()

        body, info = _run_with_service(artifacts, scenario)
        assert artifacts.stats.evictions > 0  # the artifact LRU did churn
        assert body is not None and json.loads(body)["p"] == 64
        assert info["stats"]["evictions"] == 0
        assert info["memory"]["items"] == len(churn) + 1

    def test_cache_info_breaks_down_tiers_and_sums_stats(self, cache):
        async def scenario(svc):
            for _ in range(3):
                await _get(svc, "/expansion?scheme=strassen&k=1")
            return await _get(svc, "/cache/info")

        status, info = _run_with_service(cache, scenario)
        assert status == 200
        tiers = info["tiers"]
        assert set(tiers) == {"artifacts", "bodies"}
        artifacts, bodies = tiers["artifacts"]["stats"], tiers["bodies"]["stats"]
        assert info["stats"] == {k: artifacts[k] + bodies[k] for k in artifacts}
        assert bodies["hits"] == 2 and artifacts["builds"] >= 1 and bodies["builds"] == 0
        assert tiers["bodies"]["memory"]["items"] == 1
        assert info["memory"] == tiers["artifacts"]["memory"]

    def test_body_tier_is_budgeted_from_memory_bytes(self):
        svc = ExpansionService(ServeConfig(memory_items=8, memory_bytes=1 << 20, disk=False))
        artifact_max = svc.cache.info()["memory"]["max_bytes"]
        body_max = svc.body_cache.info()["memory"]["max_bytes"]
        assert artifact_max + body_max == 1 << 20 and 0 < body_max < artifact_max
        assert svc.cache.info()["memory"]["max_items"] == 8
        assert not svc.body_cache.disk_enabled

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cold_request_counts_one_body_miss(self, workers):
        target = "/expansion?scheme=strassen&k=1"

        async def scenario(svc):
            assert svc.stored_body(_request(target)) is None  # not memoised yet
            await svc.handle(_request(target))  # build
            svc.body_cache.clear()  # the body is gone: the lane must decline
            lane = svc.stored_body(_request(target))
            await svc.handle(_request(target))  # rebuild
            await svc.handle(_request(target))  # hit
            return lane, (await svc._info())["tiers"]["bodies"]["stats"]

        lane, stats = _run_with_service(EngineCache(disk=False), scenario, workers=workers)
        assert lane is None
        if workers == 0:  # one miss per build, none on the lane or the hit
            assert (stats["misses"], stats["hits"]) == (2, 1)
        else:  # pooled builds count their miss in the worker's cache
            assert (stats["misses"], stats["hits"]) == (0, 1)


class TestJobMemo:
    def test_memoised_target_yields_the_parse_job_key(self, cache):
        target = "/expansion?k=2&scheme=strassen"

        async def scenario(svc):
            await svc.handle(_request(target))
            return svc._jobs[target]

        key, job = _run_with_service(cache, scenario)
        expected = parse_job("expansion", {"k": "2", "scheme": "strassen"})
        assert job == expected and key == expected.key()

    def test_memo_stays_within_its_cap(self, cache, monkeypatch):
        monkeypatch.setattr(service_mod, "_JOB_MEMO_ITEMS", 4)
        targets = [f"/bounds?n={64 * (i + 1)}&M=16" for i in range(10)]

        async def scenario(svc):
            sizes = []
            for target in targets:
                assert (await svc.handle(_request(target))).status == 200
                sizes.append(len(svc._jobs))
            return sizes, dict(svc._jobs)

        sizes, memo = _run_with_service(cache, scenario)
        assert max(sizes) <= 4
        assert targets[-1] in memo  # the newest target is always kept

    def test_lane_skips_in_flight_keys(self, cache):
        target = "/bounds?n=4096&M=256&p=64"

        async def scenario(svc):
            await svc.handle(_request(target))
            key = svc._jobs[target][0]
            svc._inflight[key] = asyncio.get_running_loop().create_future()
            try:
                return svc.stored_body(_request(target))
            finally:
                svc._inflight.pop(key).cancel()

        assert _run_with_service(cache, scenario) is None


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
