"""Fault-path contract: every failure mode maps to its HTTP status.

400 malformed source (caret diagnostic) / bad JSON / bad schema,
411 missing length, 413 oversized body, 429 + Retry-After on a full
queue, 500 worker crash (traceback + input digest in the error body),
503 during drain, 504 on timeout — plus the graceful-shutdown
guarantee: a request in flight when shutdown starts still gets its
response.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

pytestmark = pytest.mark.tier1

SOURCE = (
    "PROGRAM t\n"
    "PARAMETER N = 32\n"
    "REAL A(N,N), B(N,N)\n"
    "DO J = 1, N\n"
    "  DO I = 1, N\n"
    "    A(I,J) = B(J,I) + 1.0\n"
    "  ENDDO\n"
    "ENDDO\n"
    "END\n"
)


class TestBadRequests:
    def test_malformed_source_gets_caret_diagnostic(self, client):
        reply = client.optimize("PROGRAM t\nDO I = oops\nEND\n")
        assert reply.status == 400
        error = reply.payload["error"]
        assert error["code"] == "parse-error"
        assert "^" in error["detail"]
        assert "2:" in error["detail"]  # line:col prefix points at DO line

    def test_bad_json_body(self, client):
        reply = client.request("POST", "/v1/optimize", b"{not json")
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "bad-json"

    def test_unknown_field_is_rejected(self, client):
        reply = client.optimize(SOURCE, tile_size=8)
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "unknown-field"
        assert "tile_size" in reply.payload["error"]["message"]

    def test_source_and_ir_are_mutually_exclusive(self, client):
        reply = client.request(
            "POST", "/v1/optimize", {"source": SOURCE, "ir": {"name": "x"}}
        )
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "bad-input"

    def test_bad_ir_names_the_json_path(self, client):
        reply = client.optimize(ir={"name": "x", "params": {}, "arrays": []})
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "bad-ir"

    @pytest.mark.parametrize(
        "endpoint,fields",
        [
            ("optimize", {"line": 48}),
            ("lint", {"line": 48}),
            ("locality", {"line": 48}),
            ("autotune", {"line": 48}),
            ("lint", {"checks": ["NOPE"]}),
            ("lint", {"checks": [2]}),
            ("locality", {"capacities": ["a"]}),
            ("locality", {"capacities": [0]}),
            ("locality", {"capacities": [-4]}),
            ("locality", {"capacities": [True]}),
        ],
    )
    def test_bad_field_values_are_400(self, client, endpoint, fields):
        reply = client.request(
            "POST", f"/v1/{endpoint}", {"source": SOURCE, **fields}
        )
        assert reply.status == 400
        error = reply.payload["error"]
        assert error["code"] == "bad-field"
        assert next(iter(fields)) in error["message"]

    def test_unknown_endpoint(self, client):
        reply = client.request("POST", "/v1/vectorize", {"source": SOURCE})
        assert reply.status == 404
        assert reply.payload["error"]["code"] == "unknown-endpoint"

    def test_fault_field_requires_debug_config(self, server_factory):
        handle = server_factory(debug_faults=False)
        reply = handle.client.optimize(SOURCE, fault="boom")
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "fault-disabled"


class TestOversizedBody:
    def test_body_over_cap_is_413(self, server_factory):
        handle = server_factory(max_body_bytes=4096)
        reply = handle.client.request("POST", "/v1/optimize", b"x" * 8192)
        assert reply.status == 413
        assert reply.payload["error"]["code"] == "body-too-large"
        assert "REPRO_SERVER_MAX_BODY_BYTES" in reply.payload["error"]["message"]

    def test_missing_content_length_is_411(self, server):
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/optimize HTTP/1.1\r\nHost: x\r\n\r\n")
            raw = sock.recv(4096)
        assert raw.startswith(b"HTTP/1.1 411 ")


class TestWorkerCrash:
    def test_crash_maps_to_500_with_traceback_and_digest(self, client):
        reply = client.optimize(SOURCE, fault="boom")
        assert reply.status == 500
        error = reply.payload["error"]
        assert error["code"] == "worker-failure"
        assert "RuntimeError" in error["detail"]
        assert "injected worker fault" in error["detail"]
        assert len(error["input_digest"]) == 12

    def test_crash_leaves_a_server_remark(self, server):
        server.client.optimize(SOURCE, fault="boom")
        remarks = [r for r in server.server.obs.remarks if r.pass_name == "server"]
        assert remarks and remarks[0].kind == "failed"
        assert remarks[0].reason == "worker-failure"

    def test_crash_is_never_cached_and_siblings_survive(self, server):
        assert server.client.optimize(SOURCE, fault="boom").status == 500
        healthy = server.client.optimize(SOURCE)
        assert healthy.status == 200
        assert healthy.cache_state == "miss"  # the 500 did not poison the key

    def test_poison_request_in_a_shared_batch_fails_alone(self, server_factory):
        """One boom + healthy siblings land in one batch: only it 500s."""
        handle = server_factory(
            debug_faults=True, batch_max=4, batch_window_ms=200.0
        )

        def call(i):
            if i == 0:
                return handle.client.optimize(SOURCE, fault="boom").status
            scaled = SOURCE.replace("32", str(32 + 8 * i))
            return handle.client.optimize(scaled).status

        with ThreadPoolExecutor(4) as pool:
            statuses = sorted(pool.map(call, range(4)))
        assert statuses == [200, 200, 200, 500]


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, server_factory):
        handle = server_factory(
            debug_faults=True, queue_depth=1, batch_max=1
        )

        def call(i):
            scaled = SOURCE.replace("32", str(32 + 8 * i))
            return handle.client.optimize(scaled, fault="sleep:0.5")

        with ThreadPoolExecutor(6) as pool:
            replies = list(pool.map(call, range(6)))
        statuses = sorted(reply.status for reply in replies)
        assert 429 in statuses
        assert 200 in statuses
        rejected = next(reply for reply in replies if reply.status == 429)
        assert rejected.headers["retry-after"] == "1"
        assert rejected.payload["error"]["code"] == "queue-full"

    def test_rejected_request_succeeds_on_retry(self, server_factory):
        handle = server_factory(debug_faults=True, queue_depth=1, batch_max=1)

        def call(i):
            scaled = SOURCE.replace("32", str(32 + 8 * i))
            return handle.client.optimize(scaled, fault="sleep:0.3")

        with ThreadPoolExecutor(6) as pool:
            replies = list(pool.map(call, range(6)))
        retried = [
            i for i, reply in enumerate(replies) if reply.status == 429
        ]
        assert retried, "load did not trigger backpressure"
        for i in retried:
            scaled = SOURCE.replace("32", str(32 + 8 * i))
            assert handle.client.optimize(scaled).status == 200


class TestTimeout:
    def test_slow_request_is_504(self, server_factory):
        handle = server_factory(debug_faults=True, request_timeout_s=0.3)
        reply = handle.client.optimize(SOURCE, fault="sleep:2")
        assert reply.status == 504
        assert reply.payload["error"]["code"] == "timeout"
        assert "REPRO_SERVER_REQUEST_TIMEOUT_S" in reply.payload["error"]["message"]


class TestGracefulShutdown:
    def test_inflight_request_survives_shutdown(self, server_factory):
        """Shutdown mid-request: the drained response still arrives."""
        handle = server_factory(debug_faults=True)
        result = {}

        def go():
            result["reply"] = handle.client.optimize(SOURCE, fault="sleep:0.6")

        worker = threading.Thread(target=go)
        worker.start()
        time.sleep(0.2)  # request is in flight
        drain = handle.shutdown_async()
        worker.join(timeout=15)
        drain.result(timeout=15)
        assert result["reply"].status == 200
        assert result["reply"].payload["endpoint"] == "optimize"

    def test_new_requests_rejected_while_draining(self, server_factory):
        handle = server_factory(debug_faults=True)
        blocker = threading.Thread(
            target=lambda: handle.client.optimize(SOURCE, fault="sleep:0.8")
        )
        blocker.start()
        time.sleep(0.2)
        drain = handle.shutdown_async()
        time.sleep(0.1)
        # The listener is closed; a fresh connection must be refused.
        with pytest.raises(OSError):
            handle.client.healthz()
        blocker.join(timeout=15)
        drain.result(timeout=15)
