"""Golden request/response contract tests, one per endpoint.

Response bodies are deterministic by design (stable field order, no
volatile values — timing and cache state travel in headers), so the
full body is snapshotted under ``tests/golden/server/`` and compared
byte-for-byte. Refresh after a deliberate contract change with::

    PYTHONPATH=src python -m pytest tests/server/test_contract.py --update-golden
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.tier1

SOURCE = (
    "PROGRAM contract\n"
    "PARAMETER N = 32\n"
    "REAL A(N,N), B(N,N)\n"
    "DO J = 1, N\n"
    "  DO I = 1, N\n"
    "    A(I,J) = B(J,I) + 1.0\n"
    "  ENDDO\n"
    "ENDDO\n"
    "END\n"
)

#: the same nest as SOURCE, expressed as the structured JSON IR
IR = {
    "name": "contract",
    "params": {"N": 32},
    "arrays": [
        {"name": "A", "shape": ["N", "N"], "elem_size": 8},
        {"name": "B", "shape": ["N", "N"], "elem_size": 8},
    ],
    "body": [
        {
            "loop": {
                "var": "J",
                "lb": 1,
                "ub": "N",
                "step": 1,
                "body": [
                    {
                        "loop": {
                            "var": "I",
                            "lb": 1,
                            "ub": "N",
                            "step": 1,
                            "body": [
                                {"assign": {"lhs": "A(I,J)", "rhs": "B(J,I) + 1.0"}}
                            ],
                        }
                    }
                ],
            }
        }
    ],
}


def body_text(reply) -> str:
    return reply.body.decode("utf-8")


class TestEndpointGoldens:
    def test_optimize(self, client, golden):
        reply = client.optimize(SOURCE, scalar_replace=True)
        assert reply.status == 200
        assert reply.cache_state == "miss"
        assert reply.headers["x-repro-digest"] == reply.payload["digest"]
        golden("server/optimize.json", body_text(reply))

    def test_optimize_from_ir_is_the_same_response(self, client, golden):
        reply = client.optimize(ir=IR, scalar_replace=True)
        assert reply.status == 200
        # Same canonical nest, same params -> the same contract bytes.
        golden("server/optimize.json", body_text(reply))

    def test_lint(self, client, golden):
        reply = client.lint(SOURCE)
        assert reply.status == 200
        assert reply.payload["result"]["counts"]["warning"] >= 1
        golden("server/lint.json", body_text(reply))

    def test_locality(self, client, golden):
        reply = client.locality(SOURCE, capacities=[16, 64, 512])
        assert reply.status == 200
        ladder = [row["miss_ratio"] for row in reply.payload["capacities"]]
        assert ladder == sorted(ladder, reverse=True)
        golden("server/locality.json", body_text(reply))

    def test_autotune(self, client, golden):
        reply = client.autotune(SOURCE, budget=8, beam=2)
        assert reply.status == 200
        assert reply.payload["locality"]["improvement_pp"] >= 0
        golden("server/autotune.json", body_text(reply))

    def test_parse_error_diagnostic(self, client, golden):
        reply = client.optimize("PROGRAM t\nDO = oops\nEND\n")
        assert reply.status == 400
        assert reply.payload["error"]["code"] == "parse-error"
        assert "^" in reply.payload["error"]["detail"]
        golden("server/error_parse.json", body_text(reply))

    def test_healthz(self, client):
        reply = client.healthz()
        assert reply.status == 200
        assert reply.payload == {"schema": 1, "status": "ok"}


class TestCacheContract:
    def test_hit_is_byte_identical_to_miss(self, client):
        first = client.optimize(SOURCE)
        second = client.optimize(SOURCE)
        assert (first.cache_state, second.cache_state) == ("miss", "hit")
        assert first.body == second.body

    def test_alpha_variant_shares_the_cache_entry(self, client):
        """Renamed loop vars + reordered decls -> same key, same bytes."""
        variant = (
            "PROGRAM renamed\n"
            "PARAMETER N = 32\n"
            "REAL B(N,N), A(N,N)\n"
            "DO JJ = 1, N\n"
            "  DO II = 1, N\n"
            "    A(II,JJ) = B(JJ,II) + 1.0\n"
            "  ENDDO\n"
            "ENDDO\n"
            "END\n"
        )
        first = client.optimize(SOURCE)
        second = client.optimize(variant)
        assert second.cache_state == "hit"
        assert first.body == second.body
        assert first.headers["x-repro-digest"] == second.headers["x-repro-digest"]

    def test_different_params_miss(self, client):
        client.optimize(SOURCE)
        other = client.optimize(SOURCE, cls=8)
        assert other.cache_state == "miss"

    def test_metrics_report_the_hits(self, server):
        client = server.client
        for _ in range(3):
            client.lint(SOURCE)
        metrics = client.metrics().payload
        assert metrics["cache"]["hits"] == 2
        assert metrics["cache"]["misses"] == 1
        assert metrics["requests"]["by_endpoint"]["lint"] == 3
        assert metrics["requests"]["by_status"]["200"] >= 3


class TestServerObservability:
    def test_misses_add_counters_and_keep_no_spans_or_remarks(
        self, server_factory, monkeypatch
    ):
        """``/metrics`` counters are the sum of the jobs' counters, and the
        long-lived server context retains nothing else per request."""
        import repro.server.app as app
        from repro.obs import MetricsRegistry

        expected = MetricsRegistry()
        original = app.execute

        def recording(endpoint, text, digest, params, fault=""):
            payload, metrics = original(endpoint, text, digest, params, fault)
            expected.merge(metrics)
            return payload, metrics

        monkeypatch.setattr(app, "execute", recording)
        handle = server_factory(jobs=1)
        for size in range(16, 48, 4):
            reply = handle.client.optimize(SOURCE.replace("32", str(size)))
            assert reply.status == 200 and reply.cache_state == "miss"
        counters = handle.client.metrics().payload["counters"]
        assert counters == expected.snapshot()["counters"]
        assert counters["compound.nests"] == 8
        assert counters["locality.predictions"] == 2 * 8
        assert handle.server.obs.tracer.spans == []
        assert handle.server.obs.remarks == []


class TestParseRequest:
    def test_canonicalizes_each_request_once(self, monkeypatch):
        import json

        import repro.ir.canon as canon
        import repro.server.protocol as protocol

        calls = []
        original = canon.canonical_program

        def counting(program):
            calls.append(program.name)
            return original(program)

        monkeypatch.setattr(canon, "canonical_program", counting)
        monkeypatch.setattr(protocol, "canonical_program", counting)
        body = json.dumps({"source": SOURCE}).encode()
        request = protocol.parse_request("optimize", body, False)
        assert calls == ["contract"]
        monkeypatch.undo()
        from repro.frontend import parse_program

        assert request.digest == canon.content_digest(parse_program(SOURCE))
