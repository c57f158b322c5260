"""Wire protocol v1: request validation and deterministic responses.

One schema version covers every compile endpoint. Requests are JSON
objects carrying exactly one of ``source`` (mini-Fortran text) or ``ir``
(the :mod:`repro.ir.jsonio` object) plus endpoint-specific knobs; the
tables below are exhaustive — unknown fields are a 400, so contract
drift fails loudly instead of being silently ignored.

Responses are built with **stable field ordering** (insertion-ordered
dicts, serialized without re-sorting) and contain no volatile values —
no timestamps, no wall times — so a cache hit replays the stored bytes
exactly and golden contract tests can compare raw text. Volatile
request metadata travels in headers instead (``X-Repro-Cache``,
``X-Repro-Elapsed-Ms``, ``X-Repro-Digest``).

The server canonicalizes every nest before compiling
(:mod:`repro.ir.canon`): alpha-renamed loop variables and sorted
declarations. Responses therefore describe the *canonical* form — the
``rename`` table is NOT part of the body (it differs between
alpha-variant requesters sharing one cache entry); clients that need
their own spelling back apply the digest-stable canonical mapping
themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ParseError, ReproError
from repro.ir.canon import canonical_digest, canonical_program
from repro.ir.jsonio import program_from_json
from repro.ir.nodes import Program
from repro.obs.ledger import config_digest

__all__ = [
    "SCHEMA_VERSION",
    "ENDPOINTS",
    "CompileRequest",
    "ProtocolError",
    "error_body",
    "parse_request",
    "render_body",
]

SCHEMA_VERSION = 1

#: endpoint name -> {field: (type, default)}; ``None`` default = optional
#: with a handler-side default. ``source``/``ir``/``fault`` are common.
_COMMON_FIELDS = {"source", "ir", "fault"}
ENDPOINTS: dict[str, dict[str, tuple]] = {
    "optimize": {
        "cls": (int, 4),
        "scalar_replace": (bool, False),
        "line": (int, 128),
        "capacity": (int, 512),
    },
    "lint": {
        "checks": (list, None),
        "verify": (bool, True),
        "line": (int, 128),
        "capacity": (int, 512),
    },
    "locality": {
        "line": (int, 128),
        "capacities": (list, [64, 512]),
    },
    "autotune": {
        "budget": (int, 64),
        "beam": (int, 4),
        "line": (int, 128),
        "capacity": (int, 512),
        "verify": (bool, True),
    },
}


class ProtocolError(Exception):
    """A request the protocol rejects; carries the HTTP status to answer.

    ``detail`` is an optional multi-line diagnostic (e.g. the frontend's
    caret-rendered parse error) surfaced verbatim in the error body.
    """

    def __init__(self, status: int, code: str, message: str, detail: str = ""):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail


@dataclass(frozen=True)
class CompileRequest:
    """One validated compile request, canonicalized and content-addressed.

    ``cache_key`` combines the endpoint, the canonical nest digest, and
    a digest of the effective parameters — two requests with the same
    key are answered with the same bytes.
    """

    endpoint: str
    program: Program  # the canonical form
    digest: str  # content digest of the canonical nest
    params: dict  # effective (defaulted) endpoint parameters
    fault: str  # debug fault directive ("" = none)

    @property
    def params_digest(self) -> str:
        return config_digest(self.params)

    @property
    def cache_key(self) -> str:
        return f"{self.endpoint}:{self.digest}:{self.params_digest}"


def _type_name(expected: type) -> str:
    return {int: "an integer", bool: "a boolean", list: "a list"}.get(
        expected, expected.__name__
    )


def _check_values(params: dict) -> None:
    """Value rules the type table cannot express; each violation is a 400
    here instead of a worker failure (or a nonsense row) later."""
    line = params["line"]  # every endpoint has one
    if line & (line - 1):
        raise ProtocolError(
            400, "bad-field", f"field 'line' must be a power of two, got {line}"
        )
    for capacity in params.get("capacities") or ():
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity <= 0:
            raise ProtocolError(
                400, "bad-field", "field 'capacities' must list positive integers"
            )
    checks = params.get("checks")
    if checks:
        if not all(isinstance(check, str) for check in checks):
            raise ProtocolError(
                400, "bad-field", "field 'checks' must list check ids or names"
            )
        from repro.lint.registry import checks_for

        try:
            checks_for(tuple(checks))
        except ValueError as exc:
            raise ProtocolError(400, "bad-field", f"field 'checks': {exc}")


def parse_request(endpoint: str, body: bytes, debug_faults: bool) -> CompileRequest:
    """Validate and canonicalize one compile request.

    Raises :class:`ProtocolError` with the right HTTP status: 400 for
    malformed JSON, schema violations, source the frontend rejects
    (caret diagnostic included), or non-affine nests the pipeline
    cannot analyze.
    """
    if endpoint not in ENDPOINTS:
        raise ProtocolError(404, "unknown-endpoint", f"no such endpoint {endpoint!r}")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, "bad-json", f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(400, "bad-json", "request body must be a JSON object")

    known = _COMMON_FIELDS | set(ENDPOINTS[endpoint])
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            400,
            "unknown-field",
            f"unknown field(s) {sorted(unknown)}; "
            f"{endpoint} accepts {sorted(known)}",
        )

    source = payload.get("source")
    ir_payload = payload.get("ir")
    if (source is None) == (ir_payload is None):
        raise ProtocolError(
            400, "bad-input", "provide exactly one of 'source' or 'ir'"
        )

    params: dict = {}
    for name, (expected, default) in sorted(ENDPOINTS[endpoint].items()):
        value = payload.get(name, default)
        if value is None:
            params[name] = None
            continue
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ProtocolError(
                400, "bad-field", f"field {name!r} must be {_type_name(expected)}"
            )
        if expected is int and value <= 0:
            raise ProtocolError(
                400, "bad-field", f"field {name!r} must be positive"
            )
        params[name] = value
    _check_values(params)

    fault = payload.get("fault") or ""
    if fault and not isinstance(fault, str):
        raise ProtocolError(400, "bad-field", "field 'fault' must be a string")
    if fault and not debug_faults:
        raise ProtocolError(
            400,
            "fault-disabled",
            "fault injection requires REPRO_SERVER_DEBUG_FAULTS=1",
        )

    if source is not None:
        if not isinstance(source, str):
            raise ProtocolError(400, "bad-input", "field 'source' must be a string")
        from repro.frontend import parse_program

        try:
            program = parse_program(source)
        except ParseError as exc:
            # str(exc) carries the line:col prefix plus the caret-rendered
            # source line — the same diagnostic the CLI prints.
            raise ProtocolError(
                400, "parse-error", f"mini-Fortran parse error: {exc.message}",
                detail=str(exc),
            )
        except ReproError as exc:
            raise ProtocolError(400, "bad-program", str(exc))
    else:
        try:
            program = program_from_json(ir_payload)
        except ReproError as exc:
            raise ProtocolError(400, "bad-ir", str(exc))

    try:
        canonical, _mapping = canonical_program(program)
        digest = canonical_digest(canonical)
    except ReproError as exc:
        raise ProtocolError(400, "bad-program", str(exc))

    return CompileRequest(
        endpoint=endpoint,
        program=canonical,
        digest=digest,
        params=params,
        fault=fault,
    )


def render_body(payload: dict) -> bytes:
    """Serialize a response body with stable (insertion) field ordering."""
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def error_body(status: int, code: str, message: str, detail: str = "") -> dict:
    """The uniform error payload (schema'd like every other response)."""
    body: dict = {
        "schema": SCHEMA_VERSION,
        "error": {"status": status, "code": code, "message": message},
    }
    if detail:
        body["error"]["detail"] = detail
    return body
