"""repro.server — optimization-as-a-service over the whole pipeline.

A long-lived asyncio HTTP service (stdlib only) that wraps the pipeline
(parse → dependence → compound transform → locality predict → autotune)
behind five endpoints:

* ``POST /v1/optimize``  — compound transform + before/after predicted
  miss ratios + applied/rejected remarks with legality slugs;
* ``POST /v1/lint``      — static locality diagnostics with verified
  fix-its (the ``repro.lint`` engine);
* ``POST /v1/locality``  — trace-free analytic miss-ratio prediction;
* ``POST /v1/autotune``  — model-driven beam search, verified winner;
* ``GET  /healthz`` and ``GET /metrics`` — liveness and introspection.

Requests carry mini-Fortran ``source`` text or a structured ``ir`` JSON
object (:mod:`repro.ir.jsonio`). Production concerns are first-class:

* a **content-addressed result cache** over canonicalized nests
  (:mod:`repro.ir.canon` keys, :class:`repro.model.memo.MemoCache`
  storage) shared across endpoints, LRU-evictable, stats on
  ``/metrics``;
* **single-flight deduplication** — identical in-flight requests share
  one computation;
* **batched sharding** across the experiment process pool
  (:func:`repro.experiments.common.run_sharded`) with
  :class:`~repro.experiments.common.ShardFailure` isolation, so one
  poison request never kills a worker batch;
* a **bounded queue with backpressure** (HTTP 429 + ``Retry-After``),
  per-request timeouts (504), and graceful shutdown that drains
  in-flight work;
* ``repro.obs`` spans/metrics per request, grafted into the server's
  context, plus a ledger record (``kind="server"``) per request.

Start it with ``python -m repro serve`` (see ``docs/server.md``) and
talk to it with :mod:`repro.server.client` or plain ``curl``.
"""

from repro.server.app import ReproServer, serve
from repro.server.config import ServerConfig
from repro.server.protocol import SCHEMA_VERSION, ProtocolError

__all__ = [
    "ReproServer",
    "SCHEMA_VERSION",
    "ServerConfig",
    "ProtocolError",
    "serve",
]
