#!/usr/bin/env python
"""CI smoke for the compile service: boot, hammer, assert, export.

Boots ``repro.server`` in-process on an ephemeral port, pushes the five
gate kernels (the autotune benchmark's FULL set) through
``POST /v1/optimize`` **twice**, and asserts:

* every response is 200 (both passes);
* the second pass is served from the cache (``X-Repro-Cache: hit``,
  nonzero hit counters on ``/metrics``) with byte-identical bodies;
* cached replies are at least ``--speedup`` times faster than the
  compiling pass in aggregate (total hit wall-clock vs. total miss
  wall-clock; per-kernel ratios are printed but not gated — the
  cheapest kernels compile in single-digit milliseconds, where fixed
  HTTP overhead dominates the ratio);
* the final ``/metrics`` ``"counters"`` hold the pipeline counters
  (``dep.pairs``, ``locality.predictions``) the compile pass's jobs
  sent back, so a broken job-metrics merge fails the smoke.

Artifacts (``--artifacts DIR``): the final ``/metrics`` snapshot and
the server's ledger (one ``kind="server"`` record per request).

Exit status: 0 on success, 1 with a diagnostic on any violated gate.

Usage::

    PYTHONPATH=src python tools/server_smoke.py --artifacts smoke-artifacts
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

GATE_KERNELS = ["jacobi", "adi", "erlebacher_like", "cholesky", "transpose"]

#: counters every compiling job reports; /metrics must carry them
PIPELINE_COUNTERS = ("dep.pairs", "locality.predictions")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default="server-smoke-artifacts",
                        help="directory for /metrics + ledger artifacts")
    parser.add_argument("--n", type=int, default=64,
                        help="kernel instance size (default 64)")
    parser.add_argument("--speedup", type=float, default=10.0,
                        help="required hit-vs-miss speedup factor (default 10)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="server worker processes (default 2)")
    args = parser.parse_args(argv)

    os.makedirs(args.artifacts, exist_ok=True)
    ledger_dir = os.path.join(args.artifacts, "ledger")
    os.environ["REPRO_LEDGER"] = "1"
    os.environ["REPRO_LEDGER_DIR"] = ledger_dir

    from repro.ir import pretty_program
    from repro.server import ReproServer, ServerConfig
    from repro.server.client import ReproClient
    from repro.suite import get_entry

    sources = {
        name: pretty_program(get_entry(name).program(n=args.n))
        for name in GATE_KERNELS
    }

    server = ReproServer(ServerConfig(port=0, jobs=args.jobs))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coroutine, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout)

    host, port = call(server.start())
    client = ReproClient(host, port)
    print(f"server up on http://{host}:{port} (jobs={args.jobs})")

    failures: list[str] = []
    timings: dict[str, dict[str, float]] = {}
    try:
        for passno, state_want in ((1, "miss"), (2, "hit")):
            for name, source in sources.items():
                start = time.perf_counter()
                reply = client.optimize(source)
                elapsed = time.perf_counter() - start
                timings.setdefault(name, {})[state_want] = elapsed
                if reply.status != 200:
                    failures.append(
                        f"pass {passno} {name}: HTTP {reply.status} "
                        f"({reply.payload.get('error', {}).get('code')})"
                    )
                    continue
                if reply.cache_state != state_want:
                    failures.append(
                        f"pass {passno} {name}: expected cache "
                        f"{state_want}, got {reply.cache_state!r}"
                    )
                print(
                    f"  pass {passno} {name:16s} {reply.status} "
                    f"{reply.cache_state:4s} {elapsed * 1000:8.2f}ms "
                    f"miss_after={reply.payload['locality']['miss_after']}"
                )

        miss_total = sum(t.get("miss", 0.0) for t in timings.values())
        hit_total = sum(t.get("hit", 0.0) for t in timings.values())
        ratio = miss_total / hit_total if hit_total else float("inf")
        print(f"aggregate: miss {miss_total * 1000:.2f}ms vs "
              f"hit {hit_total * 1000:.2f}ms ({ratio:.1f}x)")
        if hit_total * args.speedup > miss_total:
            failures.append(
                f"cache pass only {ratio:.1f}x faster than compile pass "
                f"(need {args.speedup:g}x)"
            )

        metrics = client.metrics().payload
        if metrics["cache"]["hits"] < len(GATE_KERNELS):
            failures.append(
                f"expected >= {len(GATE_KERNELS)} cache hits, "
                f"got {metrics['cache']['hits']}"
            )
        if metrics["requests"]["by_status"].get("200", 0) < 2 * len(GATE_KERNELS):
            failures.append("not every request answered 200")
        missing = [
            name
            for name in PIPELINE_COUNTERS
            if not metrics["counters"].get(name)
        ]
        if missing:
            failures.append(
                f"/metrics counters lack {', '.join(missing)} after the "
                "compile pass (job metrics were not merged)"
            )

        with open(os.path.join(args.artifacts, "metrics.json"), "w") as handle:
            json.dump(metrics, handle, indent=2)
            handle.write("\n")
    finally:
        call(server.shutdown())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    ledger_path = os.path.join(ledger_dir, "ledger.jsonl")
    if os.path.exists(ledger_path):
        with open(ledger_path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        server_records = [r for r in records if r["kind"] == "server"]
        print(f"ledger: {len(server_records)} server records at {ledger_path}")
        if len(server_records) < 2 * len(GATE_KERNELS):
            failures.append(
                f"ledger has {len(server_records)} server records, "
                f"expected >= {2 * len(GATE_KERNELS)}"
            )
    else:
        failures.append(f"no ledger written at {ledger_path}")

    if failures:
        print("\nSERVER SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nserver smoke OK: {2 * len(GATE_KERNELS)} requests, "
          f"{metrics['cache']['hits']} cache hits, artifacts in {args.artifacts}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
