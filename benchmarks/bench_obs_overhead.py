"""Overhead budget for the observability layer.

The obs design keeps the interpreter and cache-simulation hot loops free
of instrumentation calls: the only cost when observability is disabled is
the per-*run* boundary work (one ``get_obs()`` lookup, one no-op span
enter/exit, a couple of ``enabled`` checks). This bench measures both
execution engines — the value-level interpreter and the batched
block-trace engine — with the default disabled context against the same
run with the boundary instrumentation factored out, and asserts the
disabled path stays within a 2% budget on each.

The block-trace path is the stricter test: a batched run is orders of
magnitude shorter than an interpreter run, so fixed boundary cost is
proportionally larger. The budget is enforced against a generous
over-count of the boundary sequences on that path (span enters for
simulate + blocktrace compile, the enabled checks, and the engine
counters).

Runs standalone (``python benchmarks/bench_obs_overhead.py``) and under
pytest (``pytest benchmarks/bench_obs_overhead.py``) without requiring
the pytest-benchmark fixture.
"""

from __future__ import annotations

import statistics
import time

from repro import parse_program
from repro.exec import Interpreter, simulate
from repro.obs import NULL_OBS, Obs, get_obs, use_obs

OVERHEAD_BUDGET = 0.02

#: Upper bound on disabled-path boundary sequences in one block-engine
#: run (simulate span, blocktrace-compile span, engine/fallback counter
#: checks — counted generously).
BLOCK_BOUNDARIES = 8

SOURCE = """
PROGRAM hot
PARAMETER N = 32
REAL A(N,N), B(N,N), C(N,N)
DO I = 1, N
  DO J = 1, N
    DO K = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
"""

#: Sized so one batched run is short (sub-100ms) — the strict case for
#: fixed boundary cost — but still well above timer noise.
BLOCK_SOURCE = SOURCE.replace("N = 32", "N = 48")


def _median_seconds(fn, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure() -> dict[str, float]:
    program = parse_program(SOURCE)
    interp = Interpreter(program)
    block_program = parse_program(BLOCK_SOURCE)

    def run_disabled() -> None:
        interp.run()

    def run_enabled() -> None:
        with use_obs(Obs()):
            interp.run()

    def block_disabled_run() -> None:
        simulate(block_program)

    def block_enabled_run() -> None:
        with use_obs(Obs()):
            simulate(block_program)

    # The boundary cost the disabled path pays per run, amplified: the
    # hot loop itself carries zero obs calls, so the only overhead is the
    # run-boundary sequence below. Time it directly so the budget check
    # does not hinge on sub-noise timer resolution.
    def boundary(iterations: int = 10_000) -> None:
        for _ in range(iterations):
            obs = get_obs()
            with obs.span("exec.interp", program="hot"):
                pass
            if obs.enabled:  # pragma: no cover - disabled in this bench
                raise AssertionError

    assert get_obs() is NULL_OBS
    disabled = _median_seconds(run_disabled)
    enabled = _median_seconds(run_enabled)
    per_boundary = _median_seconds(lambda: boundary()) / 10_000
    block_disabled = _median_seconds(block_disabled_run)
    block_enabled = _median_seconds(block_enabled_run)
    return {
        "disabled_s": disabled,
        "enabled_s": enabled,
        "boundary_s": per_boundary,
        "boundary_ratio": per_boundary / disabled,
        "enabled_ratio": enabled / disabled - 1.0,
        "block_disabled_s": block_disabled,
        "block_enabled_s": block_enabled,
        "block_boundary_ratio": BLOCK_BOUNDARIES * per_boundary / block_disabled,
        "block_enabled_ratio": block_enabled / block_disabled - 1.0,
    }


def test_disabled_overhead_within_budget():
    results = measure()
    # Per-run boundary cost of the disabled path vs. one interpreter run.
    assert results["boundary_ratio"] < OVERHEAD_BUDGET, results
    # Same budget on the much shorter batched block-trace run, with the
    # boundary count over-counted (BLOCK_BOUNDARIES sequences per run).
    assert results["block_boundary_ratio"] < OVERHEAD_BUDGET, results
    # Even fully enabled, boundary-only instrumentation must stay cheap
    # on a value-level interpreter run (generous cap: noise-dominated).
    assert results["enabled_ratio"] < 0.25, results


def main() -> int:
    results = measure()
    print(f"interpreter run (obs disabled): {results['disabled_s'] * 1e3:8.2f} ms")
    print(f"interpreter run (obs enabled):  {results['enabled_s'] * 1e3:8.2f} ms")
    print(f"block run (obs disabled):       {results['block_disabled_s'] * 1e3:8.2f} ms")
    print(f"block run (obs enabled):        {results['block_enabled_s'] * 1e3:8.2f} ms")
    print(f"disabled boundary cost per run: {results['boundary_s'] * 1e6:8.2f} us")
    print(
        f"disabled overhead ratio (interp): {results['boundary_ratio']:.5f} "
        f"(budget {OVERHEAD_BUDGET})"
    )
    print(
        f"disabled overhead ratio (block):  {results['block_boundary_ratio']:.5f} "
        f"(budget {OVERHEAD_BUDGET}, x{BLOCK_BOUNDARIES} boundaries)"
    )
    ok = (
        results["boundary_ratio"] < OVERHEAD_BUDGET
        and results["block_boundary_ratio"] < OVERHEAD_BUDGET
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
