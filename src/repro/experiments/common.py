"""Shared helpers for the experiment harness."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.cache import CACHE1, CACHE2, SPARC2, CacheConfig, SetAssocCache
from repro.errors import TransformError
from repro.exec import Machine, run_trace
from repro.ir.nodes import Loop, Program
from repro.ir.visit import enclosing_loops, iter_statements
from repro.model import CostModel
from repro.obs import Obs, get_obs, use_obs
from repro.transforms import apply_order, compound

__all__ = [
    "MACHINE1",
    "MACHINE2",
    "SPARC_MACHINE",
    "ShardFailure",
    "changed_sids",
    "dual_hit_rates",
    "ideal_program",
    "optimize",
    "resolve_jobs",
    "run_sharded",
    "shard_input_digest",
]

#: Simulated stand-ins for the paper's RS/6000 and i860 (see DESIGN.md:
#: relative behaviour is carried by the cache geometry + miss penalty).
MACHINE1 = Machine(cache=CACHE1, miss_penalty=16)
MACHINE2 = Machine(cache=CACHE2, miss_penalty=20)
SPARC_MACHINE = Machine(cache=SPARC2, miss_penalty=24)


def optimize(program: Program, cls: int = 16) -> Program:
    """Compound-transform a program with a line size of ``cls`` elements.

    Runs under a per-kernel span so the experiment harness and suite
    runner can attribute wall time to individual kernels.
    """
    with get_obs().span("experiment.optimize", program=program.name, cls=cls):
        return compound(program, CostModel(cls=cls)).program


def changed_sids(original: Program, final: Program) -> frozenset[int]:
    """Statements whose enclosing loop structure changed (the paper's
    "optimized procedures")."""

    def shape(program: Program) -> dict[int, tuple]:
        chains = enclosing_loops(program)
        return {
            stmt.sid: tuple(
                (loop.var, str(loop.lb), str(loop.ub), loop.step)
                for loop in chains[stmt.sid]
            )
            for stmt in iter_statements(program)
        }

    before, after = shape(original), shape(final)
    return frozenset(
        sid for sid in before if after.get(sid) != before[sid]
    )


def dual_hit_rates(
    program: Program,
    config: CacheConfig,
    focus_sids: frozenset[int],
    init=None,
) -> tuple[float, float]:
    """(whole-program, focus-statements) hit rates under one cache.

    Both rates come from a single execution: the whole-program cache sees
    every access; the focus counters sample the same cache's behaviour on
    accesses issued by the focus statements — the paper's "optimized
    procedures" columns. :func:`repro.exec.run_trace` picks the engine:
    addresses do not depend on values, so the block trace drives the
    cache regardless of ``init``; the interpreter (with ``init``) runs
    only when the block compiler rejects the program.
    """
    cache = SetAssocCache(config)
    focus_total = 0
    focus_hits = 0
    focus_cold = 0

    focus_arr = np.fromiter(sorted(focus_sids), dtype=np.int64, count=len(focus_sids))

    def on_block(block) -> None:
        nonlocal focus_total, focus_hits, focus_cold
        result = cache.access_block(block.addresses, block.sizes)
        mask = np.isin(block.sids, focus_arr)
        focus_total += int(np.count_nonzero(mask))
        focus_hits += int(np.count_nonzero(result.hits[mask]))
        focus_cold += int(result.cold[mask].sum())

    with get_obs().span(
        "experiment.hit_rates", program=program.name, cache=config.name
    ):
        run_trace(program, on_block, init=init)
    whole = cache.stats.hit_rate()
    denominator = focus_total - focus_cold
    focus = focus_hits / denominator if denominator > 0 else 1.0
    return whole, focus


# ----------------------------------------------------------------------
# Parallel experiment runner


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker-process count: explicit arg, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(raw) if raw else 1
    return max(1, int(jobs))


@dataclass(frozen=True)
class ShardFailure:
    """One shard's captured exception (picklable).

    Returned in place of a result by ``run_sharded(...,
    return_exceptions=True)`` so a single failing call never poisons its
    sibling shards — the set runner turns these into per-entry "failed"
    rows instead of losing the whole run. ``input_digest`` is a stable
    digest of the failing call's arguments, so a ledgered failure can be
    matched back to the exact input that produced it even after the
    in-memory results are gone.
    """

    error: str  # "ExceptionType: message"
    traceback: str
    input_digest: str = ""

    def __bool__(self) -> bool:  # failures are falsy, like a missing result
        return False


def shard_input_digest(args) -> str:
    """Stable short digest of one shard call's argument tuple."""
    from repro.obs.ledger import config_digest

    return config_digest([repr(a) for a in args])


def _call_captured(fn, args, capture: bool):
    """Invoke ``fn(*args)``; with ``capture``, trap exceptions as data."""
    if not capture:
        return fn(*args)
    try:
        return fn(*args)
    except Exception as exc:
        import traceback as _traceback

        return ShardFailure(
            f"{type(exc).__name__}: {exc}",
            _traceback.format_exc(),
            input_digest=shard_input_digest(args),
        )


def _shard_worker(payload):
    """Run one shard under a fresh observability context.

    Returns ``(shard_index, result, metrics, remarks, spans)`` — all
    picklable — so the parent can merge the worker's observations into
    its own context with :meth:`Obs.merge`. Worker spans are tagged with
    the worker pid and the shard index (the Perfetto worker lane; see
    ``obs/chrometrace.py``).
    """
    fn, args, shard_index, observed, profile, capture = payload
    if not observed:
        return shard_index, _call_captured(fn, args, capture), None, (), ()
    obs = Obs(profile=profile)
    obs.tracer.shard = shard_index
    with use_obs(obs):
        result = _call_captured(fn, args, capture)
    return shard_index, result, obs.metrics, tuple(obs.remarks), tuple(
        obs.tracer.spans
    )


def run_sharded(
    fn, calls, jobs: int | None = None, return_exceptions: bool = False
) -> list:
    """Run ``fn(*args)`` for every args-tuple in ``calls``, order preserved.

    With ``jobs > 1`` the calls are sharded across a process pool;
    ``fn`` and every argument must be picklable (module-level functions
    and plain data — pass suite-entry *names*, not entries). Each worker
    runs under a fresh :class:`repro.obs.Obs`; when the parent context is
    enabled, each worker's metrics, remarks, AND spans are merged back
    into it exactly once with :meth:`Obs.merge` — spans grafted under
    the ``experiment.sharded`` span with (pid, shard) provenance — and
    every call in a process adds its own. Counters, remarks and span
    names match a serial run's apart from that span (its ``shards`` and
    ``jobs`` attributes record what ran) and from memo-cache work: each
    worker starts from the caches its pool was forked with.

    With ``return_exceptions=True`` an exception raised by one call —
    serial or sharded — is captured as a :class:`ShardFailure` in that
    call's result slot instead of propagating, so sibling shards always
    complete; callers surface the failures per item (the suite set
    runner turns them into per-entry "failed" report rows).
    """
    jobs = resolve_jobs(jobs)
    calls = list(calls)
    obs = get_obs()
    if jobs <= 1 or len(calls) <= 1:
        return [_call_captured(fn, args, return_exceptions) for args in calls]
    profile = bool(getattr(obs.tracer, "profile", False))
    payloads = [
        (fn, args, index, obs.enabled, profile, return_exceptions)
        for index, args in enumerate(calls)
    ]
    with obs.span("experiment.sharded", shards=len(calls), jobs=jobs) as sharded:
        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            shards = list(pool.map(_shard_worker, payloads))
        results = [None] * len(calls)
        for shard_index, result, metrics, remarks, spans in shards:
            results[shard_index] = result
            if metrics is not None:
                obs.merge(
                    metrics, remarks, spans, parent=sharded, shard=shard_index
                )
    return results


def ideal_program(program: Program, model: CostModel | None = None) -> Program:
    """Force every nest into memory order, ignoring legality (§5.2).

    The result is only ever analyzed, never executed — it may compute
    different values. Nests whose bounds defeat reordering stay as-is.
    """
    from repro.ir.visit import fresh_name, iter_loops, rename_loops

    model = model or CostModel()
    used = {loop.var for loop in iter_loops(program)}

    def fission(item: Loop) -> list[Loop]:
        """Structurally distribute: one loop copy per body item."""
        flattened: list = []
        for child in item.body:
            if isinstance(child, Loop):
                flattened.extend(fission(child))
            else:
                flattened.append(child)
        if len(flattened) <= 1:
            return [item.with_body(flattened)]
        copies = []
        for child in flattened:
            var = fresh_name(item.var, used)
            used.add(var)
            copy = item.with_body([child])
            if var != item.var:
                copy = rename_loops(copy, {item.var: var})
            copies.append(copy)
        return copies

    def force(item: Loop, outer: tuple[Loop, ...]) -> Loop:
        chain = item.perfect_nest_loops()
        if len(chain) >= 2:
            desired = tuple(
                v
                for v in model.memory_order(item, outer=outer)
                if v in {l.var for l in chain}
            )
            try:
                return apply_order(chain, desired, set(), outer)
            except TransformError:
                pass
        return item

    new_body = []
    for item in program.body:
        if not isinstance(item, Loop):
            new_body.append(item)
            continue
        for piece in fission(item):
            new_body.append(force(piece, ()))
    return program.with_body(new_body)
