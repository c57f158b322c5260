"""The set runner: run a whole named suite set, sharded, with a report.

``python -m repro.suite run SET`` drives this module. For every entry of
the set (always the whole set — curation happens in the registry, never
at run time) a worker builds the program at the requested instance, runs
the compound transform, and scores locality before/after with the
analytic predictor. Entries shard across the experiment process pool
(:func:`repro.experiments.common.run_sharded`); worker obs metrics,
remarks, and spans merge back once per worker, one entry raising
never poisons its siblings (captured as a per-entry failure row), every
set run appends a ledger record (kind ``suite.set``), and the result
renders to a markdown/HTML artifact via
:func:`repro.obs.report.render_set_report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.common import (
    ShardFailure,
    resolve_jobs,
    run_sharded,
    shard_input_digest,
)
from repro.ir.visit import iter_loops, iter_statements
from repro.locality import predict_locality
from repro.model import CostModel
from repro.obs import get_obs
from repro.suite.registry import get_entry, get_set

__all__ = ["EntryResult", "SetRunResult", "run_set", "DEFAULT_LINE", "DEFAULT_CAPACITY"]

#: Scoring geometry defaults (bytes per line / FA-LRU lines), matching
#: the lint and autotune CLIs.
DEFAULT_LINE = 128
DEFAULT_CAPACITY = 512


@dataclass(frozen=True)
class EntryResult:
    """One suite entry's outcome within a set run."""

    name: str
    category: str
    status: str  # "ok" | "failed"
    instance: str
    n: int | None = None
    loops: int = 0
    statements: int = 0
    accesses: int = 0
    miss_before: float | None = None
    miss_after: float | None = None
    remarks: int = 0
    wall_s: float = 0.0
    error: str = ""
    traceback: str = ""
    digest: str = ""  # stable digest of the entry's shard input

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def improvement_pp(self) -> float | None:
        if self.miss_before is None or self.miss_after is None:
            return None
        return (self.miss_before - self.miss_after) * 100.0


@dataclass(frozen=True)
class SetRunResult:
    """A whole-set run: per-entry rows plus the run configuration."""

    set_name: str
    instance: str
    jobs: int
    line: int
    capacity: int
    results: tuple[EntryResult, ...]
    wall_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[EntryResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def report_payload(self) -> dict:
        """The plain-data view :mod:`repro.obs.report` renders.

        Keeping the payload dict-shaped (not suite dataclasses) keeps
        ``repro.obs`` free of suite imports — obs stays the base layer.
        """
        return {
            "set": self.set_name,
            "instance": self.instance,
            "jobs": self.jobs,
            "line": self.line,
            "capacity": self.capacity,
            "entries": len(self.results),
            "failed": len(self.failures),
            "wall_s": round(self.wall_s, 3),
            "rows": [
                {
                    "program": r.name,
                    "category": r.category,
                    "status": r.status,
                    "n": r.n,
                    "loops": r.loops,
                    "statements": r.statements,
                    "accesses": r.accesses,
                    "miss_before": (
                        round(r.miss_before, 4) if r.miss_before is not None else None
                    ),
                    "miss_after": (
                        round(r.miss_after, 4) if r.miss_after is not None else None
                    ),
                    "improvement_pp": (
                        round(r.improvement_pp, 2)
                        if r.improvement_pp is not None
                        else None
                    ),
                    "wall_ms": round(r.wall_s * 1e3, 2),
                    "error": r.error,
                    "traceback": r.traceback,
                    "digest": r.digest,
                }
                for r in self.results
            ],
        }

    def ledger_payload(self) -> dict:
        """Compact per-set summary ledgered with each ``suite.set`` run.

        Failed rows keep their full diagnosis — the captured traceback
        and the shard-input digest — so a ledgered failure is actionable
        (and replayable) long after the run's in-memory state is gone;
        ok rows stay compact.
        """
        payload = self.report_payload()
        compact = []
        for row in payload["rows"]:
            keep = {
                k: row[k]
                for k in ("program", "status", "miss_before", "miss_after")
            }
            if row["status"] != "ok":
                keep["error"] = row["error"]
                keep["traceback"] = row["traceback"]
                keep["digest"] = row["digest"]
            compact.append(keep)
        payload["rows"] = compact
        return payload


def _run_entry(name: str, instance: str, line: int, capacity: int) -> dict:
    """One entry's measurement; module-level so shards can pickle it.

    Takes the entry *name* (builders are lambdas and do not pickle) and
    resolves it inside the worker. Exceptions propagate — the runner's
    ``return_exceptions=True`` sharding captures them per entry.
    """
    from repro.transforms import compound

    entry = get_entry(name)
    started = time.perf_counter()
    obs = get_obs()
    with obs.span("suite.entry", program=name, instance=instance):
        program = entry.program(instance=instance)
        n = entry.instance_n(instance)
        before = predict_locality(program, line=line)
        remarks_before = len(obs.remarks)
        outcome = compound(program, CostModel(cls=max(1, line // 8)))
        after = predict_locality(outcome.program, line=line)
    return {
        "name": name,
        "category": entry.category,
        "status": "ok",
        "instance": instance,
        "n": n,
        "loops": sum(1 for _ in iter_loops(program)),
        "statements": sum(1 for _ in iter_statements(program)),
        "accesses": before.accesses,
        "miss_before": before.miss_ratio_for_capacity(capacity),
        "miss_after": after.miss_ratio_for_capacity(capacity),
        "remarks": max(len(obs.remarks) - remarks_before, 0),
        "wall_s": time.perf_counter() - started,
    }


def run_set(
    set_name: str,
    instance: str = "medium",
    jobs: int | None = None,
    line: int = DEFAULT_LINE,
    capacity: int = DEFAULT_CAPACITY,
) -> SetRunResult:
    """Run every member of the named set; never a subset.

    Entries shard over ``jobs`` worker processes (``REPRO_JOBS`` is the
    fallback); a raising entry becomes a ``failed`` row while its
    siblings complete, so one broken kernel cannot sink the whole set's
    results.
    """
    suite_set = get_set(set_name)
    jobs = resolve_jobs(jobs)
    obs = get_obs()
    started = time.perf_counter()
    calls = [(name, instance, line, capacity) for name in suite_set.members]
    with obs.span(
        "suite.set", set=set_name, instance=instance, entries=len(suite_set)
    ):
        raw = run_sharded(_run_entry, calls, jobs, return_exceptions=True)
    results = []
    for args, row in zip(calls, raw):
        name = args[0]
        digest = shard_input_digest(args)
        if isinstance(row, ShardFailure):
            results.append(
                EntryResult(
                    name=name,
                    category=get_entry(name).category,
                    status="failed",
                    instance=instance,
                    error=row.error,
                    traceback=row.traceback,
                    digest=row.input_digest or digest,
                )
            )
        else:
            results.append(
                EntryResult(status=row.pop("status"), digest=digest, **row)
            )
    if obs.enabled:
        obs.metrics.counter("suite.set.entries").inc(len(results))
        failed = sum(1 for r in results if not r.ok)
        if failed:
            obs.metrics.counter("suite.set.failed").inc(failed)
    return SetRunResult(
        set_name=set_name,
        instance=instance,
        jobs=jobs,
        line=line,
        capacity=capacity,
        results=tuple(results),
        wall_s=time.perf_counter() - started,
    )
