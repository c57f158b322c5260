"""Fuzz driver: generate nests, run every oracle, shrink failures.

Entry point behind ``python -m repro verify --fuzz N --seed S``.  Each
case is pinned by ``(seed, case-index)``, so any failure is reproducible
from the two integers the report prints.  :func:`check_case`
regenerates one case and runs every row of :data:`ORACLES` on it;
``run_fuzz`` aggregates, counts and shrinks what the rows find, and
``replay_case`` prints it.

The rows, in the order they run:

1. **dependence cross-check** — analytic vectors must cover the
   brute-force set (:mod:`repro.verify.depforce`);
2. **execution equivalence** — every legality-admitted transform trial
   must leave the final array state bit-identical
   (:mod:`repro.verify.oracles`); rejected-but-equivalent trials are
   counted as over-conservatism, never failures;
3. **cache-engine equivalence** — scalar vs batched simulation on random
   streams and geometries (:mod:`repro.verify.cachecheck`);
4. **locality prediction** — the analytic reuse-distance predictor vs
   the exact trace histogram: engine agreement, mass conservation,
   bit-exactness on the exact-claimed class, and a bounded hit-rate
   envelope on the model path (:mod:`repro.verify.localitycheck`);
5. **lint fix-its** — every fix-it the lint engine attaches must be
   execution-equivalent and never increase the predicted miss count,
   and the ``--fix`` driver must be monotone end to end
   (:mod:`repro.verify.lintcheck`);
6. **autotuner** — a budgeted search must return only
   legality-checker-approved configurations whose predicted miss count
   is <= the original's (and <= the compound algorithm's), with the
   chosen program execution-equivalent to the input
   (:mod:`repro.verify.tunecheck`).

Every oracle reports a :class:`~repro.verify.oracles.Mismatch`, which
its row labels with a kind and a reason slug to make a
:class:`Failure`. Counters and remarks flow through :mod:`repro.obs`; a
transform failure carries the reason slug of the legality decision that
admitted the transform (``order-legal``, ``fusion-safe``, ...).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.ir.nodes import Program
from repro.ir.pretty import pretty_program
from repro.locality.analytic import predict_locality
from repro.obs import get_obs
from repro.verify.cachecheck import run_cache_check
from repro.verify.depforce import dependence_coverage
from repro.verify.gennest import DEFAULT_CONFIG, generate_program
from repro.verify.lintcheck import check_lint
from repro.verify.localitycheck import ORACLE_LINE, check_locality
from repro.verify.oracles import Mismatch, check_trial, run_state, transform_trials
from repro.verify.shrink import shrink_program
from repro.verify.tunecheck import check_autotune

__all__ = [
    "Failure",
    "FuzzReport",
    "Oracle",
    "ORACLES",
    "check_case",
    "run_fuzz",
    "replay_case",
    "case_rng",
]


@dataclass(frozen=True)
class Failure:
    case: int
    seed: int
    kind: str  # "transform" | "dependence" | "cache" | "locality" | "lint" | "autotune"
    transform: str
    detail: str
    reason: str  # the row's slug; for a transform, the legality slug that admitted it
    info: str
    program: Program | None
    shrunk: Program | None = None

    def repro_script(self) -> str:
        """A self-contained recipe reproducing this failure."""
        lines = [
            f"# verify failure: kind={self.kind} transform={self.transform} "
            f"detail={self.detail!r} admitted-by={self.reason}",
            f"# reproduce: PYTHONPATH=src python -c \"from repro.verify.runner "
            f"import replay_case; replay_case(seed={self.seed}, case={self.case})\"",
            f"# or: REPRO_SEED={self.seed} python -m repro verify --fuzz {self.case + 1}",
        ]
        source = self.shrunk if self.shrunk is not None else self.program
        if source is not None:
            label = "shrunken" if self.shrunk is not None else "failing"
            lines.append(f"# {label} program:")
            lines.extend(pretty_program(source).strip().splitlines())
        if self.info:
            lines.append(f"# {self.info}")
        return "\n".join(lines)

    def headline(self) -> str:
        """One line: the oracle, what failed, its reason slug and why."""
        what = " ".join(part for part in (self.transform, self.detail) if part)
        return f"{self.kind} oracle: {what} [{self.reason}]: {self.info}"


@dataclass
class FuzzReport:
    cases: int = 0  # cases every oracle ran on
    seed: int = 0
    trials: int = 0
    accepted: int = 0
    rejected: int = 0
    over_conservative: Counter = field(default_factory=Counter)
    rejections_confirmed: int = 0
    dep_exact: int = 0
    locality_exact: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        oc = sum(self.over_conservative.values())
        oc_detail = ", ".join(
            f"{name} {count}" for name, count in sorted(self.over_conservative.items())
        )
        lines = [
            f"verify: {self.cases} cases (seed {self.seed}), "
            f"{self.trials} transform trials "
            f"({self.accepted} accepted, {self.rejected} rejected), "
            f"{len(self.failures)} failures",
            f"  dependence cross-check: {self.cases} nests, "
            f"{self.dep_exact} exact dependences covered",
            f"  cache cross-check: {self.cases} rounds, "
            "scalar and batched engines bit-identical",
            f"  locality cross-check: {self.cases} nests "
            f"({self.locality_exact} on the exact path), "
            "prediction consistent with the trace",
            f"  lint cross-check: {self.cases} nests, fix-its "
            "equivalent and miss-monotone",
            f"  autotune cross-check: {self.cases} nests, configs "
            "legality-approved and miss-monotone",
            f"  over-conservative rejections: {oc}"
            + (f" ({oc_detail})" if oc_detail else ""),
        ]
        return "\n".join(lines)


def case_rng(seed: int, case: int) -> random.Random:
    # Distinct, platform-stable streams per (seed, case).
    return random.Random(seed * 1_000_003 + case)


# ----------------------------------------------------------------------
# The oracle table
# ----------------------------------------------------------------------
def _dependences(program: Program, seed: int, case: int, tally: Counter):
    missing, count = dependence_coverage(program)
    tally["dep_exact"] += count
    if not missing:
        return []
    return [
        Mismatch("analysis", f"first uncovered: {missing[0]}", f"{len(missing)} uncovered")
    ]


def _transforms(program: Program, seed: int, case: int, tally: Counter):
    base = run_state(program)
    found = []
    for trial in transform_trials(program):
        result = check_trial(base, trial)
        tally["trials"] += 1
        tally["accepted" if trial.accepted else "rejected"] += 1
        if result.is_failure:
            info = (
                f"crash: {result.crashed}"
                if result.crashed
                else f"arrays differ: {', '.join(result.differing)}"
            )
            found.append(Mismatch(trial.transform, info, trial.detail, trial.reason))
        elif result.is_over_conservative:
            tally[f"over_conservative.{trial.transform}"] += 1
        elif not trial.accepted:
            tally["rejections_confirmed"] += 1
    return found


def _cache(program: Program, seed: int, case: int, tally: Counter):
    # Its own stream, derived from (seed, case) alone rather than drawn
    # after the program's.
    return [run_cache_check(random.Random((seed * 1_000_003 + case) ^ 0xC0FFEE))]


def _locality(program: Program, seed: int, case: int, tally: Counter):
    prediction = predict_locality(program, line=ORACLE_LINE)
    tally["locality_exact"] += prediction.exact
    return [check_locality(program, prediction=prediction)]


@dataclass(frozen=True)
class Oracle:
    """One row of the oracle table.

    ``check(program, seed, case, tally)`` returns what the oracle found
    wrong with the case (None entries mean clean) and adds its coverage
    counts to ``tally``. The row's ``kind`` and ``reason`` label the
    failures it reports. ``on_program`` is False for a row that checks
    streams seeded by ``(seed, case)`` instead of the program, so its
    failures carry no program to shrink.
    """

    kind: str
    reason: str
    check: Callable[[Program, int, int, Counter], Iterable[Mismatch | None]]
    on_program: bool = True


ORACLES = (
    Oracle("dependence", "coverage", _dependences),
    # A failing trial reports the legality slug that admitted it.
    Oracle("transform", "", _transforms),
    Oracle("cache", "engine-divergence", _cache, on_program=False),
    Oracle("locality", "locality-divergence", _locality),
    Oracle("lint", "lint-invariant", lambda program, *_: [check_lint(program)]),
    Oracle(
        "autotune", "autotune-invariant", lambda program, *_: [check_autotune(program)]
    ),
)


def _failures(
    oracle: Oracle, program: Program, seed: int, case: int, tally: Counter
) -> list[Failure]:
    return [
        Failure(
            case,
            seed,
            oracle.kind,
            # A transform failure is named by its transform alone, as
            # the verify.failures.<t> counters are.
            m.where if oracle.kind == "transform" else f"{oracle.kind}-{m.where}",
            m.context,
            m.reason or oracle.reason,
            m.detail,
            program if oracle.on_program else None,
        )
        for m in oracle.check(program, seed, case, tally)
        if m is not None
    ]


def check_case(seed: int, case: int) -> tuple[Program, list[Failure], Counter]:
    """Regenerate one case and run every oracle on it: the program, the
    failures in table order, and the oracles' coverage tally."""
    program = generate_program(case_rng(seed, case), DEFAULT_CONFIG, name=f"FUZZ{case}")
    tally: Counter = Counter()
    failures = [
        failure
        for oracle in ORACLES
        for failure in _failures(oracle, program, seed, case, tally)
    ]
    return program, failures, tally


def _shrunk(failure: Failure) -> Failure:
    """``failure`` with its program minimized while its oracle still
    reports a failure of the same name on it."""
    oracle = next(row for row in ORACLES if row.kind == failure.kind)

    def still_fails(candidate: Program) -> bool:
        try:
            found = _failures(oracle, candidate, failure.seed, failure.case, Counter())
        except Exception:
            return False
        return any(f.transform == failure.transform for f in found)

    return replace(failure, shrunk=shrink_program(failure.program, still_fails))


def run_fuzz(
    n: int, seed: int = 0, shrink: bool = False, max_failures: int = 10
) -> FuzzReport:
    """Run ``n`` fuzz cases; returns the aggregated report."""
    obs = get_obs()
    report = FuzzReport(seed=seed)
    for case in range(n):
        if len(report.failures) >= max_failures:
            break
        _program, failures, tally = check_case(seed, case)
        obs.metrics.counter("verify.cases").inc()
        report.cases += 1
        report.trials += tally["trials"]
        report.accepted += tally["accepted"]
        report.rejected += tally["rejected"]
        report.rejections_confirmed += tally["rejections_confirmed"]
        report.dep_exact += tally["dep_exact"]
        report.locality_exact += tally["locality_exact"]
        for key, count in tally.items():
            name, _, transform = key.partition(".")
            if name == "over_conservative":
                report.over_conservative[transform] += count
            if name in ("trials", "over_conservative", "rejections_confirmed"):
                obs.metrics.counter(f"verify.{key}").inc(count)
        for failure in failures:
            if shrink and failure.program is not None:
                failure = _shrunk(failure)
            report.failures.append(failure)
            obs.metrics.counter("verify.failures").inc()
            if failure.kind == "transform":
                obs.metrics.counter(f"verify.failures.{failure.transform}").inc()
            obs.remark(
                "verify",
                "rejected",
                f"case {case}: {failure.headline()}",
                reason=failure.reason,
                transform=failure.transform,
                case=case,
                seed=seed,
            )
    return report


def replay_case(seed: int, case: int) -> bool:
    """Re-run one case and print its outcome; returns True when clean."""
    program, failures, tally = check_case(seed, case)
    print(pretty_program(program))
    for failure in failures:
        print(f"FAIL {failure.headline()}")
    if not failures:
        print(
            f"case {case} (seed {seed}): all oracles clean "
            f"({tally['trials']} trials)"
        )
    return not failures
