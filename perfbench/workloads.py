"""The three batch workloads: compile, simulate and diagnose.

Each workload builds its inputs in :meth:`setup`, runs one *op* per
program (:meth:`op`), and checks outputs with oracles that run untimed
after the measured loop (:meth:`check`). Pipeline functions are looked up
through their modules at call time, so the traced run's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from stats import geomean

LINE = 128  # cache line in bytes for every prediction
CAPACITY = 512  # FA-LRU lines: 64KB at 128B, the MACHINE1 size
CLS = 16  # compound's line size in REAL*8 elements (128B)

_modules: dict[str, object] = {}


def mod(name: str):
    """A ``repro`` module, looked up once."""
    if name not in _modules:
        _modules[name] = importlib.import_module(name)
    return _modules[name]


def clear_memo() -> None:
    """Empty every registered memo cache, as a fresh CLI process is."""
    for cache in mod("repro.model.memo").registered_caches().values():
        cache.clear()


def cache_counts() -> dict[str, tuple[int, int]]:
    """Registered memo cache name -> (hits, misses)."""
    return {
        row["name"]: (row["hits"], row["misses"])
        for row in mod("repro.model.memo").cache_stats()
    }


def add_cache_deltas(total: dict, before: dict, after: dict) -> None:
    """Add each cache's (hits, misses) growth from ``before`` to ``after``."""
    for cache, (hits, misses) in after.items():
        hits0, misses0 = before.get(cache, (0, 0))
        row = total.setdefault(cache, [0, 0])
        row[0] += hits - hits0
        row[1] += misses - misses0


def interp_state(program, init) -> dict[str, bytes]:
    arrays = mod("repro.exec.interp").Interpreter(
        program, init=init, check_values=False
    ).run()
    return {name: data.tobytes() for name, data in arrays.items()}


def equivalent(original, transformed, init) -> str | None:
    """Execution equivalence by the interpreter oracle; a reason or None."""
    base = interp_state(original, init)
    after = interp_state(transformed, init)
    differing = sorted(a for a in base if after.get(a) != base[a])
    return f"state of {differing} differs" if differing else None


def block_matches_interp(program, init) -> str | None:
    """The block engine's simulation equals the interpreter's."""
    common = mod("repro.experiments.common")
    timing = mod("repro.exec.timing")
    for machine in (common.MACHINE1, common.MACHINE2):
        fast = timing.simulate(program, machine)
        slow = timing.simulate(program, machine, init=init, compiled=False)
        if (fast.cycles, fast.cache.misses) != (slow.cycles, slow.cache.misses):
            return (
                f"{machine.name}: block engine {fast.cycles} cycles / "
                f"{fast.cache.misses} misses, interpreter {slow.cycles} / "
                f"{slow.cache.misses}"
            )
    return None


class Workload:
    """Base class: subclasses set the fields and implement the hooks."""

    name = ""
    set_name = "all"
    instance = "small"
    design_passes = 1  # complete passes a run is built to reach
    cold = False  # clear the memo caches before every op

    def __init__(self, programs: tuple[str, ...] | None = None):
        suite = mod("repro.suite")
        self.entries = {
            entry.name: entry
            for entry in suite.get_set(self.set_name).entries()
            if programs is None or entry.name in programs
        }

    @property
    def programs(self) -> list[str]:
        return sorted(self.entries)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, name: str):
        raise NotImplementedError

    def check(self, name: str, first) -> str | None:
        """Untimed oracle check of a program, given its first op output;
        a failure reason or None."""
        return None

    def quality(self, outputs: dict) -> dict[str, float]:
        """Quality metrics from each program's first output (non-empty)."""
        return {}

    def layer_counts(self, outputs: dict) -> dict[str, float]:
        """Per-layer counts from each program's first output."""
        return {}


@dataclass(frozen=True)
class CompileOut:
    text: str
    misses_before: int
    misses_after: int
    permuted: int
    fused: int
    distributed: int
    reversed: int
    stmts: int
    loops: int


class CompileWorkload(Workload):
    """parse -> validate -> predict -> compound -> predict -> print."""

    name = "compile"
    instance = "small"
    design_passes = 6
    cold = True

    def setup(self) -> None:
        pretty = mod("repro.ir.pretty")
        self.sources = {
            name: pretty.pretty_program(entry.program(instance=self.instance))
            for name, entry in self.entries.items()
        }

    def op(self, name: str) -> CompileOut:
        return compile_text(self.sources[name])

    def check(self, name: str, first) -> str | None:
        entry = self.entries[name]
        text = mod("repro.ir.pretty").pretty_program(entry.program(instance="mini"))
        out = compile_text(text)
        parse = mod("repro.frontend.parser").parse_program
        return equivalent(parse(text), parse(out.text), entry.init)

    def quality(self, outputs: dict) -> dict[str, float]:
        return {
            "pred_miss_gain_geomean": geomean(
                (o.misses_before + 1) / (o.misses_after + 1)
                for o in outputs.values()
            )
        }

    def layer_counts(self, outputs: dict) -> dict[str, float]:
        outs = list(outputs.values())
        count = max(len(outs), 1)
        return {
            "transforms.permuted": sum(o.permuted for o in outs),
            "transforms.fused": sum(o.fused for o in outs),
            "transforms.distributed": sum(o.distributed for o in outs),
            "transforms.reversed": sum(o.reversed for o in outs),
            "ir.stmts_after": sum(o.stmts for o in outs) / count,
            "ir.loops_after": sum(o.loops for o in outs) / count,
        }


def compile_text(text: str) -> CompileOut:
    """One compile op over mini-Fortran ``text``."""
    program = mod("repro.frontend.parser").parse_program(text)
    mod("repro.ir.validate").validate_program(program)
    predict = mod("repro.locality.analytic")
    before = predict.predict_locality(program, line=LINE)
    outcome = mod("repro.transforms.compound").compound(
        program, mod("repro.model.loopcost").CostModel(cls=CLS)
    )
    after = predict.predict_locality(outcome.program, line=LINE)
    out_text = mod("repro.ir.pretty").pretty_program(outcome.program)
    visit = mod("repro.ir.visit")
    return CompileOut(
        text=out_text,
        misses_before=before.misses_for_capacity(CAPACITY),
        misses_after=after.misses_for_capacity(CAPACITY),
        permuted=outcome.counts["perm"],
        fused=outcome.nests_fused,
        distributed=outcome.distribution_applied,
        reversed=sum(report.reversal_used for report in outcome.nests),
        stmts=sum(1 for _ in visit.iter_statements(outcome.program)),
        loops=sum(1 for _ in visit.iter_loops(outcome.program)),
    )


@dataclass(frozen=True)
class SimOut:
    cycles: tuple[int, ...]  # (M1 orig, M1 opt, M2 orig, M2 opt)
    accesses: tuple[int, ...]
    misses: tuple[int, ...]


class SimulateWorkload(Workload):
    """Four simulate() calls: original and optimized on both machines."""

    name = "simulate"
    instance = "medium"
    design_passes = 6

    def setup(self) -> None:
        clear_memo()
        compound = mod("repro.transforms.compound").compound
        model = mod("repro.model.loopcost").CostModel(cls=CLS)
        self.pairs = {}
        for name, entry in self.entries.items():
            program = entry.program(instance=self.instance)
            self.pairs[name] = (program, compound(program, model).program)

    def op(self, name: str) -> SimOut:
        common = mod("repro.experiments.common")
        simulate = mod("repro.exec.timing").simulate
        results = [
            simulate(program, machine)
            for machine in (common.MACHINE1, common.MACHINE2)
            for program in self.pairs[name]
        ]
        return SimOut(
            cycles=tuple(r.cycles for r in results),
            accesses=tuple(r.cache.accesses for r in results),
            misses=tuple(r.cache.misses for r in results),
        )

    def check(self, name: str, first) -> str | None:
        entry = self.entries[name]
        original = entry.program(instance="mini")
        optimized = mod("repro.transforms.compound").compound(
            original, mod("repro.model.loopcost").CostModel(cls=CLS)
        ).program
        return (
            equivalent(original, optimized, entry.init)
            or block_matches_interp(original, entry.init)
            or block_matches_interp(optimized, entry.init)
        )

    def quality(self, outputs: dict) -> dict[str, float]:
        ratios = []
        for out in outputs.values():
            ratios.append(out.cycles[0] / out.cycles[1])
            ratios.append(out.cycles[2] / out.cycles[3])
        return {"sim_speedup_geomean": geomean(ratios)}

    def layer_counts(self, outputs: dict) -> dict[str, float]:
        accesses = sum(sum(o.accesses) for o in outputs.values())
        misses = sum(sum(o.misses) for o in outputs.values())
        return {"cache.miss_ratio": misses / accesses if accesses else 0.0}


@dataclass(frozen=True)
class DiagOut:
    diagnostics: tuple[tuple[str, str, bool], ...]  # (check, severity, verified)
    fixits: int
    verified: int
    errors_pp: tuple[float, ...]  # |predicted - traced| hit rate per capacity
    traced_accesses: int
    tuned: str
    misses_before: float
    misses_after: float
    evals: int
    budget_exhausted: bool


class DiagnoseWorkload(Workload):
    """lint (verified) -> locality compare -> autotune, per program.

    Runs the ``smoke`` set: a pass over all 61 programs at ``mini`` costs
    about 60 CPU-s (doitgen's lint alone 16.8 s), more than one run may
    measure; the seven smoke programs cost about 8.5 CPU-s per pass and
    still put verify.depforce and reuse_profile's fixed cost on top.
    """

    name = "diagnose"
    set_name = "smoke"
    instance = "mini"
    design_passes = 2
    cold = True

    def setup(self) -> None:
        self.programs_ir = {
            name: entry.program(instance=self.instance)
            for name, entry in self.entries.items()
        }

    def op(self, name: str) -> DiagOut:
        program = self.programs_ir[name]
        result = mod("repro.lint.engine").lint_program(program)
        # `python -m repro locality --compare` defaults: line 128,
        # capacities 64 and 512 lines.
        prediction = mod("repro.locality.analytic").predict_locality(program, line=LINE)
        trace = mod("repro.cache.reuse").reuse_profile(
            program, line=LINE, max_accesses=1 << 25
        )
        errors = tuple(
            abs(prediction.hit_rate_for_capacity(c) - trace.hit_rate_for_capacity(c))
            * 100.0
            for c in (64, 512)
        )
        tuned = mod("repro.autotune.search").autotune(program)
        fixits = [d.fixit for d in result.diagnostics if d.fixit is not None]
        return DiagOut(
            diagnostics=tuple(
                (d.check_id, d.severity, bool(d.fixit and d.fixit.verified))
                for d in result.diagnostics
            ),
            fixits=len(fixits),
            verified=sum(f.verified for f in fixits),
            errors_pp=errors,
            traced_accesses=trace.accesses,
            tuned=tuned.best.describe(),
            misses_before=tuned.original.cost.misses,
            misses_after=tuned.best.cost.misses,
            evals=tuned.evaluated,
            budget_exhausted=tuned.budget_exhausted,
        )

    def check(self, name: str, first) -> str | None:
        program = self.programs_ir[name]
        counted = [0]

        def on_block(block) -> None:
            counted[0] += len(block.addresses)

        mod("repro.exec.blocktrace").compile_block_trace(program).run(on_block)
        if first.traced_accesses != counted[0]:
            return (
                f"reuse_profile saw {first.traced_accesses} accesses, "
                f"block engine {counted[0]}"
            )
        return None

    def quality(self, outputs: dict) -> dict[str, float]:
        return {
            "tune_miss_gain_geomean": geomean(
                (o.misses_before + 1) / (o.misses_after + 1)
                for o in outputs.values()
            ),
            "pred_err_pp_max": max(max(o.errors_pp) for o in outputs.values()),
            "fixits_verified": float(sum(o.verified for o in outputs.values())),
        }

    def layer_counts(self, outputs: dict) -> dict[str, float]:
        outs = list(outputs.values())
        fixits = sum(o.fixits for o in outs)
        return {
            "lint.diagnostics": sum(len(o.diagnostics) for o in outs),
            "lint.fixit_verified_ratio": (
                sum(o.verified for o in outs) / fixits if fixits else 0.0
            ),
            "autotune.evals": sum(o.evals for o in outs),
            "autotune.budget_exhausted": sum(o.budget_exhausted for o in outs),
        }


BATCH = {
    "compile": CompileWorkload,
    "simulate": SimulateWorkload,
    "diagnose": DiagnoseWorkload,
}
