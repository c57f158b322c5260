"""Model-driven autotuning: beam search with the analytic cost oracle.

The driver jointly selects loop permutation × tile sizes ×
fusion/distribution for a whole program. The search never runs the
cache simulator: every candidate is scored by the planning oracle
(:class:`repro.model.oracle.AnalyticOracle` by default, milliseconds
per program), with the simulation oracle reserved for an optional
final top-k rerank sharded across worker processes.

Shape of the search:

1. seed the pool with the original program and the paper's compound
   algorithm output (so the result can never be worse than either);
2. for every fusion/distribution variant of the program, beam-search
   the top-level nests left to right — at each nest the options are the
   legal permutations and the capacity-seeded tilings from
   :mod:`repro.autotune.space` — keeping the ``beam`` cheapest whole
   programs per step;
3. every intermediate state is a complete program and joins the pool;
   the pool is deduped on canonical text and each distinct program is
   scored at most once (``budget`` caps distinct oracle evaluations);
4. the ranked pool is walked best-first through the lint fix-it
   verifier (execution equivalence + dependence coverage) and the first
   surviving candidate is the answer — the original program verifies
   trivially, so the walk always terminates with a config whose
   predicted misses are <= the original's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.ir.nodes import Loop, Program
from repro.model.loopcost import CostModel
from repro.model.oracle import (
    AnalyticOracle,
    OracleCost,
    SimulationOracle,
    canonical_key,
)
from repro.obs import get_obs
from repro.autotune.space import (
    Candidate,
    fusion_variants,
    nest_options,
    nest_slots,
)
from repro.transforms.recipe import Recipe

__all__ = ["AutotuneResult", "autotune"]

@dataclass
class AutotuneResult:
    """Outcome of one autotuning run."""

    program: Program  # the original, untouched
    best: Candidate  # first verified candidate in predicted-miss order
    original: Candidate
    compound: Candidate
    ranked: tuple[Candidate, ...]  # whole pool, best predicted first
    evaluated: int  # distinct oracle evaluations spent
    generated: int  # configurations generated (pre-dedupe)
    budget: int
    budget_exhausted: bool
    elapsed_s: float  # whole search wall time
    eval_s: float  # time inside the planning oracle
    verified: bool
    verify_slug: str
    rejected: tuple[tuple[str, str], ...] = ()  # (describe, slug) failures
    sim_ranked: tuple[Candidate, ...] = ()  # top-k with sim costs
    sim_s: float = 0.0  # wall time of the rerank

    @property
    def generation_s(self) -> float:
        """Search time net of oracle evaluations (enumeration cost)."""
        return max(0.0, self.elapsed_s - self.eval_s)

    @property
    def improvement_pp(self) -> float:
        """Predicted miss-ratio improvement over the original, in points."""
        assert self.original.cost is not None and self.best.cost is not None
        return (
            self.original.cost.miss_ratio - self.best.cost.miss_ratio
        ) * 100.0


@dataclass
class _Evaluator:
    """Budgeted, memoized access to the planning oracle."""

    oracle: AnalyticOracle
    budget: int
    evals: int = 0
    eval_s: float = 0.0
    generated: int = 0
    memo: dict = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.evals >= self.budget

    def cost(self, text: str, program: Program) -> OracleCost | None:
        cached = self.memo.get(text)
        if cached is not None:
            return cached
        if self.exhausted:
            return None
        start = time.perf_counter()
        cost = self.oracle.cost(program)
        self.eval_s += time.perf_counter() - start
        self.evals += 1
        self.memo[text] = cost
        return cost


def _rank_key(candidate: Candidate) -> tuple:
    assert candidate.cost is not None
    return (candidate.cost.misses, candidate.text)


def _sim_eval(program: Program, line: int, capacity: int) -> tuple[float, int, float]:
    """Sharded worker: simulated (misses, accesses, seconds) of a program."""
    oracle = SimulationOracle(line=line, capacity=capacity)
    start = time.perf_counter()
    cost = oracle.cost(program)
    return cost.misses, cost.accesses, time.perf_counter() - start


def autotune(
    program: Program,
    model: CostModel | None = None,
    line: int = 128,
    capacity: int = 512,
    budget: int = 128,
    beam: int = 4,
    topk: int = 5,
    max_orders: int = 6,
    max_tilings: int = 2,
    compare_sim: bool = False,
    jobs: int | None = None,
    verify: bool = True,
) -> AutotuneResult:
    """Search permutation × tiling × fusion space for ``program``.

    ``capacity`` is the FA-LRU cache capacity in lines; ``line`` the
    line size in bytes. Candidates are scored by an
    :class:`AnalyticOracle` at that geometry; the default ``model`` is a
    :class:`CostModel` with ``cls = line // 8`` (REAL*8 elements).
    ``budget`` caps *distinct* oracle evaluations; ``beam`` the number
    of states kept per nest step. With ``compare_sim`` the ``topk``
    best predicted candidates are reranked by the simulation oracle,
    sharded over ``jobs`` worker processes.
    """
    if model is None:
        model = CostModel(cls=max(1, line // 8))
    budget = max(2, budget)
    obs = get_obs()
    evaluator = _Evaluator(AnalyticOracle(line=line, capacity=capacity), budget)
    pool: dict[str, Candidate] = {}
    start = time.perf_counter()

    def add(
        prog: Program,
        source: str,
        fusion: str,
        plans: tuple,
        recipe: Recipe | None,
    ) -> Candidate | None:
        evaluator.generated += 1
        text = canonical_key(prog)
        existing = pool.get(text)
        if existing is not None:
            if existing.recipe is None and recipe is not None:
                # A search path rebuilt the compound output: keep its
                # recipe, so verification can replay it.
                existing = pool[text] = replace(existing, recipe=recipe)
            return existing
        cost = evaluator.cost(text, prog)
        if cost is None:
            return None  # budget exhausted
        candidate = Candidate(prog, text, source, fusion, plans, cost, recipe=recipe)
        pool[text] = candidate
        return candidate

    with obs.span(
        "autotune", program=program.name, budget=budget, beam=beam
    ):
        original = add(program, "original", "none", (), Recipe())
        assert original is not None  # budget >= 2

        from repro.transforms.compound import compound as run_compound

        with obs.span("autotune.compound"):
            compound_program = run_compound(program, model).program
        compound_cand = add(compound_program, "compound", "compound", (), None)
        if compound_cand is None:
            compound_cand = original

        cache_bytes = capacity * line
        env = program.param_env
        with obs.span("autotune.search"):
            for label, variant, recipe in fusion_variants(
                program, model, cache_capacity=(cache_bytes, line)
            ):
                base = add(variant, "search", label, (), recipe)
                if base is None:
                    break
                states = [base]
                for slot in nest_slots(variant):
                    expansions: list[Candidate] = []
                    for state in states:
                        item = state.program.body[slot]
                        if not isinstance(item, Loop):
                            expansions.append(state)
                            continue
                        for new_nest, plan in nest_options(
                            item,
                            slot,
                            model,
                            cache_bytes,
                            line,
                            env,
                            max_orders=max_orders,
                            max_tilings=max_tilings,
                        ):
                            if new_nest is item:
                                expansions.append(state)
                                continue
                            body = list(state.program.body)
                            body[slot] = new_nest
                            nxt = add(
                                state.program.with_body(body),
                                "search",
                                label,
                                state.plans + (plan,),
                                state.recipe.then(*plan.steps())
                                if state.recipe is not None
                                else None,
                            )
                            if nxt is not None:
                                expansions.append(nxt)
                    seen: set[str] = set()
                    states = []
                    for cand in sorted(expansions, key=_rank_key):
                        if cand.text in seen:
                            continue
                        seen.add(cand.text)
                        states.append(cand)
                        if len(states) >= beam:
                            break
                    if evaluator.exhausted:
                        break
                if evaluator.exhausted:
                    break

        ranked = tuple(sorted(pool.values(), key=_rank_key))

        best = original
        verified = False
        verify_slug = "unverified"
        rejected: list[tuple[str, str]] = []
        if verify:
            from repro.lint.verifyfix import verify_fixit

            with obs.span("autotune.verify"):
                for candidate in ranked:
                    ok, slug = verify_fixit(
                        program, candidate.program, candidate.recipe
                    )
                    if ok:
                        best, verified, verify_slug = candidate, True, slug
                        break
                    rejected.append((candidate.describe(), slug))
        else:
            best = ranked[0]

        sim_ranked: tuple[Candidate, ...] = ()
        sim_s = 0.0
        if compare_sim and topk > 0:
            from repro.experiments.common import run_sharded

            top = ranked[: max(topk, 1)]
            sim_start = time.perf_counter()
            with obs.span("autotune.rerank", candidates=len(top)):
                rows = run_sharded(
                    _sim_eval,
                    [(c.program, line, capacity) for c in top],
                    jobs,
                )
            sim_s = time.perf_counter() - sim_start
            sim_ranked = tuple(
                sorted(
                    (
                        replace(c, sim=OracleCost(misses, accesses))
                        for c, (misses, accesses, _) in zip(top, rows)
                    ),
                    key=lambda c: (c.sim.misses, c.text),  # type: ignore[union-attr]
                )
            )

        elapsed = time.perf_counter() - start
        if obs.enabled:
            obs.metrics.counter("autotune.generated").inc(evaluator.generated)
            obs.metrics.counter("autotune.evals").inc(evaluator.evals)
            obs.metrics.counter("autotune.candidates").inc(len(pool))
            if evaluator.exhausted:
                obs.metrics.counter("autotune.budget_exhausted").inc()
            assert best.cost is not None and original.cost is not None
            obs.remark(
                "autotune",
                "applied" if best.text != original.text else "analysis",
                f"best config: {best.describe()} "
                f"(predicted miss ratio "
                f"{original.cost.miss_ratio:.4f} -> "
                f"{best.cost.miss_ratio:.4f}, "
                f"{evaluator.evals} evals / {len(pool)} candidates)",
                source=best.source,
                verified=verified,
            )

    return AutotuneResult(
        program=program,
        best=best,
        original=original,
        compound=compound_cand,
        ranked=ranked,
        evaluated=evaluator.evals,
        generated=evaluator.generated,
        budget=budget,
        budget_exhausted=evaluator.exhausted,
        elapsed_s=elapsed,
        eval_s=evaluator.eval_s,
        verified=verified,
        verify_slug=verify_slug,
        rejected=tuple(rejected),
        sim_ranked=sim_ranked,
        sim_s=sim_s,
    )
