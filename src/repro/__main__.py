"""Command-line source-to-source translator (a small Memoria).

Usage::

    python -m repro FILE.f [options]

Reads a mini-Fortran program, applies the paper's compound locality
transformations, and prints the transformed program. Options add a
transformation report, simulated before/after measurements, the
post-pass scalar replacement, and observability output (optimization
remarks, metrics, a hierarchical profile, and JSONL / Chrome traces).

Options:
    --cls N           cache line size in elements for the cost model (4)
    --report          print the per-nest transformation report
    --simulate        simulate cycles/hit-rate before and after
    --scalar-replace  run scalar replacement after Compound
    --cache NAME      cache geometry for --simulate: cache1|cache2 (cache2)
    --explain         print optimization remarks (why each transformation
                      was applied or rejected) to stderr
    --metrics         print pipeline metrics (dependence tests by kind,
                      RefGroup sizes, cache counters, ...) to stderr
    --profile         print the hierarchical phase profile (wall + CPU
                      time, tracemalloc peak memory, counter attribution)
                      to stderr
    --trace FILE      write spans + remarks + metrics as JSONL to FILE
    --chrome-trace F  write a Chrome trace-event / Perfetto JSON to F
                      (load it at https://ui.perfetto.dev)
    --no-ledger       skip the run-ledger append for this invocation
                      (equivalent to REPRO_LEDGER=0)
    --version         print the package version and exit
    -o FILE           write the transformed program to FILE

All observability flags share ONE context and one sink each: combining
--trace/--metrics/--profile/--chrome-trace records every span, remark,
and counter exactly once.

Every invocation also appends one structured record (run id, seed, git
sha, config digest, phase timings, metrics) to ``.repro/ledger.jsonl``
— see ``python -m repro report``.

Subcommands:
    verify            differential fuzzing of the whole pipeline:
                      ``python -m repro verify --fuzz N --seed S [--shrink]``
                      (see ``python -m repro verify --help``)
    locality          analytic reuse-distance / miss-ratio prediction:
                      ``python -m repro locality FILE.f [--compare]``
                      (see ``python -m repro locality --help``)
    lint              static locality diagnostics with verified fix-its:
                      ``python -m repro lint FILE.f [--fix] [--sarif F]``
                      (see ``python -m repro lint --help``)
    report            render the run ledger as markdown/HTML:
                      ``python -m repro report [--format html] [-o FILE]``
                      (see ``python -m repro report --help``)
    autotune          model-driven search over permutation x tiling x
                      fusion: ``python -m repro autotune FILE.f
                      [--budget N] [--topk K] [--compare-sim]``
                      (see ``python -m repro autotune --help``)
    serve             long-lived HTTP compile service (optimize / lint /
                      locality / autotune over the wire, content-addressed
                      result cache, batched workers):
                      ``python -m repro serve [--port P] [--jobs N]``
                      (see ``python -m repro serve --help`` and
                      ``docs/server.md``)
"""

from __future__ import annotations

import os
import sys

from repro import __version__, cli
from repro.cache import CACHE1, CACHE2
from repro.errors import ReproError
from repro.exec import Machine, simulate
from repro.frontend import parse_program
from repro.ir import pretty_program
from repro.model import CostModel
from repro.transforms import compound, scalar_replace_program

_CACHES = {"cache1": CACHE1, "cache2": CACHE2}


def translate_parser():
    # The module docstring is this command's help (see main), so the
    # options carry no help strings of their own.
    parser = cli.parser("python -m repro", __doc__, add_help=False)
    parser.add_argument("file", metavar="FILE.f")
    parser.add_argument("--cls", type=cli.positive_int, default=4, metavar="N")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--simulate", action="store_true")
    parser.add_argument("--scalar-replace", action="store_true")
    parser.add_argument("--cache", choices=sorted(_CACHES), default="cache2")
    parser.add_argument("--explain", action="store_true")
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--chrome-trace", metavar="FILE")
    parser.add_argument("--no-ledger", action="store_true")
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("-o", dest="out", metavar="FILE")
    return parser


def _translate(args, argv: list[str]) -> int:
    source = cli.read_source(args.file)
    with cli.observed(args) as obs:
        try:
            program = parse_program(source)
            model = CostModel(cls=args.cls)
            outcome = compound(program, model)
            final = outcome.program
            replaced = 0
            if args.scalar_replace:
                result = scalar_replace_program(final)
                final = result.program
                replaced = result.replaced
        except ReproError as exc:
            cli.fail(f"error: {exc}")
        cli.emit(pretty_program(final), args.out)

        if args.report:
            print("\n--- transformation report ---", file=sys.stderr)
            for report in outcome.nests:
                line = (
                    f"nest {report.nest_index}: depth {report.depth}, "
                    f"memory order {report.status}, inner loop {report.inner_status}"
                )
                if report.fusion_enabled_permutation:
                    line += ", fusion enabled permutation"
                if report.distributed:
                    line += f", distributed into {report.nests_created} nests"
                if report.reversal_used:
                    line += ", reversal used"
                print(line, file=sys.stderr)
            print(
                f"fusion: {outcome.nests_fused}/{outcome.fusion_candidates} "
                f"candidate nests fused; distribution applied "
                f"{outcome.distribution_applied} time(s)",
                file=sys.stderr,
            )
            if args.scalar_replace:
                print(f"scalar replacement: {replaced} refs promoted", file=sys.stderr)

        if args.simulate:
            machine = Machine(cache=_CACHES[args.cache], miss_penalty=20)
            before = simulate(program, machine)
            after = simulate(final, machine)
            print(
                f"\nsimulated on {args.cache}: cycles {before.cycles} -> "
                f"{after.cycles} (speedup {before.cycles / max(after.cycles, 1):.2f}x), "
                f"hit rate {before.hit_rate:.1%} -> {after.hit_rate:.1%}",
                file=sys.stderr,
            )

    cli.print_observations(obs, args, "optimization remarks", "metrics")
    cli.append_ledger(
        args,
        "cli",
        argv,
        obs=obs,
        config={"cls": args.cls, "cache": args.cache,
                "scalar_replace": args.scalar_replace},
    )
    return 0


def _verify_parser():
    parser = cli.parser(
        "python -m repro verify",
        """\
Differential verification: generate random loop nests and check

  * analytic dependences cover the brute-force oracle,
  * every legality-admitted transform preserves program output
    bit-for-bit (rejected transforms are re-checked to measure
    over-conservatism),
  * batched and scalar cache engines agree on random streams,
  * the analytic locality prediction is consistent with the exact
    reuse-distance histogram of the trace,
  * lint fix-its are output-preserving and never raise predicted misses,
  * autotuned configurations are legality-approved, output-preserving
    and never raise predicted misses.
""",
        epilog="""\
Environment:
    REPRO_FUZZ_BUDGET   when set, raises the case count to at least this
                        value (used by the nightly CI profile)
    REPRO_SEED          run-wide base seed shared with the test and
                        bench harnesses (printed in every failure repro)
""",
    )
    parser.add_argument("--fuzz", type=int, default=50, metavar="N",
                        help="number of fuzz cases to run (default 50)")
    parser.add_argument("--seed", type=int, metavar="S", help="base seed; (seed, case) "
                        "pins every program (default $REPRO_SEED, else 0)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failing programs before printing the repro")
    cli.add_explain(parser, "verify")
    return parser


def _verify(args) -> int:
    from repro.seeds import base_seed
    from repro.verify.runner import run_fuzz

    fuzz = args.fuzz
    seed = base_seed() if args.seed is None else args.seed
    budget = os.environ.get("REPRO_FUZZ_BUDGET", "")
    if budget:
        try:
            fuzz = max(fuzz, int(budget))
        except ValueError:
            print(
                f"REPRO_FUZZ_BUDGET must be an integer, got {budget!r}",
                file=sys.stderr,
            )
            return 2

    with cli.observed(args) as obs:
        report = run_fuzz(fuzz, seed=seed, shrink=args.shrink)
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.repro_script())
    cli.print_observations(obs, args, "verify remarks", "verify metrics")
    return 0 if report.ok else 1


def _locality_parser():
    parser = cli.parser(
        "python -m repro locality",
        """\
Analytic reuse-distance prediction: derives the reuse-distance histogram
and miss ratios of the program straight from its affine subscripts and
loop bounds -- no trace, no simulation. Optionally cross-checks the
prediction against the exact trace-driven histogram.
""",
    )
    parser.add_argument("file", metavar="FILE.f")
    parser.add_argument("--line", type=cli.positive_int, default=128, metavar="N",
                        help="cache line size in bytes, power of two (default 128)")
    parser.add_argument("--capacities", type=cli.positive_ints, default=[64, 512],
                        metavar="N,N", help="comma-separated FA-LRU capacities in "
                        "lines to report (default 64,512)")
    parser.add_argument("--sets", type=cli.positive_int, default=0, metavar="N",
                        help="also predict an N-set LRU cache (with --assoc)")
    parser.add_argument("--assoc", type=cli.positive_int, default=2, metavar="N",
                        help="associativity for --sets (default 2)")
    parser.add_argument("--compare", action="store_true", help="run the exact trace "
                        "analyzer and print predicted vs traced hit rates side by side")
    parser.add_argument("--explain", action="store_true",
                        help="print locality remarks to stderr")
    return parser


def _locality(args) -> int:
    from repro.locality import predict_locality

    source = cli.read_source(args.file)
    line = args.line
    with cli.observed(args) as obs:
        try:
            program = parse_program(source)
            prediction = predict_locality(program, line=line)
        except (ReproError, ValueError) as exc:
            cli.fail(f"error: {exc}")

    path = "exact" if prediction.exact else "model"
    print(
        f"{program.name}: {prediction.accesses} accesses, "
        f"{prediction.cold} cold, line {line}B ({path} path)"
    )
    kinds = prediction.by_kind()
    breakdown = ", ".join(
        f"{kind} {count}" for kind, count in kinds.items() if count
    )
    if breakdown:
        print(f"  reuse classes: {breakdown}")
    trace = None
    if args.compare:
        from repro.cache.reuse import reuse_profile

        trace = reuse_profile(program, line=line)
    for capacity in args.capacities:
        predicted = prediction.hit_rate_for_capacity(capacity)
        row = (
            f"  {capacity:>6} lines ({capacity * line // 1024:>4} KB): "
            f"predicted hit rate {predicted:.2%}, "
            f"miss ratio {prediction.miss_ratio_for_capacity(capacity):.2%}"
        )
        if trace is not None:
            traced = trace.hit_rate_for_capacity(capacity)
            row += f"; traced {traced:.2%} (err {abs(predicted - traced):.2%})"
        print(row)
    if args.sets:
        sets, assoc = args.sets, args.assoc
        rate = prediction.hit_rate_set_assoc(sets, assoc)
        print(
            f"  {sets} sets x {assoc}-way "
            f"({sets * assoc * line // 1024} KB): predicted hit rate {rate:.2%}"
        )
    cli.print_observations(obs, args, "locality remarks")
    return 0


def _lint_parser():
    parser = cli.parser(
        "python -m repro lint",
        """\
Static locality diagnostics over the parsed loop nests: non-unit-stride
accesses, memory-order-violating loop permutations, fusion candidates,
parallelization-blocking loop-carried dependences, scalar-replaceable
redundant reads, and alias hazards. Where a repair is mechanically
expressible the diagnostic carries a fix-it bound to one of the existing
transforms; every fix-it is verified against the brute-force
dependence/execution oracles and scored with the analytic miss-ratio
predictor before it is surfaced. See docs/lint.md for the check catalog.
""",
        epilog="""\
Exit status: 0 clean; 1 on parse errors or any error-severity
diagnostic (a fix-it that fails verification escalates its diagnostic
to error); 2 on usage errors.
""",
    )
    parser.add_argument("files", nargs="+", metavar="FILE.f")
    fixing = parser.add_mutually_exclusive_group()
    fixing.add_argument("--fix", action="store_true", help="apply the verified fix-its "
                        "(one input file only) and print the fixed program to stdout "
                        "(or -o FILE); the diagnostic report moves to stderr")
    fixing.add_argument("--no-verify", action="store_true", help="skip fix-it "
                        "verification (fix-its stay candidates; --fix refuses them)")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write a SARIF 2.1.0 log aggregating every input")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--checks", default="", metavar="LIST", help="comma-separated "
                        "check ids or names (default: all); e.g. LOC002,scalar-replace")
    cli.add_scoring(parser)
    cli.add_explain(parser, "lint")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip the run-ledger append for this invocation")
    parser.add_argument("-o", dest="out", metavar="FILE", help="write the report (or, "
                        "with --fix, the fixed program) to FILE instead of stdout")
    return parser


def _lint(args) -> int:
    import json as _json

    from repro.lint import apply_fixes, lint_program, render_text, to_sarif

    if args.fix and len(args.files) != 1:
        _lint_parser().error("--fix expects exactly one input file")
    checks = tuple(c for c in args.checks.split(",") if c) or None
    line, capacity = args.line, args.capacity

    results: list[tuple] = []  # (LintResult, path)
    payloads: list[dict] = []
    report_lines: list[str] = []
    fixed_text = ""
    parse_failed = False
    with cli.observed(args) as obs:
        for path in args.files:
            source = cli.read_source(path)
            try:
                program = parse_program(source)
            except ReproError as exc:
                print(f"{path}:{exc}", file=sys.stderr)
                parse_failed = True
                continue
            try:
                if args.fix:
                    outcome = apply_fixes(
                        program, checks=checks, line=line, capacity=capacity
                    )
                    result = outcome.result
                    fixed_text = pretty_program(outcome.program)
                    for applied in outcome.applied:
                        print(
                            f"{path}: applied {applied.transform} "
                            f"({applied.check_id}): {applied.description}; "
                            f"predicted miss ratio {applied.miss_before:.4f}"
                            f" -> {applied.miss_after:.4f}",
                            file=sys.stderr,
                        )
                    if not outcome.applied:
                        print(f"{path}: no verified fix-its to apply",
                              file=sys.stderr)
                else:
                    result = lint_program(
                        program,
                        checks=checks,
                        verify=not args.no_verify,
                        line=line,
                        capacity=capacity,
                    )
            except (ReproError, ValueError) as exc:
                cli.fail(f"lint: {exc}")
            results.append((result, path))
            if args.format == "json":
                payload = result.to_dict()
                payload["path"] = path
                payloads.append(payload)
            else:
                report_lines.append(render_text(result, path))

    if args.format == "json":
        report = _json.dumps(
            payloads[0] if len(payloads) == 1 else payloads,
            indent=2,
            sort_keys=True,
        )
    else:
        report = "\n".join(report_lines)
    if args.fix:
        # The fixed program is the primary output; the report narrates.
        if report:
            print(report, file=sys.stderr)
        cli.emit(fixed_text, args.out)
    else:
        cli.emit(report, args.out)

    if args.sarif:
        cli.write_file(args.sarif, to_sarif(results) + "\n")
        total = sum(len(result.diagnostics) for result, _ in results)
        print(
            f"wrote SARIF log with {total} result(s) over "
            f"{len(results)} program(s) to {args.sarif}",
            file=sys.stderr,
        )

    cli.print_observations(obs, args, "lint remarks", "lint metrics")
    cli.append_ledger(
        args,
        "lint",
        args.files,
        obs=obs,
        config={
            "line": line,
            "capacity": capacity,
            "fix": args.fix,
            "verify": not args.no_verify,
            "checks": list(checks) if checks else "all",
        },
    )

    errors = sum(result.errors for result, _ in results)
    return 1 if (parse_failed or errors) else 0


def _autotune_parser():
    parser = cli.parser(
        "python -m repro autotune",
        """\
Model-driven autotuning: beam-search loop permutation x tile sizes x
fusion/distribution for the program, scoring every candidate with the
analytic miss-ratio predictor (no simulation during the search). The
chosen configuration is checked by the execution-equivalence and
dependence oracles before it is printed; candidates that fail fall back
to the next-best verified one, ending at the original program, so the
output never has a worse predicted miss ratio than the input.
""",
    )
    parser.add_argument("file", metavar="FILE.f")
    parser.add_argument("--budget", type=cli.positive_int, default=128, metavar="N",
                        help="max distinct oracle evaluations (default 128)")
    parser.add_argument("--beam", type=cli.positive_int, default=4, metavar="N",
                        help="beam width per nest step (default 4)")
    parser.add_argument("--topk", type=cli.positive_int, default=5, metavar="K",
                        help="candidates kept for --compare-sim (default 5)")
    parser.add_argument("--compare-sim", action="store_true", help="rerank the top-k "
                        "candidates by exact cache simulation and print both rankings")
    cli.add_scoring(parser)
    parser.add_argument("--cls", type=cli.positive_int, metavar="N",
                        help="cost-model line size in elements (default line/8)")
    parser.add_argument("--jobs", type=cli.positive_int, metavar="N", help="worker "
                        "processes for the simulation rerank (default $REPRO_JOBS, else 1)")
    parser.add_argument("--no-verify", action="store_true", help="print the best "
                        "*predicted* candidate without the verification pass")
    cli.add_explain(parser, "search")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip the run-ledger append for this invocation")
    parser.add_argument("-o", dest="out", metavar="FILE",
                        help="write the tuned program to FILE instead of stdout")
    return parser


def _autotune(args) -> int:
    from repro.autotune import autotune

    line, capacity = args.line, args.capacity
    cls = args.cls if args.cls is not None else max(1, line // 8)
    source = cli.read_source(args.file)
    with cli.observed(args) as obs:
        try:
            program = parse_program(source)
            result = autotune(
                program,
                model=CostModel(cls=cls),
                line=line,
                capacity=capacity,
                budget=args.budget,
                beam=args.beam,
                topk=args.topk,
                compare_sim=args.compare_sim,
                jobs=args.jobs,
                verify=not args.no_verify,
            )
        except (ReproError, ValueError) as exc:
            cli.fail(f"error: {exc}")

    cli.emit(pretty_program(result.best.program), args.out)

    best = result.best
    assert best.cost is not None and result.original.cost is not None
    print(
        f"\n--- autotune: {program.name} ---\n"
        f"searched {len(result.ranked)} configs "
        f"({result.evaluated} oracle evals of budget {result.budget}"
        f"{', exhausted' if result.budget_exhausted else ''}) "
        f"in {result.elapsed_s:.2f}s\n"
        f"best: {best.describe()} [{best.source}"
        f"{', verified' if result.verified else ', UNVERIFIED'}]\n"
        f"predicted miss ratio {result.original.cost.miss_ratio:.4f} -> "
        f"{best.cost.miss_ratio:.4f} "
        f"({result.improvement_pp:+.2f}pp) at {capacity} lines x {line}B",
        file=sys.stderr,
    )
    for describe, slug in result.rejected:
        print(f"rejected by verifier: {describe}: {slug}", file=sys.stderr)
    if args.compare_sim and result.sim_ranked:
        print(
            f"simulation rerank of top {len(result.sim_ranked)} "
            f"({result.sim_s:.2f}s):",
            file=sys.stderr,
        )
        for candidate in result.sim_ranked:
            assert candidate.sim is not None and candidate.cost is not None
            print(
                f"  sim {candidate.sim.miss_ratio:.4f} "
                f"(model {candidate.cost.miss_ratio:.4f}): "
                f"{candidate.describe()}",
                file=sys.stderr,
            )

    cli.print_observations(obs, args, "autotune remarks", "autotune metrics")
    cli.append_ledger(
        args,
        "autotune",
        [args.file],
        obs=obs,
        config={
            "line": line,
            "capacity": capacity,
            "cls": cls,
            "budget": args.budget,
            "beam": args.beam,
            "topk": args.topk,
            "compare_sim": args.compare_sim,
            "verify": not args.no_verify,
        },
        bench={
            "program": program.name,
            "candidates": len(result.ranked),
            "evals": result.evaluated,
            "miss_ratio_before": result.original.cost.miss_ratio,
            "miss_ratio_after": best.cost.miss_ratio,
            "elapsed_s": result.elapsed_s,
            "verified": result.verified,
        },
    )
    return 0


def _report_parser():
    parser = cli.parser(
        "python -m repro report",
        """\
Render the persistent run ledger (.repro/ledger.jsonl) as a markdown or
HTML artifact: a run overview, latest-vs-history phase timings and
counter drift for every (kind, run id) stream, and per-kernel benchmark
trajectories for ledgered bench runs.
""",
        epilog="""\
Environment:
    REPRO_LEDGER_DIR   default ledger directory
    REPRO_LEDGER=0     disables ledger appends repo-wide (report still
                       reads whatever history exists)
""",
    )
    parser.add_argument("--format", choices=("md", "html"), default="md",
                        help="artifact format (default md)")
    parser.add_argument("--ledger", metavar="DIR",
                        help="ledger directory (default $REPRO_LEDGER_DIR or .repro)")
    parser.add_argument("--last", type=cli.positive_int, default=20, metavar="N",
                        help="cap the run-overview table at the last N runs (20)")
    parser.add_argument("-o", dest="out", metavar="FILE",
                        help="write the artifact to FILE instead of stdout")
    return parser


def _report(args) -> int:
    from repro.obs.ledger import LedgerError, read_ledger
    from repro.obs.report import render_report

    try:
        records = read_ledger(args.ledger or None)
        text = render_report(records, fmt=args.format, history=args.last)
    except (LedgerError, ValueError) as exc:
        cli.fail(f"report: {exc}")
    if args.out:
        cli.write_file(args.out, text)
        print(
            f"wrote {args.format} report over {len(records)} ledgered runs "
            f"to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def _serve_parser():
    parser = cli.parser(
        "python -m repro serve",
        """\
Boot the optimization service: an asyncio HTTP server exposing the
pipeline as POST /v1/optimize, /v1/lint, /v1/locality, /v1/autotune
plus GET /healthz and /metrics. Requests carry mini-Fortran 'source'
text or a structured 'ir' JSON object; identical requests (up to loop
variable naming and declaration order) are answered from a
content-addressed result cache. See docs/server.md for the API.
""",
        epilog="""\
Every other knob is environment-driven (REPRO_SERVER_QUEUE_DEPTH,
REPRO_SERVER_BATCH_MAX, REPRO_SERVER_REQUEST_TIMEOUT_S,
REPRO_SERVER_MAX_BODY_BYTES, REPRO_SERVER_CACHE_CAP, ...); the full
table is in docs/server.md. SIGINT/SIGTERM drains in-flight work
before exiting.
""",
    )
    parser.add_argument("--host", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, metavar="P",
                        help="bind port; 0 picks an ephemeral port (default 8642)")
    parser.add_argument("--jobs", type=cli.positive_int, metavar="N",
                        help="worker processes per batch (default 1)")
    return parser


def _serve(args) -> int:
    from repro.server import ServerConfig, serve

    overrides = {
        name: getattr(args, name)
        for name in ("host", "port", "jobs")
        if getattr(args, name) not in (None, "")
    }
    try:
        config = ServerConfig.from_env(**overrides)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return serve(config)


#: subcommand -> (parser factory, handler of the parsed arguments)
SUBCOMMANDS = {
    "verify": (_verify_parser, _verify),
    "locality": (_locality_parser, _locality),
    "lint": (_lint_parser, _lint),
    "report": (_report_parser, _report),
    "autotune": (_autotune_parser, _autotune),
    "serve": (_serve_parser, _serve),
}


@cli.command
def main(argv: list[str]) -> int:
    if argv and argv[0] in SUBCOMMANDS:
        build, handler = SUBCOMMANDS[argv[0]]
        return handler(build().parse_intermixed_args(argv[1:]))
    if not argv or "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0 if argv else 2
    return _translate(translate_parser().parse_intermixed_args(argv), argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
