"""CLI: the suite registry and the whole-set runner.

Usage::

    python -m repro.suite [categories...] [--time] [--no-ledger]
    python -m repro.suite list [--sets] [categories...]
    python -m repro.suite run SET [options]

Bare invocation (or ``list``) prints the registry table, optionally
filtered by category; ``list --sets`` prints the curated set table
instead. With ``--time``, each listed program is additionally run
through the Compound driver under a span tracer and the table gains
per-kernel wall-time and remark-count columns — the quick way to spot
which kernel a compile-time regression comes from. Timed runs append a
record to the run ledger (``--no-ledger`` or ``REPRO_LEDGER=0`` skips
it; see ``python -m repro report``).

``run SET`` executes every member of the named set — whole sets only,
no cherry-picking — sharded over worker processes, and prints the
per-entry result table. Options:

    --instance NAME  named size instance: mini | small | medium (medium)
    --jobs N         worker processes (default $REPRO_JOBS, else 1)
    --line N         cache line size in bytes for scoring (128)
    --capacity N     FA-LRU capacity in lines for scoring (512)
    --report FILE    write a markdown/HTML report artifact to FILE
    --format FMT     report format: md | html (md; .html paths imply html)
    --no-ledger      skip the run-ledger append for this run

Exit status: 0 when every entry succeeded; 1 when any entry failed (the
report marks the failed rows) or the ledger is unwritable; 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.ir.visit import iter_loops
from repro.model import CostModel
from repro.obs import Obs, use_obs
from repro.stats.report import render_table
from repro.suite.registry import SETS, suite_entries
from repro.transforms import compound


# Both parsers print the module docstring for -h; it describes every option.
def _list_parser() -> argparse.ArgumentParser:
    parser = cli.parser("python -m repro.suite", __doc__)
    parser.add_argument("categories", nargs="*", metavar="CATEGORY")
    parser.add_argument("--sets", action="store_true")
    parser.add_argument("--time", action="store_true")
    parser.add_argument("--no-ledger", action="store_true")
    return parser


def _list(args) -> int:
    if args.sets:
        rows = [
            {
                "Set": s.name,
                "Members": len(s),
                "Description": s.description,
            }
            for s in (SETS[name] for name in sorted(SETS))
        ]
        print(render_table(rows, title=f"Suite sets ({len(rows)})"))
        return 0
    categories = tuple(args.categories) or None

    rows = []
    timings: dict[str, dict[str, float]] = {}
    for entry in suite_entries(categories):
        program = entry.program()
        loops = sum(1 for _ in iter_loops(program))
        nests = sum(1 for l in program.top_loops if l.depth >= 2)
        row = {
            "Program": entry.name,
            "Category": entry.category,
            "Default N": entry.default_n,
            "Loops": loops,
            "Nests": nests,
            "Statements": len(program.statements),
        }
        if args.time:
            obs = Obs()
            with use_obs(obs):
                with obs.span("suite.compound", program=entry.name):
                    compound(program, CostModel())
            (span,) = obs.tracer.find("suite.compound")
            row["Compound ms"] = span.duration * 1e3
            row["Remarks"] = len(obs.remarks)
            timings[entry.name] = {
                "wall_s": span.duration,
                "cpu_s": span.cpu,
                "calls": 1,
            }
        rows.append(row)
    print(render_table(rows, title=f"Suite registry ({len(rows)} programs)"))
    if args.time:
        cli.append_ledger(
            args,
            "suite",
            args.categories + ["--time"],
            config={"categories": list(categories or ()),
                    "programs": len(rows)},
            phases=timings,
        )
    return 0


def _run_parser() -> argparse.ArgumentParser:
    parser = cli.parser("python -m repro.suite run", __doc__)
    parser.add_argument("set", metavar="SET")
    parser.add_argument("--instance", default="medium", metavar="NAME")
    parser.add_argument("--jobs", type=cli.positive_int, metavar="N")
    cli.add_scoring(parser)
    parser.add_argument("--report", default="", metavar="FILE")
    parser.add_argument("--format", choices=("md", "html"))
    parser.add_argument("--no-ledger", action="store_true")
    return parser


def _run(args) -> int:
    from repro.obs.report import render_set_report
    from repro.suite.runner import run_set

    fmt = args.format or (
        "html" if args.report.endswith((".html", ".htm")) else "md"
    )
    obs = Obs()
    try:
        with use_obs(obs):
            result = run_set(
                args.set, instance=args.instance, jobs=args.jobs,
                line=args.line, capacity=args.capacity,
            )
    except KeyError as exc:
        print(f"suite run: {exc.args[0]}", file=sys.stderr)
        return 2
    except Exception as exc:  # a broken instance name, not a broken entry
        cli.fail(f"suite run: {exc}")

    payload = result.report_payload()
    rows = [
        {
            "Program": row["program"],
            "Category": row["category"],
            "N": row["n"] if row["n"] is not None else "—",
            "Status": row["status"],
            "Miss before": (
                f"{row['miss_before']:.4f}" if row["miss_before"] is not None else "—"
            ),
            "Miss after": (
                f"{row['miss_after']:.4f}" if row["miss_after"] is not None else "—"
            ),
            "Wall ms": row["wall_ms"],
        }
        for row in payload["rows"]
    ]
    ok = payload["entries"] - payload["failed"]
    print(render_table(
        rows,
        title=(
            f"Suite set '{result.set_name}' ({ok}/{payload['entries']} ok, "
            f"instance {result.instance}, {result.jobs} job(s))"
        ),
    ))
    for failure in result.failures:
        print(f"FAILED {failure.name}: {failure.error}", file=sys.stderr)

    if args.report:
        cli.write_file(args.report, render_set_report(payload, fmt=fmt))
        print(
            f"wrote {fmt} report over {payload['entries']} entries to "
            f"{args.report}",
            file=sys.stderr,
        )

    cli.append_ledger(
        args,
        "suite.set",
        [result.set_name],
        obs=obs,
        config={
            "set": result.set_name,
            "instance": result.instance,
            "jobs": result.jobs,
            "line": result.line,
            "capacity": result.capacity,
        },
        bench=result.ledger_payload(),
    )
    return 0 if result.ok else 1


#: subcommand -> (parser factory, handler); a bare invocation lists
SUBCOMMANDS = {"list": (_list_parser, _list), "run": (_run_parser, _run)}


@cli.command
def main(argv: list[str]) -> int:
    name = "list"
    if argv and argv[0] in SUBCOMMANDS:
        name, argv = argv[0], argv[1:]
    build, handler = SUBCOMMANDS[name]
    return handler(build().parse_intermixed_args(argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
