"""CLI: ``python -m repro.experiments [names...] [--full] [--save DIR]
[--trace FILE] [--chrome-trace FILE] [--profile] [--jobs N] [--no-ledger]``.

Runs the requested experiments (default: all) and prints the paper-style
tables; ``--save DIR`` additionally writes each rendered table to
``DIR/<name>.txt`` so EXPERIMENTS.md can be refreshed from artifacts.
``--trace FILE`` records per-experiment (and per-kernel) spans plus
pipeline metrics to a JSONL file, making benchmark regressions
diagnosable from the trace alone. ``--chrome-trace FILE`` writes the
same span forest as a Chrome trace-event / Perfetto JSON — with
``--jobs N`` the worker shards render as their own lanes. ``--profile``
prints the hierarchical phase profile (wall + CPU + peak memory) to
stderr after the tables. ``--jobs N`` shards the per-kernel simulations
of the table experiments across N worker processes (equivalent to
setting ``REPRO_JOBS=N``); results are identical to a serial run, and
each worker's metrics, remarks and spans merge back once.

Every invocation appends a run record to ``.repro/ledger.jsonl``
(``--no-ledger`` or ``REPRO_LEDGER=0`` skips it); render the history
with ``python -m repro report``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import cli
from repro.experiments import EXPERIMENTS, run_all


def _experiment(name: str) -> str:
    if name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {name!r} (available: {', '.join(EXPERIMENTS)})"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    # The module docstring, printed by -h, describes every option.
    parser = cli.parser("python -m repro.experiments", __doc__)
    parser.add_argument("names", nargs="*", type=_experiment, metavar="NAME")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--save", metavar="DIR")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--chrome-trace", metavar="FILE")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--jobs", type=cli.positive_int, metavar="N")
    parser.add_argument("--no-ledger", action="store_true")
    return parser


@cli.command
def main(argv: list[str]) -> int:
    args = build_parser().parse_intermixed_args(argv)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)

    def deliver(name: str, text: str) -> None:
        print(text)
        print()
        if args.save:
            cli.write_file(os.path.join(args.save, f"{name}.txt"), text + "\n")

    ran: list[str] = []
    with cli.observed(args, always=not args.no_ledger) as obs:
        if args.names:
            for name in args.names:
                module = EXPERIMENTS[name]
                start = time.time()
                with obs.span(f"experiment.{name}"):
                    deliver(name, module.render(module.run()))
                ran.append(name)
                print(f"[{name}: {time.time() - start:.1f}s]\n")
        else:
            for name, text in run_all(quick=not args.full).items():
                deliver(name, text)
                ran.append(name)
    cli.print_observations(obs, args)
    cli.append_ledger(
        args,
        "experiments",
        argv,
        obs=obs,
        config={"experiments": ran, "full": args.full,
                "jobs": os.environ.get("REPRO_JOBS", "1")},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
