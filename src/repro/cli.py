"""Shared front end of the command-line tools.

``python -m repro`` (with its subcommands), ``python -m
repro.experiments`` and ``python -m repro.suite`` each parse with one
:mod:`argparse` parser per command, built by :func:`parser`
(``allow_abbrev=False``: an abbreviated flag is a usage error). This
module holds what every command used to repeat: reading the input,
writing ``-o``-style outputs, the ``--explain``/``--metrics``/
``--profile`` sections, the ``--trace``/``--chrome-trace`` files and the
run-ledger append.

Exit status is uniform: 0 on success, 1 when an input cannot be read or
an output or the ledger cannot be written, 2 on usage errors. Helpers
exit through :class:`SystemExit` after one line on stderr, as argparse
does; :func:`command` turns every such exit back into a return code so
``main(argv)`` can be called in-process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tracemalloc
from contextlib import contextmanager
from typing import NoReturn

from repro.obs import NULL_OBS, Obs, ledger, render_profile, use_obs
from repro.obs import write_chrome_trace, write_jsonl
from repro.stats.report import render_metrics, render_remarks


def command(main):
    """Make ``main(argv)`` return its exit code instead of raising."""

    @functools.wraps(main)
    def wrapper(argv: list[str]) -> int:
        try:
            code = main(list(argv))
            sys.stdout.flush()
            return code
        except SystemExit as exc:
            return exc.code  # argparse: 0 after --help, 2 on usage errors
        except BrokenPipeError:
            # A reader such as `| head` closed stdout early: not an
            # error. Point stdout at /dev/null so the interpreter-exit
            # flush does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0

    return wrapper


def parser(prog: str, description: str, **kwargs) -> argparse.ArgumentParser:
    """One command's parser; ``description`` is printed verbatim by -h."""
    return argparse.ArgumentParser(
        prog=prog,
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        **kwargs,
    )


def positive_int(text: str) -> int:
    """Argument type of every size, capacity, budget and worker count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def positive_ints(text: str) -> list[int]:
    """Argument type of a comma-separated list of positive integers."""
    return [positive_int(item) for item in text.split(",")]


def add_scoring(parser: argparse.ArgumentParser) -> None:
    """``--line``/``--capacity``: the cache the predictor scores against."""
    parser.add_argument("--line", type=positive_int, default=128, metavar="N",
                        help="cache line size in bytes (default 128)")
    parser.add_argument("--capacity", type=positive_int, default=512,
                        metavar="N", help="FA-LRU capacity in lines for "
                        "scoring (default 512)")


def add_explain(parser: argparse.ArgumentParser, what: str) -> None:
    """``--explain``/``--metrics``: print ``what`` remarks/counters."""
    parser.add_argument("--explain", action="store_true",
                        help=f"print {what} remarks to stderr")
    parser.add_argument("--metrics", action="store_true",
                        help=f"print {what} counters to stderr")


def fail(message: str) -> NoReturn:
    """Print ``message`` to stderr and exit 1."""
    print(message, file=sys.stderr)
    raise SystemExit(1)


def read_source(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")


def write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        fail(f"cannot write {path}: {exc}")


def emit(text: str, path: str | None) -> None:
    """The primary output: to ``path`` (``-o``), else non-empty to stdout."""
    if path:
        write_file(path, text + "\n")
    elif text:
        print(text)


_OBS_FLAGS = ("explain", "metrics", "profile", "trace", "chrome_trace")


@contextmanager
def observed(args: argparse.Namespace, *, always: bool = False):
    """Install the one obs context every observability flag shares.

    Combining ``--trace``/``--metrics``/``--profile``/``--chrome-trace``
    therefore records every span, remark and counter exactly once. The
    context is :data:`NULL_OBS` unless a flag (or ``always``) asks for
    one. ``--profile`` traces memory with :mod:`tracemalloc` for the
    duration of the block.
    """
    profile = getattr(args, "profile", False)
    wanted = always or any(getattr(args, flag, None) for flag in _OBS_FLAGS)
    obs = Obs(profile=profile) if wanted else NULL_OBS
    started = profile and not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with use_obs(obs):
            yield obs
    finally:
        if started:
            tracemalloc.stop()


def _section(title: str, body: str) -> None:
    print(f"\n--- {title} ---", file=sys.stderr)
    print(body, file=sys.stderr)


def print_observations(
    obs,
    args: argparse.Namespace,
    remarks: str = "remarks",
    metrics: str = "metrics",
) -> None:
    """The stderr sections and trace files the observability flags ask for."""
    if getattr(args, "explain", False):
        _section(remarks, render_remarks(obs.remarks, title=""))
    if getattr(args, "metrics", False):
        _section(metrics, render_metrics(obs.metrics, title=""))
    if getattr(args, "profile", False):
        _section(
            "phase profile",
            render_profile(obs.tracer.spans, obs.metrics, title=""),
        )
    trace_path = getattr(args, "trace", None)
    if trace_path:
        try:
            records = write_jsonl(obs, trace_path)
        except OSError as exc:
            fail(f"cannot write {trace_path}: {exc}")
        print(f"wrote {records} trace records to {trace_path}", file=sys.stderr)
    chrome_path = getattr(args, "chrome_trace", None)
    if chrome_path:
        try:
            events = write_chrome_trace(obs, chrome_path)
        except OSError as exc:
            fail(f"cannot write {chrome_path}: {exc}")
        print(
            f"wrote {events} trace events to {chrome_path} "
            f"(load at https://ui.perfetto.dev)",
            file=sys.stderr,
        )


def append_ledger(
    args: argparse.Namespace,
    kind: str,
    argv: list[str],
    *,
    config: dict,
    obs=NULL_OBS,
    phases: dict | None = None,
    bench: dict | None = None,
) -> None:
    """Append this run to the run ledger unless ``--no-ledger`` was given.

    Phases and counters come from ``obs`` unless ``phases`` is passed;
    an unwritable ledger exits 1.
    """
    if args.no_ledger:
        return
    try:
        ledger.append_record(
            ledger.make_record(
                kind,
                argv,
                config=config,
                phases=ledger.phases_from_obs(obs) if phases is None else phases,
                metrics=ledger.counters_from_obs(obs),
                bench=bench,
            )
        )
    except ledger.LedgerError as exc:
        fail(f"error: {exc}")
