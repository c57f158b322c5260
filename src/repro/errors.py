"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR: bad structure, unknown names, invalid shapes."""


class NonAffineError(IRError):
    """An expression could not be interpreted as an affine form.

    The cost model and dependence analysis both require affine subscripts
    and loop bounds; anything else (products of index variables, calls,
    index arrays) raises this error during lowering.
    """


class ParseError(ReproError):
    """Raised by the mini-Fortran frontend on invalid source text.

    Attributes:
        line: 1-based source line of the offending token.
        column: 1-based source column of the offending token.
        message: the bare description, without the location prefix.
        source_line: the offending line of source text, when the frontend
            could recover it; rendered with a caret under the column.
    """

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        source_line: str | None = None,
    ):
        rendered = f"{line}:{column}: {message}" if line else message
        if source_line is not None:
            caret = " " * max(column - 1, 0) + "^"
            rendered += f"\n  {source_line.rstrip()}\n  {caret}"
        super().__init__(rendered)
        self.message = message
        self.line = line
        self.column = column
        self.source_line = source_line


class DependenceError(ReproError):
    """Dependence analysis could not be performed on a reference pair."""


class TransformError(ReproError):
    """A loop transformation was requested that is illegal or inapplicable."""


class ExecutionError(ReproError):
    """The loop-nest interpreter hit a runtime problem (unbound symbol,
    out-of-bounds subscript, division by zero, ...)."""


class PolySumError(ReproError, ValueError):
    """A polynomial could not be evaluated (an unbound variable), or a
    loop chain cannot be counted exactly by polynomial summation."""


#: What running a program or a transform may raise on input it rejects:
#: the differential oracles catch these (and only these), so a
#: programming error still surfaces as a traceback.
ORACLE_FAILURES = (ReproError, ArithmeticError, ValueError, IndexError, KeyError)
