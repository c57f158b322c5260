"""The observability context: one object bundling tracer + metrics + remarks.

Instrumented code throughout the package does::

    from repro.obs import get_obs

    obs = get_obs()
    with obs.span("compound.nest", nest=i):
        ...
    obs.remark("permute", "applied", "reordered I.J -> J.I", loops=("I", "J"))
    obs.metrics.counter("dep.test.siv").inc()

By default :func:`get_obs` returns :data:`NULL_OBS` — a disabled context
whose span handle is a shared no-op object, whose ``remark`` does nothing,
and whose metrics registry hands out null instruments. Instrumentation is
therefore zero-cost off the observed path and pay-as-you-go on it; hot
per-access loops (the interpreter / trace compiler) carry *no* obs calls
at all, only their run boundaries do.

Enable observation either globally (:func:`set_obs`) or scoped
(:func:`use_obs` context manager, which restores the previous context).

The active context lives in a :class:`contextvars.ContextVar`, not a
plain module global: single-threaded callers see identical behaviour,
but concurrent request handlers (the :mod:`repro.server` executor
threads and asyncio tasks) each observe their *own* context, so one
request's ``use_obs`` can never leak spans or remarks into another's.
``asyncio.to_thread`` and ``contextvars.copy_context`` propagate the
installed context into workers; bare ``threading.Thread`` targets start
from the default (disabled) context.

Observations made in another context — a ``--jobs`` worker process, a
server compile job — come back as plain data and are adopted with
:meth:`Obs.merge`: one plain merge per offer, no keys, no dedup.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.remarks import Remark
from repro.obs.tracer import _NULL_SPAN_HANDLE, NULL_TRACER, Tracer

__all__ = ["Obs", "NULL_OBS", "get_obs", "set_obs", "use_obs"]


class Obs:
    """An enabled observability context.

    ``profile=True`` builds a profiling tracer (per-span CPU time and —
    while :mod:`tracemalloc` is tracing — peak traced memory); it is the
    context behind the CLI's ``--profile`` flag.
    """

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profile: bool = False,
    ):
        self.tracer = tracer if tracer is not None else Tracer(profile=profile)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.remarks: list[Remark] = []

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def merge(
        self,
        metrics: MetricsRegistry,
        remarks=(),
        spans=(),
        parent=None,
        shard: int | None = None,
    ) -> None:
        """Adopt another context's observations (e.g. a worker's).

        Counters add through :meth:`MetricsRegistry.merge`, remarks
        append, and spans graft under ``parent`` with ``shard`` stamped
        on them (see :meth:`Tracer.graft`). Every call adds: merging the
        same observations twice counts them twice.
        """
        self.metrics.merge(metrics)
        self.remarks.extend(remarks)
        self.tracer.graft(spans, parent=parent, shard=shard)

    def remark(
        self,
        pass_name: str,
        kind: str,
        message: str,
        *,
        nest: int | None = None,
        loops=(),
        reason: str | None = None,
        **data,
    ) -> Remark:
        record = Remark(
            pass_name,
            kind,
            message,
            nest=nest,
            loops=tuple(loops),
            reason=reason,
            data=tuple(sorted(data.items())),
        )
        self.remarks.append(record)
        return record

    def remarks_for(self, pass_name: str) -> list[Remark]:
        return [r for r in self.remarks if r.pass_name == pass_name]


class _NullObs:
    """Disabled context: every operation is a no-op."""

    enabled = False
    tracer = NULL_TRACER
    metrics = NULL_METRICS
    remarks: tuple = ()

    def span(self, name: str, **attrs):
        return _NULL_SPAN_HANDLE

    def remark(self, pass_name, kind, message, **_kw) -> None:
        return None

    def remarks_for(self, pass_name: str) -> list:
        return []


NULL_OBS = _NullObs()

_current: "ContextVar[Obs | _NullObs]" = ContextVar("repro_obs", default=NULL_OBS)


def get_obs() -> "Obs | _NullObs":
    """The active observability context (the null context by default)."""
    return _current.get()


def set_obs(obs: "Obs | None") -> "Obs | _NullObs":
    """Install ``obs`` in the current context; ``None`` restores the null
    context. Code running in the same thread/task (and in contexts copied
    from it) sees the new value."""
    value = obs if obs is not None else NULL_OBS
    _current.set(value)
    return value


@contextmanager
def use_obs(obs: "Obs | None"):
    """Scoped install: the previous context is restored on exit."""
    token = _current.set(obs if obs is not None else NULL_OBS)
    try:
        yield _current.get()
    finally:
        _current.reset(token)
