"""Single-flight deduplication in front of the server's result cache.

Both are keyed on :attr:`CompileRequest.cache_key` (endpoint + canonical
nest digest + parameter digest). The result cache itself is a plain
:class:`repro.model.memo.MemoCache` of response bytes on
:class:`repro.server.app.ReproServer`. :class:`SingleFlight` keeps an
asyncio future per *in-flight* key: concurrent identical requests await
the leader's future instead of enqueueing duplicate work. Failures
propagate to every waiter but are never cached, so a transient fault
doesn't poison the key.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

__all__ = ["SingleFlight"]


class SingleFlight:
    """Deduplicate concurrent identical work on one event loop.

    ``run(key, supplier)`` — the first caller for a key becomes the
    leader and executes ``supplier()``; followers arriving while the
    leader is in flight await the same future. ``coalesced`` counts the
    follower joins (the requests that never became work).
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}
        self.coalesced = 0
        self.led = 0

    def leader_count(self) -> int:
        return len(self._inflight)

    async def run(self, key: str, supplier: Callable[[], Awaitable[bytes]]) -> bytes:
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.led += 1
        try:
            result = await supplier()
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved: followers may never materialize, and an
                # unretrieved future exception warns at GC time.
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(result)
            return result
        finally:
            self._inflight.pop(key, None)
