"""The request-coalescing scheduler.

Concurrent single-point requests that share a *batch group* (same endpoint
and same non-swept parameters) are merged into one call to the PR-1 batch
kernels and the results de-multiplexed back per request.  The first request
for a group opens a window of ``window_s`` seconds; every request for the
same group arriving before the window expires joins the batch (up to
``max_batch``, which flushes immediately).  Because the batch kernels are
documented — and tested — to be elementwise bit-identical to their scalar
counterparts, a coalesced response equals the response the same request
would have produced alone.

The batch function runs synchronously inside the event loop, so batches
are also serialized: no cross-batch interleaving can reorder
floating-point reductions.  The kernels are one array pass over every
constellation size: on a shared 2-vCPU host a one-point overlay or
underlay batch measured ~0.05-0.1 ms in-process and ~0.3-0.4 ms inside
a busy server, a 64-point one ~0.15-0.3 ms in-process
(``docs/performance.md`` section 3).
"""

from __future__ import annotations

import asyncio
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.utils.validation import check_non_negative, check_positive_int

__all__ = ["Coalescer"]

KeyT = TypeVar("KeyT", bound=Hashable)
ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class _Pending(Generic[ItemT, ResultT]):
    """One open batch: collected items, their futures, the flush timer."""

    __slots__ = ("items", "futures", "timer")

    def __init__(self) -> None:
        self.items: List[ItemT] = []
        self.futures: List["asyncio.Future[ResultT]"] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class Coalescer(Generic[KeyT, ItemT, ResultT]):
    """Merge concurrent same-group submissions into one batch call.

    Parameters
    ----------
    batch_fn:
        ``(key, items) -> results``, one result per item *in order*.  A
        result may be an ``Exception`` instance, which is raised out of the
        corresponding :meth:`submit` alone; raising from ``batch_fn`` itself
        fails the whole batch.
    window_s:
        Coalescing window in seconds.  ``0`` still merges submissions that
        land in the same event-loop iteration.
    max_batch:
        Flush immediately once a batch collects this many items.
    on_batch:
        Optional hook called with each flushed batch's size (metrics).
    """

    def __init__(
        self,
        batch_fn: Callable[[KeyT, Sequence[ItemT]], Sequence[Union[ResultT, Exception]]],
        window_s: float,
        max_batch: int = 64,
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._batch_fn = batch_fn
        self._window_s = check_non_negative(window_s, "window_s")
        self._max_batch = check_positive_int(max_batch, "max_batch")
        self._on_batch = on_batch
        self._pending: Dict[KeyT, _Pending[ItemT, ResultT]] = {}

    # ------------------------------------------------------------------ #

    @property
    def pending_groups(self) -> int:
        """Number of groups with an open (unflushed) batch."""
        return len(self._pending)

    async def submit(self, key: KeyT, item: ItemT) -> ResultT:
        """Join (or open) the batch for ``key``; await this item's result."""
        loop = asyncio.get_running_loop()
        batch = self._pending.get(key)
        if batch is None:
            batch = _Pending()
            self._pending[key] = batch
            batch.timer = loop.call_later(self._window_s, self._flush, key)
        future: "asyncio.Future[ResultT]" = loop.create_future()
        batch.items.append(item)
        batch.futures.append(future)
        if len(batch.items) >= self._max_batch:
            self._flush(key)
        return await future

    def flush_all(self) -> None:
        """Flush every open batch now (graceful-drain path)."""
        for key in list(self._pending):
            self._flush(key)

    # ------------------------------------------------------------------ #

    def _flush(self, key: KeyT) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:  # already flushed by the max-batch fast path
            return
        if batch.timer is not None:
            batch.timer.cancel()
        if self._on_batch is not None:
            self._on_batch(len(batch.items))
        try:
            results = self._batch_fn(key, batch.items)
        except Exception as exc:  # whole-batch failure: every waiter sees it
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        if len(results) != len(batch.items):
            error = RuntimeError(
                f"batch function returned {len(results)} results "
                f"for {len(batch.items)} items"
            )
            for future in batch.futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(batch.futures, results):
            if future.done():  # waiter went away (connection dropped)
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)
