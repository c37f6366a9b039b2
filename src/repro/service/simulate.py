"""`/v1/simulate` execution: scenario runs in a dedicated child process.

A city-scale scenario is minutes of CPU-bound Python — far too long for
the event loop and the wrong shape for the request/response worker pool
when the client wants *streaming* snapshots.  So each streamed simulation
gets its own ``multiprocessing`` child: the child runs
:class:`~repro.scenario.runtime.ScenarioRuntime` and ships every row over
a pipe; the parent relays rows to the HTTP layer as they arrive, with a
per-row stall deadline (the streaming analogue of the buffered path's
request deadline) and a concurrency gate that answers 429 once
``max_sims`` simulations are already live — the same backpressure
contract as the sweep pool.

The buffered (non-streaming) ``/v1/simulate`` path does not live here: it
runs :func:`simulate_rows` on the ordinary worker pool like any sweep.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.scenario.runtime import ScenarioRuntime
from repro.scenario.spec import ScenarioSpec, scenario_from_mapping
from repro.service.childproc import harden_child
from repro.service.errors import BadRequestError, OverloadedError
from repro.service.faults import FaultInjector
from repro.service.metrics import Metrics

__all__ = ["SimulationRunner", "parse_simulate_request", "simulate_rows"]

Row = Dict[str, object]

#: Pipe poll granularity — how quickly a cancelled stream reaps its child.
_POLL_S = 0.1


def parse_simulate_request(data: object, max_nodes: int) -> ScenarioSpec:
    """Validate a ``/v1/simulate`` body into a :class:`ScenarioSpec`.

    Library ``ValueError``s (unknown fields, bad types, out-of-range
    values) become 400s; ``max_nodes`` bounds the admission-time
    population (churn joins are separately capped by ``max_joins``).
    """
    if not isinstance(data, dict):
        raise BadRequestError("request body must be a JSON object")
    try:
        spec = scenario_from_mapping(data)
    except (ValueError, TypeError) as exc:
        raise BadRequestError(str(exc)) from exc
    if spec.n_nodes > max_nodes:
        raise BadRequestError(
            f"n_nodes={spec.n_nodes} exceeds the server limit of {max_nodes}"
        )
    return spec


def simulate_rows(spec: ScenarioSpec) -> List[Row]:
    """Run a whole scenario to completion (the pool-backed buffered path).

    A module-level pure function of the spec, so pooled and inline
    execution are bit-identical — and identical to the streamed rows.
    """
    return list(ScenarioRuntime(spec).run())


def _child_main(spec: ScenarioSpec, conn: Connection) -> None:
    """Child-process body: stream rows, then a terminal status tuple."""
    # On fork platforms this child inherits the server loop's signal
    # machinery, including the ``signal.set_wakeup_fd`` socketpair shared
    # with the parent: a SIGTERM or SIGINT handled here would be written
    # into that shared pipe and read by the parent's loop as the *server*
    # being told to shut down.  Detach as early as possible.  A signal can
    # still land before these lines run (a stall fault may SIGSTOP the
    # child first), which is why the parent only ever ends a child with
    # SIGKILL: it runs no handler.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Drop inherited sockets (listener, other clients' connections) and
    # die with the parent: a child that outlives a killed shard would
    # otherwise keep the shard's SO_REUSEPORT listener half-alive.
    harden_child()
    try:
        for row in ScenarioRuntime(spec).run():
            conn.send(("row", row))
        conn.send(("done", None))
    except Exception as exc:  # noqa: BLE001 - relayed as a terminal error row
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        conn.close()


class SimulationRunner:
    """Gate and relay for streamed simulations.

    ``max_sims`` bounds concurrently live simulation processes;
    :meth:`stream` raises :class:`OverloadedError` (HTTP 429) beyond it.
    The slot is taken synchronously *before* any response bytes leave the
    server, so an overloaded request still gets a clean JSON 429.
    """

    def __init__(
        self,
        max_sims: int,
        metrics: Optional[Metrics] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if max_sims < 1:
            raise ValueError("max_sims must be >= 1")
        self._max_sims = max_sims
        self._active = 0
        self._metrics = metrics
        self._faults = faults

    @property
    def active(self) -> int:
        """Simulations currently streaming."""
        return self._active

    def acquire(self) -> None:
        """Reserve a simulation slot or raise 429 backpressure."""
        if self._active >= self._max_sims:
            if self._metrics is not None:
                self._metrics.pool_reject()
            raise OverloadedError(
                f"{self._active}/{self._max_sims} simulation(s) already "
                "streaming; retry later"
            )
        self._active += 1

    def release(self) -> None:
        self._active = max(0, self._active - 1)

    async def stream(
        self, spec: ScenarioSpec, stall_timeout_s: Optional[float]
    ) -> AsyncIterator[Row]:
        """Yield scenario rows from a child process as they are produced.

        The caller must have :meth:`acquire`-d a slot and is responsible
        for :meth:`release` when done with the stream (the service wires
        it through ``RowStream.on_close``, which runs even if this
        generator is never started).  The child process itself is cleaned
        up here: generator teardown (``aclose``/``GeneratorExit``) or
        normal exhaustion SIGKILLs (if still running) and joins it.
        ``stall_timeout_s`` bounds the gap between consecutive rows — a
        child that stops producing is killed and the stream ends with an
        ``{"row": "error", ...}`` line (the connection then closes without
        the terminal chunk, so clients cannot mistake it for completion).
        """
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main, args=(spec, child_conn), daemon=True
        )
        process.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        fault = self._faults.take_sim_fault() if self._faults is not None else None
        rows_sent = 0
        try:
            if fault is not None and fault[1] <= 0:
                self._apply_sim_fault(process, fault[0])
                fault = None
            waited = 0.0
            while True:
                # Poll in the default thread pool: keeps the event loop
                # free and lets cancellation (client gone) land between
                # polls instead of blocking on a quiet pipe.
                ready = await loop.run_in_executor(None, parent_conn.poll, _POLL_S)
                if not ready:
                    if not process.is_alive() and not parent_conn.poll():
                        yield self._error_row("simulation process died", 500)
                        return
                    waited += _POLL_S
                    if stall_timeout_s is not None and waited >= stall_timeout_s:
                        yield self._error_row(
                            f"no snapshot within the {stall_timeout_s:g} s "
                            "stall deadline",
                            504,
                        )
                        return
                    continue
                waited = 0.0
                try:
                    kind, value = self._receive(parent_conn)
                except EOFError:
                    yield self._error_row("simulation ended without a summary", 500)
                    return
                if kind == "row":
                    rows_sent += 1
                    yield value  # type: ignore[misc]
                    if fault is not None and rows_sent >= fault[1]:
                        self._apply_sim_fault(process, fault[0])
                        fault = None
                elif kind == "done":
                    return
                else:
                    yield self._error_row(str(value), 500)
                    return
        finally:
            parent_conn.close()
            if process.is_alive():
                # SIGKILL ends a stopped child too, and runs no handler: a
                # child that has not yet detached from the shared wakeup fd
                # cannot relay it to the server (see _child_main).
                process.kill()
            process.join(timeout=5.0)

    @staticmethod
    def _apply_sim_fault(process: BaseProcess, action: str) -> None:
        """Fire an armed child fault: SIGKILL (``kill``) or SIGSTOP."""
        if not process.is_alive() or process.pid is None:
            return
        if action == "kill":
            process.kill()
            return
        try:
            os.kill(process.pid, signal.SIGSTOP)
        except (ProcessLookupError, OSError):  # pragma: no cover
            pass

    @staticmethod
    def _receive(conn: Connection) -> Tuple[str, Any]:
        return conn.recv()  # type: ignore[no-any-return]

    @staticmethod
    def _error_row(detail: str, status: int) -> Row:
        return {
            "row": "error",
            "error": "stream failed",
            "detail": detail,
            "status": status,
        }
