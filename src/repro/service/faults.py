"""Chaos-injection hooks for fault-tolerance testing (off by default).

:class:`FaultInjector` is a small, deterministic switchboard the serving
stack consults at these points:

* :meth:`maybe_kill_worker` — SIGKILL one live worker process of the sweep
  pool (exercises ``BrokenProcessPool`` supervision and restart budgets);
* :meth:`request_delay_s` — extra event-loop latency awaited inside the
  request deadline scope (exercises 504 deadline handling);
* :meth:`take_abort` — truncate the HTTP response mid-body and close the
  connection (exercises client transport-error mapping and retries).

Stream-aware faults reach the NDJSON layer:

* :meth:`take_sim_fault` — SIGKILL (``kill_sim_child``) or SIGSTOP
  (``stall_sim``) the dedicated ``/v1/simulate`` child after it has
  produced ``after_rows`` rows (exercises the terminal error row and the
  stall deadline);
* :meth:`take_truncate_stream` — cut a committed NDJSON response mid-row
  after ``after_rows`` complete rows (exercises client truncation
  detection, status 599);
* :meth:`take_drop_client` — close the connection without writing a
  single response byte (exercises the client's transport-failure path).

Every fault is *armed* with an explicit count and decrements as it fires,
so chaos tests are reproducible without any randomness.  A freshly built
injector (and therefore every production deployment) is completely
inert: all hooks are constant-time no-ops until something arms them.

Faults arrive at runtime, one event per ``POST /chaos/faults`` request
(served only with ``--chaos-admin``): :func:`parse_fault_request` checks
the request and its JSON body strictly, and :meth:`FaultInjector.arm`
applies the event.  ``kill_shard`` is in the same catalogue but belongs to
the shard supervisor, which kills one live shard per count and forwards
every other action to each live shard (see :mod:`repro.service.shard`).

Path scoping is *per fault*: each arm call's ``paths`` applies to that
fault alone, and re-arming with ``paths=None`` clears the scope back to
"any path".
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.service.errors import (
    BadRequestError,
    ForbiddenError,
    MethodNotAllowedError,
    NotFoundError,
)
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive_int,
)

__all__ = [
    "CHAOS_FAULTS_PATH",
    "CHAOS_PREFIX",
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultRequest",
    "parse_fault_request",
]

#: Every path under this prefix is a chaos admin request: it is served
#: only with ``chaos_admin`` and never draws a per-request fault itself.
CHAOS_PREFIX = "/chaos/"

#: The one chaos route: ``POST`` arms one fault event.
CHAOS_FAULTS_PATH = "/chaos/faults"

#: The fault action catalogue.  ``kill_shard`` is the supervisor's; every
#: other action maps onto one :class:`FaultInjector` arm.
FAULT_ACTIONS: Tuple[str, ...] = (
    "kill_worker",
    "kill_shard",
    "delay",
    "abort",
    "truncate_stream",
    "drop_client",
    "kill_sim_child",
    "stall_sim",
)


@dataclass(frozen=True)
class FaultRequest:
    """One fault event: fire ``action`` ``count`` times.

    ``after_rows`` positions stream faults mid-stream; ``path`` scopes
    path-matched faults (``None`` = any path); ``delay_ms`` sizes
    ``delay`` actions.
    """

    action: str
    count: int = 1
    after_rows: int = 0
    path: Optional[str] = None
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"known: {', '.join(FAULT_ACTIONS)}"
            )
        check_positive_int(self.count, "count")
        check_non_negative_int(self.after_rows, "after_rows")
        check_non_negative(self.delay_ms, "delay_ms")
        if self.path is not None and not isinstance(self.path, str):
            raise TypeError("path must be a string or null")
        if self.action == "delay" and self.delay_ms <= 0.0:
            raise ValueError("delay faults need delay_ms > 0")


_FAULT_FIELDS = tuple(f.name for f in fields(FaultRequest))


def parse_fault_request(
    chaos_admin: bool, method: str, path: str, body: bytes
) -> FaultRequest:
    """Check one ``/chaos/*`` request and parse its fault event strictly.

    Raises the :class:`~repro.service.errors.ServiceError` the response
    carries: 403 without ``chaos_admin``, 404 for any path other than
    :data:`CHAOS_FAULTS_PATH`, 405 for a method other than ``POST``, and
    400 for a body that is not one well-formed event (unknown keys,
    missing ``action``, wrong types, out-of-range values).
    """
    if not chaos_admin:
        raise ForbiddenError(
            "chaos admin endpoints are disabled; start the server with "
            "--chaos-admin"
        )
    if path != CHAOS_FAULTS_PATH:
        raise NotFoundError(f"no such chaos endpoint: {path}")
    if method != "POST":
        raise MethodNotAllowedError(f"{path} only accepts POST")
    try:
        data = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"fault event is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BadRequestError("fault event must be a JSON object")
    unknown = sorted(set(data) - set(_FAULT_FIELDS))
    if unknown:
        raise BadRequestError(
            f"unknown fault event field(s) {', '.join(unknown)}; "
            f"known: {', '.join(_FAULT_FIELDS)}"
        )
    if "action" not in data:
        raise BadRequestError("fault event needs an 'action'")
    try:
        return FaultRequest(**data)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"invalid fault event: {exc}") from None


class FaultInjector:
    """Deterministic, count-armed fault switchboard (inert by default)."""

    def __init__(self) -> None:
        self._kill_worker = 0
        self._delay_s = 0.0
        self._delay_times = 0
        self._abort = 0
        self._kill_sim_child = 0
        self._kill_sim_child_after_rows = 0
        self._stall_sim = 0
        self._stall_sim_after_rows = 0
        self._truncate_stream = 0
        self._truncate_stream_after_rows = 1
        self._drop_client = 0
        self._delay_paths: Optional[Tuple[str, ...]] = None
        self._abort_paths: Optional[Tuple[str, ...]] = None
        self._truncate_stream_paths: Optional[Tuple[str, ...]] = None
        self._drop_client_paths: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------ #
    # Arming                                                             #
    # ------------------------------------------------------------------ #

    def arm(self, fault: FaultRequest) -> None:
        """Arm one ``POST /chaos/faults`` event on this process.

        Raises
        ------
        ValueError
            For ``kill_shard``: only the shard supervisor can deliver it.
        """
        paths = None if fault.path is None else (fault.path,)
        if fault.action == "kill_worker":
            self.arm_kill_worker(fault.count)
        elif fault.action == "delay":
            self.arm_delay(fault.delay_ms / 1000.0, times=fault.count, paths=paths)
        elif fault.action == "abort":
            self.arm_abort(fault.count, paths=paths)
        elif fault.action == "truncate_stream":
            self.arm_truncate_stream(
                fault.count, after_rows=fault.after_rows, paths=paths
            )
        elif fault.action == "drop_client":
            self.arm_drop_client(fault.count, paths=paths)
        elif fault.action == "kill_sim_child":
            self.arm_kill_sim_child(fault.count, after_rows=fault.after_rows)
        elif fault.action == "stall_sim":
            self.arm_stall_sim(fault.count, after_rows=fault.after_rows)
        else:
            raise ValueError(
                f"{fault.action} is delivered by the shard supervisor's admin "
                "listener (--shards N --chaos-admin); a single server has no "
                "shard to kill"
            )

    def arm_kill_worker(self, times: int = 1) -> None:
        """SIGKILL one pool worker on each of the next ``times`` dispatches."""
        self._kill_worker = check_non_negative_int(times, "times")

    def arm_delay(
        self,
        delay_s: float,
        times: int = 1,
        paths: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Inject ``delay_s`` of latency into the next ``times`` requests."""
        self._delay_s = check_non_negative(delay_s, "delay_s")
        self._delay_times = check_non_negative_int(times, "times")
        self._delay_paths = None if paths is None else tuple(paths)

    def arm_abort(
        self, times: int = 1, paths: Optional[Tuple[str, ...]] = None
    ) -> None:
        """Truncate and drop the connection on the next ``times`` responses."""
        self._abort = check_non_negative_int(times, "times")
        self._abort_paths = None if paths is None else tuple(paths)

    def arm_kill_sim_child(self, times: int = 1, after_rows: int = 0) -> None:
        """SIGKILL the next ``times`` simulate children mid-stream.

        Each affected stream lets ``after_rows`` rows through first, then
        kills the child process — the relay must surface a terminal
        ``{"row": "error"}`` line, never a clean end.
        """
        self._kill_sim_child = check_non_negative_int(times, "times")
        self._kill_sim_child_after_rows = check_non_negative_int(
            after_rows, "after_rows"
        )

    def arm_stall_sim(self, times: int = 1, after_rows: int = 0) -> None:
        """SIGSTOP the next ``times`` simulate children mid-stream.

        A stopped child produces nothing forever — the relay's stall
        deadline must fire and end the stream with a terminal error row
        within ``sim_stall_timeout_ms``.
        """
        self._stall_sim = check_non_negative_int(times, "times")
        self._stall_sim_after_rows = check_non_negative_int(
            after_rows, "after_rows"
        )

    def arm_truncate_stream(
        self,
        times: int = 1,
        after_rows: int = 1,
        paths: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Cut the next ``times`` committed NDJSON streams mid-row.

        After ``after_rows`` complete rows the transport writes half of
        the next encoded chunk and closes — a byte-level truncation the
        client must detect as a transport failure (599), not a clean end.
        """
        self._truncate_stream = check_non_negative_int(times, "times")
        self._truncate_stream_after_rows = check_non_negative_int(
            after_rows, "after_rows"
        )
        self._truncate_stream_paths = None if paths is None else tuple(paths)

    def arm_drop_client(
        self, times: int = 1, paths: Optional[Tuple[str, ...]] = None
    ) -> None:
        """Close the next ``times`` connections without any response bytes."""
        self._drop_client = check_non_negative_int(times, "times")
        self._drop_client_paths = None if paths is None else tuple(paths)

    @property
    def armed(self) -> bool:
        """True while any fault remains armed."""
        return bool(
            self._kill_worker
            or self._delay_times
            or self._abort
            or self._kill_sim_child
            or self._stall_sim
            or self._truncate_stream
            or self._drop_client
        )

    @staticmethod
    def _matches(paths: Optional[Tuple[str, ...]], path: str) -> bool:
        return paths is None or path in paths

    # ------------------------------------------------------------------ #
    # Hooks (called by the serving stack; no-ops unless armed)           #
    # ------------------------------------------------------------------ #

    def maybe_kill_worker(self, executor: object) -> bool:
        """SIGKILL one live worker of ``executor`` if the fault is armed.

        ``executor`` is a ``ProcessPoolExecutor``; its worker table is
        reached through the private ``_processes`` attribute, which is as
        close as the stdlib lets a chaos hook get to "a machine reboots
        under a shard".  Returns whether a worker was killed.
        """
        if self._kill_worker <= 0:
            return False
        processes = getattr(executor, "_processes", None)
        if not processes:
            return False
        self._kill_worker -= 1
        pid = next(iter(processes))
        os.kill(pid, signal.SIGKILL)
        return True

    def request_delay_s(self, path: str) -> float:
        """Latency to inject into this request (0.0 when unarmed)."""
        if self._delay_times <= 0 or not self._matches(self._delay_paths, path):
            return 0.0
        self._delay_times -= 1
        return self._delay_s

    def take_abort(self, path: str) -> bool:
        """Whether to abort this response mid-body (consumes one count)."""
        if self._abort <= 0 or not self._matches(self._abort_paths, path):
            return False
        self._abort -= 1
        return True

    def take_sim_fault(self) -> Optional[Tuple[str, int]]:
        """The child-process fault for the simulate stream starting now.

        Returns ``("kill" | "stall", after_rows)`` and consumes one count,
        or ``None`` when no simulate-child fault is armed.  ``kill`` wins
        when both are armed (it drains faster in tests).
        """
        if self._kill_sim_child > 0:
            self._kill_sim_child -= 1
            return ("kill", self._kill_sim_child_after_rows)
        if self._stall_sim > 0:
            self._stall_sim -= 1
            return ("stall", self._stall_sim_after_rows)
        return None

    def take_truncate_stream(self, path: str) -> Optional[int]:
        """Rows to let through before cutting this stream mid-chunk.

        ``None`` means the stream is unharmed; an int consumes one armed
        count and tells the transport how many complete rows to relay
        before writing a partial chunk and closing.
        """
        if self._truncate_stream <= 0 or not self._matches(
            self._truncate_stream_paths, path
        ):
            return None
        self._truncate_stream -= 1
        return self._truncate_stream_after_rows

    def take_drop_client(self, path: str) -> bool:
        """Whether to close this connection without any response bytes."""
        if self._drop_client <= 0 or not self._matches(
            self._drop_client_paths, path
        ):
            return False
        self._drop_client -= 1
        return True
