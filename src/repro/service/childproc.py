"""Fork hygiene for service child processes (pool workers, sim children).

A forked child inherits every parent file descriptor — including the
shard's SO_REUSEPORT listening socket and whatever client connections are
accepted at fork time.  Those copies have real consequences, found by the
chaos loadgen's ``kill_shard`` fault:

* If the shard is SIGKILLed while a long-lived child survives (a pool
  worker, a running simulation), the child's copy of the listening
  socket stays in the kernel's SO_REUSEPORT group with nobody accepting
  it — a fraction of all *new* connections to the port hash onto the
  dead socket and hang until the client deadline, indefinitely poisoning
  an otherwise healthy fleet.
* An accepted connection the parent closed stays half-open until the
  child exits, so abrupt-close signals (truncation, ``drop_client``)
  reach clients only when the child finishes — minutes, for a city-scale
  simulation — instead of immediately.

:func:`harden_child` fixes both: it closes every inherited *socket* fd
(pipes — the pool and simulation result channels — are left alone) and
arms ``PR_SET_PDEATHSIG`` so the kernel SIGKILLs the child the moment
its parent dies, however the parent died.
"""

from __future__ import annotations

import ctypes
import os
import signal
import stat
import sys
from typing import Iterable

__all__ = ["arm_parent_death_signal", "close_inherited_sockets", "harden_child"]

#: ``prctl(2)`` option: deliver a signal to this process when its parent
#: dies (cleared across fork, so each child must arm it itself).
_PR_SET_PDEATHSIG = 1

#: How far to scan the fd table on a host without ``/proc/self/fd``.
#: Service processes sit far below this; a bounded scan keeps the fork
#: path O(1) even under generous ulimits.
_MAX_SCAN_FD = 4096


def close_inherited_sockets(max_fd: int = _MAX_SCAN_FD) -> None:
    """Close every socket fd of this process, leaving pipes and files.

    Called from a freshly forked child: the sockets are all inherited
    (the listener, accepted connections, the event loop's self-pipe
    pair), and none of them belong to the child.  The pipe back to the
    parent is not a socket, so it survives untouched.

    The open fds are read off ``/proc/self/fd`` (a few dozen ``fstat``
    calls instead of one per fd number); only a host without it scans
    fds 3 to ``max_fd - 1``.
    """
    try:
        fds: Iterable[int] = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        fds = range(3, max_fd)
    for fd in fds:
        if fd < 3:
            continue
        try:
            mode = os.fstat(fd).st_mode
        except OSError:  # e.g. the listing's own, now closed, directory fd
            continue
        if stat.S_ISSOCK(mode):
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - raced with another closer
                pass


def arm_parent_death_signal() -> None:
    """Linux: SIGKILL this process the moment its parent dies.

    ``daemon=True`` children are only reaped on a *clean* parent exit; a
    SIGKILLed parent orphans them silently.  ``PR_SET_PDEATHSIG`` closes
    that gap in the kernel — and SIGKILL is delivered even to a stopped
    (SIGSTOPped) child.  No-op on platforms without ``prctl``.
    """
    if not sys.platform.startswith("linux"):  # pragma: no cover - non-linux
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):  # pragma: no cover - exotic libc
        return
    prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    if os.getppid() == 1:
        # The parent died between fork and prctl — the death signal will
        # never fire, so take the exit the parent's death implies.
        os._exit(1)


def harden_child() -> None:
    """Standard hygiene for every forked service child."""
    arm_parent_death_signal()
    close_inherited_sockets()
