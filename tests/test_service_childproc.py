"""Fork hygiene: children drop inherited sockets and die with the parent."""

import multiprocessing
import os
import resource
import socket
import time

import pytest

from repro.service.childproc import harden_child

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="socket inheritance requires the fork start method",
)


def _probe_fds(conn, sock_fd):
    harden_child()
    sock_alive = True
    try:
        os.fstat(sock_fd)
    except OSError:
        sock_alive = False
    conn.send(sock_alive)
    conn.close()


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def _probe_open_fds(conn, fds, without_proc):
    if without_proc:
        # A host without /proc: the fd listing fails (this child only).
        def no_proc(path):
            raise FileNotFoundError(path)

        os.listdir = no_proc
    harden_child()
    # The reply travels over the inherited pipe, which must survive.
    conn.send({"pipe": _is_open(conn.fileno()), "open": [_is_open(fd) for fd in fds]})
    conn.close()


def _middle(conn):
    inner = multiprocessing.get_context().Process(
        target=_inner, args=(conn,)
    )
    inner.start()
    conn.send(inner.pid)
    os._exit(0)  # die abruptly, skipping all cleanup — inner is orphaned


def _inner(conn):
    harden_child()
    time.sleep(60.0)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestHardenChild:
    def test_child_closes_inherited_socket_but_keeps_the_pipe(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context().Process(
                target=_probe_fds, args=(child_conn, listener.fileno())
            )
            child.start()
            child_conn.close()
            assert parent_conn.poll(10.0)
            assert parent_conn.recv() is False  # socket fd closed in child
            child.join(timeout=10.0)
            assert child.exitcode == 0
            # The parent's own copy is untouched.
            assert listener.getsockname()[1] > 0
        finally:
            listener.close()

    @pytest.mark.parametrize("without_proc", [False, True])
    def test_child_closes_listeners_above_fd_1024_and_keeps_its_pipe(self, without_proc):
        high = 1500
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= high or _is_open(high):
            pytest.skip(f"fd {high} is not free to use here")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            os.dup2(listener.fileno(), high)
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context().Process(
                target=_probe_open_fds,
                args=(child_conn, [listener.fileno(), high], without_proc),
            )
            child.start()
            child_conn.close()
            assert parent_conn.poll(10.0)
            assert parent_conn.recv() == {"pipe": True, "open": [False, False]}
            child.join(timeout=10.0)
            assert child.exitcode == 0
            assert _is_open(high) and listener.getsockname()[1] > 0
        finally:
            if _is_open(high):
                os.close(high)
            listener.close()

    def test_child_dies_when_its_parent_is_killed(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        middle = multiprocessing.get_context().Process(
            target=_middle, args=(child_conn,)
        )
        middle.start()
        child_conn.close()
        assert parent_conn.poll(10.0)
        inner_pid = parent_conn.recv()
        middle.join(timeout=10.0)
        # The orphaned grandchild must be reaped by PR_SET_PDEATHSIG,
        # not linger for its full 60 s sleep.
        deadline = time.monotonic() + 10.0
        while _alive(inner_pid):
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"orphaned child {inner_pid} outlived its parent"
                )
            time.sleep(0.05)
