"""The system under test: the real ``repro.service`` binary and its cost.

:class:`Server` boots ``python -m repro.service`` (or the traced launcher)
with the CLI defaults and overrides only deployment settings: an ephemeral
port, a fixed ``--seed``, a fresh ``REPRO_CACHE_DIR`` per boot (so the ē_b
table and the result cache start cold) and no ``REPRO_NO_CACHE``.  Its
stderr request log goes to ``/dev/null``.

The server tree runs on its own cores and the generator on another
(:func:`cpu_split`): the client never steals the server's CPU, and the
host-speed witness can time the cores the server actually runs on.
:func:`busy_cores` keeps all of them out of idle states while a run lasts.

CPU and memory come from ``/proc`` for the whole process tree — pool
workers and forked simulation children included.  A reaped child's CPU
moves into its parent's ``cutime``/``cstime``, so summing
``utime + stime + cutime + cstime`` over the live tree never loses or
double-counts a tick.  Finding the tree means reading every
``/proc/<pid>/stat`` (a few milliseconds), so a :class:`Sidecar` process
does it — run as ``sut.py ROOT_PID`` on the generator's core at
``SCHED_IDLE`` priority, it only gets that core while the generator's
loop is waiting and never makes the generator late.
"""

import contextlib
import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple


HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

SERVER_ARGS = ("--port", "0", "--seed", "2026")

#: Seconds between two ``/proc`` samples of the server tree (CPU, RSS).
TREE_PERIOD_S = 0.5

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_split() -> Tuple[Set[int], Set[int]]:
    """(generator cores, server cores): the first available core for the
    generator and the rest for the server, or one shared core."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, set(cpus[1:] or cpus)


def spawn_on(cpus: Set[int], argv: List[str], **popen: Any) -> "subprocess.Popen[bytes]":
    """Start ``argv`` on ``cpus``; it and everything it forks stay there."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return subprocess.Popen(argv, **popen)
    finally:
        os.sched_setaffinity(0, own)


class Sidecar:
    """A helper script run as its own process on ``cpus`` while a ``with``
    block runs.  It takes its first sample before the block starts and its
    last when the block ends; :attr:`samples` holds them all afterwards."""

    def __init__(self, cpus: Set[int], argv: List[str]) -> None:
        self.cpus = cpus
        self.argv = [sys.executable, *argv]
        self.samples: List[Any] = []
        self._proc: Optional["subprocess.Popen[bytes]"] = None

    def __enter__(self) -> "Sidecar":
        self._proc = spawn_on(self.cpus, self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        assert self._proc.stdout is not None
        if self._proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise RuntimeError(f"{self.argv[1]} did not start sampling")
        return self

    def __exit__(self, *exc: object) -> None:
        """Close its standard input (which ends the sampling) and collect."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        out, _ = proc.communicate(timeout=30.0)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.argv[1]} exited {proc.returncode}")
        self.samples = json.loads(out)


def sample_until_stdin_closes(period_s: float, sample: Callable[[], Any]) -> None:
    """The sidecar's side: sample, say ``ready``, sample every
    ``period_s`` until standard input closes, sample once more and print
    every sample as one JSON list."""
    samples = [sample()]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], period_s)[0]:
        samples.append(sample())
    samples.append(sample())
    json.dump(samples, sys.stdout)


@contextlib.contextmanager
def busy_cores(cpus: Set[int]) -> Iterator[None]:
    """Run ``busy.py`` on each of ``cpus`` while the block runs."""
    procs = [spawn_on({cpu}, [sys.executable, str(HERE / "busy.py")]) for cpu in sorted(cpus)]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait(timeout=30.0)


def service_argv(spans_path: Optional[pathlib.Path] = None) -> List[str]:
    """The untraced binary, or the traced launcher writing ``spans_path``."""
    if spans_path is None:
        return [sys.executable, "-m", "repro.service", *SERVER_ARGS]
    return [sys.executable, str(HERE / "traced_server.py"), str(spans_path), *SERVER_ARGS]


class Server:
    """One booted server process; ``boot_s`` runs from launch to listening."""

    def __init__(self, argv: List[str], cache_dir: pathlib.Path, cpus: Set[int]) -> None:
        env = dict(os.environ)
        env.pop("REPRO_NO_CACHE", None)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = str(ROOT / "src")
        started = time.perf_counter()  # lint: ignore[RP103]
        self.proc = spawn_on(
            cpus, argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=env
        )
        try:
            self.address = self._await_announce(timeout_s=120.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started  # lint: ignore[RP103]

    def _await_announce(self, timeout_s: float) -> Tuple[str, int]:
        stdout = self.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout_s)
        line = stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"server did not announce (exit code {self.proc.poll()})")
        announced = json.loads(line)
        if announced.get("event") != "listening":
            raise RuntimeError(f"unexpected announcement {announced!r}")
        return str(announced["host"]), int(announced["port"])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM (graceful drain), escalating to SIGKILL; the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return int(self.proc.returncode)


# --------------------------------------------------------------------- #
# /proc accounting                                                      #
# --------------------------------------------------------------------- #


def _read(path: str) -> Optional[str]:
    try:
        return pathlib.Path(path).read_text()
    except OSError:  # the process exited between listing and reading
        return None


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields from ``state`` (field 3) onwards."""
    text = _read(f"/proc/{pid}/stat")
    if text is None:
        return None
    return text[text.rindex(")") + 2 :].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(name))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in children.get(pid, [])]
        tree.extend(frontier)
    return tree


def tree_cpu_s(pids: List[int]) -> float:
    """User + system CPU of ``pids`` (a process tree), reaped children
    included [s]."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLK_TCK


def tree_rss_mb(pids: List[int]) -> float:
    """Σ VmRSS over ``pids`` [MiB]."""
    total_kb = 0
    for pid in pids:
        status = _read(f"/proc/{pid}/status")
        for line in (status or "").splitlines():
            if line.startswith("VmRSS:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def tree_sample(root: int) -> Tuple[float, float, float]:
    """(time, CPU seconds, RSS MiB) of ``root``'s process tree now."""
    pids = process_tree(root)
    return time.perf_counter(), tree_cpu_s(pids), tree_rss_mb(pids)  # lint: ignore[RP103]


if __name__ == "__main__":
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    server_pid = int(sys.argv[1])
    sample_until_stdin_closes(TREE_PERIOD_S, lambda: tree_sample(server_pid))
