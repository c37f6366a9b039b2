#!/usr/bin/env python
"""CI smoke test for repro-service: boot, query every endpoint, drain.

Starts ``python -m repro.service`` as a real subprocess on an ephemeral
port, with the persistent result cache on (``REPRO_NO_CACHE`` is removed
from its environment) in a fresh temporary ``REPRO_CACHE_DIR``.  It parses
the ``{"event": "listening"}`` announcement and issues one query per
endpoint plus /healthz and /metrics.  Then it sends every cacheable route
twice over one keep-alive ``http.client`` connection — ``/v1/ebar``,
overlay and underlay sweeps both buffered and streamed, and a seeded
interweave pattern — and requires the repeat to be byte-identical to the
first answer (status line, headers and body) and ``/metrics`` to count
exactly one ``result_cache`` hit per repeat.  It then reads
``/proc/<pid>/maps`` of the daemon and each live descendant (the sweep pool
worker among them) and fails if any maps a file under ``scipy/``, which no
query here needs (every one has mt*mr <= 6, and only a diversity order
past 20 loads ``scipy.special``); it prints the boot-to-listening seconds
and the tree's summed VmRSS on one line, as a report, not a gate (the
check is skipped where ``/proc`` is absent).  Finally it sends SIGTERM
while that connection is still open and idle, and asserts a clean (exit 0)
graceful shutdown with no ``Traceback`` in the server's stderr.

Usage:  PYTHONPATH=src python scripts/service_smoke.py
"""

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import ServiceClient, ServiceClientError  # noqa: E402

NDJSON = {"Accept": "application/x-ndjson"}

#: Each cacheable route once, with bodies no earlier query sent, so every
#: first answer is computed and every repeat must be a cache hit.
CACHEABLE: List[Tuple[str, str, Dict[str, object], Dict[str, str]]] = [
    ("ebar", "/v1/ebar", {"p": 1e-4, "b": 4, "mt": 3, "mr": 2}, {}),
    (
        "overlay buffered",
        "/v1/overlay/feasible",
        {"d1": [20.0, 40.0, 60.0, 80.0], "m": 2, "bandwidth": 40e3},
        {},
    ),
    (
        "overlay streamed",
        "/v1/overlay/feasible",
        {"d1": [25.0, 45.0, 65.0], "m": 3, "bandwidth": 40e3},
        NDJSON,
    ),
    (
        "underlay buffered",
        "/v1/underlay/energy",
        {"p": 1e-3, "mt": 2, "mr": 3, "d": 5.0, "distance": [10.0, 100.0, 1000.0],
         "bandwidth": 10e3},
        {},
    ),
    (
        "underlay streamed",
        "/v1/underlay/energy",
        {"p": 1e-3, "mt": 3, "mr": 2, "d": 5.0, "distance": [20.0, 200.0],
         "bandwidth": 10e3},
        NDJSON,
    ),
    (
        "interweave seeded",
        "/v1/interweave/pattern",
        {"st1": [0.0, 0.0], "st2": [15.0, 0.0], "wavelength": 30.0,
         "pr": [100.0, 0.0], "points": [[40.0, 40.0], [10.0, 70.0]],
         "environment": {"n_scatterers": 4, "seed": 9}},
        {},
    ),
]


def raw_exchange(
    conn: http.client.HTTPConnection,
    path: str,
    body: Dict[str, object],
    headers: Dict[str, str],
) -> bytes:
    """POST ``body``; the status line, headers and body as one byte string.

    A streamed (chunked) body is read to its end; ``http.client`` reopens
    the connection for the next request when the server closed it.
    """
    conn.request("POST", path, body=json.dumps(body), headers=headers)
    response = conn.getresponse()
    head = [f"HTTP/1.1 {response.status} {response.reason}"]
    head.extend(f"{name}: {value}" for name, value in response.getheaders())
    return "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.read()


def check_endpoints(client: ServiceClient) -> None:
    assert client.healthz() == {"status": "ok"}
    ebar = client.ebar(0.001, 2, 2, 2)
    assert ebar["e_bar"] > 0.0, ebar
    overlay = client.overlay_feasible(40.0, 2, 10e3)
    assert overlay["count"] == 1 and "feasible" in overlay["rows"][0], overlay
    underlay = client.underlay_energy(1e-3, 2, 2, 5.0, [50.0, 100.0], 10e3)
    assert underlay["count"] == 2, underlay
    pattern = client.interweave_pattern(
        (0.0, 0.0), (15.0, 0.0), 30.0, (40.0, 40.0), pr=(100.0, 0.0)
    )
    assert len(pattern["amplitudes"]) == 1, pattern
    try:
        client.ebar(0.001, 99, 2, 2)
    except ServiceClientError as exc:
        assert exc.status == 404, exc
    else:
        raise AssertionError("off-grid b should be 404")
    metrics = client.metrics_snapshot()
    assert metrics["requests_total"] >= 6, metrics


def check_cached_bodies(conn: http.client.HTTPConnection, client: ServiceClient) -> None:
    hits_before = client.metrics_snapshot()["result_cache"]["hits"]
    for name, path, body, headers in CACHEABLE:
        first = raw_exchange(conn, path, body, headers)
        assert first.startswith(b"HTTP/1.1 200 OK\r\n"), (name, first[:300])
        repeat = raw_exchange(conn, path, body, headers)
        assert repeat == first, f"{name}: the cached answer differs from the fresh one"
    hits = client.metrics_snapshot()["result_cache"]["hits"] - hits_before
    assert hits == len(CACHEABLE), f"{hits} result_cache hits for {len(CACHEABLE)} repeats"


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from each ``/proc/<pid>/stat``."""
    parent_of: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                stat = pathlib.Path(f"/proc/{name}/stat").read_text()
            except OSError:  # exited between the listing and the read
                continue
            parent_of[int(name)] = int(stat[stat.rindex(")") + 2 :].split()[1])
    tree = [root]
    for pid in tree:  # the list grows while it is walked: breadth first
        tree.extend(child for child, parent in parent_of.items() if parent == pid)
    return tree


def check_process_tree(pid: int, boot_s: float) -> None:
    """No process of the tree maps scipy; report boot time and Σ VmRSS."""
    if not os.path.isdir("/proc"):
        print("service smoke: no /proc here, process-tree check skipped")
        return
    tree = process_tree(pid)
    rss_kb = 0
    for member in tree:
        try:
            maps = pathlib.Path(f"/proc/{member}/maps").read_text()
            status = pathlib.Path(f"/proc/{member}/status").read_text()
        except OSError:  # exited since the listing
            continue
        mapped = sorted({line.split()[-1] for line in maps.splitlines()
                         if "/scipy/" in line})
        assert not mapped, f"pid {member} maps scipy files: {mapped[:3]}"
        rss_kb += sum(int(line.split()[1]) for line in status.splitlines()
                      if line.startswith("VmRSS:"))
    print(f"service smoke: boot to listening {boot_s:.3f} s, "
          f"{len(tree)} processes, sum VmRSS {rss_kb / 1024.0:.1f} MiB")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(pathlib.Path(scratch) / "cache")
        env.pop("REPRO_NO_CACHE", None)
        log_path = pathlib.Path(scratch) / "server.log"
        started = time.perf_counter()  # lint: ignore[RP103]
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service",
                    "--port",
                    "0",
                    "--workers",
                    "1",
                    "--coalesce-ms",
                    "1",
                    "--seed",
                    "7",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                cwd=REPO_ROOT,
                env=env,
            )
        conn: Optional[http.client.HTTPConnection] = None
        try:
            assert proc.stdout is not None
            announced = json.loads(proc.stdout.readline())
            boot_s = time.perf_counter() - started  # lint: ignore[RP103]
            assert announced["event"] == "listening", announced
            host, port = announced["host"], announced["port"]
            client = ServiceClient(host, port, timeout_s=60.0)
            check_endpoints(client)
            conn = http.client.HTTPConnection(host, port, timeout=60.0)
            check_cached_bodies(conn, client)
            check_process_tree(proc.pid, boot_s)
            # Leave the keep-alive connection open and idle across SIGTERM.
            raw_exchange(conn, "/v1/ebar", {"p": 1e-3, "b": 2, "mt": 2, "mr": 2}, {})

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0, f"expected clean exit, got {code}"
        finally:
            if conn is not None:
                conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        stderr = log_path.read_text()
        assert "Traceback" not in stderr, stderr
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
