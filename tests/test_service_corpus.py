"""Byte-identity corpus: the raw bytes every route answers, pinned.

Each case sends one raw HTTP request through a :class:`ThreadedServer`
and hashes everything that comes back: status line, headers and body, or
the chunked frames of a stream.  The digests are constants, so any change
to how a response is encoded, cached, replayed or framed — a key order, a
separator, a float repr, a chunk boundary, a header — fails here.

The sequence runs against a fresh result cache, so every cacheable body
is seen twice: once computed and once replayed from the cache, buffered
and streamed.  It runs inline (``workers=0``) and through one pool worker
(``workers=1``) against the same constants.  ``/metrics`` carries latencies, so only its
head (``Content-Length`` masked) and its top-level keys are pinned.
"""

import hashlib
import json
import re
import socket

import pytest

from repro.service.config import ServiceConfig
from repro.service.testing import ThreadedServer

#: The deadline the armed delay below outlasts (the 504 case).
TIMEOUT_MS = 2500.0

EBAR_TABLE = {"p": 1e-3, "b": 2, "mt": 2, "mr": 2}
EBAR_EXACT = {"p": 1e-3, "b": 3, "mt": 2, "mr": 1, "solver": "exact"}
OVERLAY_SCALAR = {"d1": 40.0, "m": 3, "bandwidth": 40e3}
OVERLAY_SWEEP = {
    "d1": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
    "m": 2,
    "bandwidth": 40e3,
}
UNDERLAY_SCALAR = {"p": 1e-3, "mt": 2, "mr": 2, "d": 5.0, "distance": 40.0,
                   "bandwidth": 10e3}
UNDERLAY_SWEEP = {
    "p": 1e-3,
    "mt": 2,
    "mr": 3,
    "d": 5.0,
    "distance": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
    "bandwidth": 10e3,
}
INTERWEAVE_SEEDED = {
    "st1": [0.0, 0.0],
    "st2": [1.0, 0.0],
    "wavelength": 0.125,
    "pr": [3.0, 4.0],
    "points": [[5.0, 5.0], [2.0, -1.0], [0.5, 7.0]],
    "environment": {"n_scatterers": 4, "seed": 11},
}
INTERWEAVE_SCALAR = {
    "st1": [0.0, 0.0],
    "st2": [1.0, 0.0],
    "wavelength": 0.125,
    "delta": 0.25,
    "point": [5.0, 5.0],
}
SIMULATE = {
    "n_nodes": 12,
    "duration_s": 4.0,
    "snapshot_interval_s": 1.0,
    "seed": 5,
    "arena_m": [200.0, 200.0],
}

#: (name, method, path, JSON body or raw bytes or None, streamed)
CASES = [
    ("healthz", "GET", "/healthz", None, False),
    ("ebar-table", "POST", "/v1/ebar", EBAR_TABLE, False),
    ("ebar-table-hit", "POST", "/v1/ebar", EBAR_TABLE, False),
    ("ebar-exact", "POST", "/v1/ebar", EBAR_EXACT, False),
    ("ebar-exact-hit", "POST", "/v1/ebar", EBAR_EXACT, False),
    ("overlay-scalar", "POST", "/v1/overlay/feasible", OVERLAY_SCALAR, False),
    ("overlay-scalar-hit", "POST", "/v1/overlay/feasible", OVERLAY_SCALAR, False),
    ("overlay-stream", "POST", "/v1/overlay/feasible", OVERLAY_SWEEP, True),
    ("overlay-buffered-hit", "POST", "/v1/overlay/feasible", OVERLAY_SWEEP, False),
    ("overlay-stream-hit", "POST", "/v1/overlay/feasible", OVERLAY_SWEEP, True),
    ("underlay-scalar", "POST", "/v1/underlay/energy", UNDERLAY_SCALAR, False),
    ("underlay-scalar-hit", "POST", "/v1/underlay/energy", UNDERLAY_SCALAR, False),
    ("underlay-buffered", "POST", "/v1/underlay/energy", UNDERLAY_SWEEP, False),
    ("underlay-buffered-hit", "POST", "/v1/underlay/energy", UNDERLAY_SWEEP, False),
    ("underlay-stream-hit", "POST", "/v1/underlay/energy", UNDERLAY_SWEEP, True),
    ("interweave-seeded", "POST", "/v1/interweave/pattern", INTERWEAVE_SEEDED, False),
    ("interweave-seeded-hit", "POST", "/v1/interweave/pattern", INTERWEAVE_SEEDED,
     False),
    ("interweave-scalar", "POST", "/v1/interweave/pattern", INTERWEAVE_SCALAR, False),
    ("interweave-scalar-hit", "POST", "/v1/interweave/pattern", INTERWEAVE_SCALAR,
     False),
    ("simulate-buffered", "POST", "/v1/simulate", SIMULATE, False),
    ("simulate-buffered-hit", "POST", "/v1/simulate", SIMULATE, False),
    ("simulate-stream", "POST", "/v1/simulate", SIMULATE, True),
    ("error-400-json", "POST", "/v1/ebar", b"{not json", False),
    ("error-400-value", "POST", "/v1/overlay/feasible", {"d1": -1.0, "m": 2}, False),
    ("error-400-stream", "POST", "/v1/underlay/energy", {"p": 2.0}, True),
    ("error-404-path", "POST", "/v1/nowhere", {}, False),
    ("error-404-grid", "POST", "/v1/ebar", dict(EBAR_TABLE, b=99), False),
    ("error-405", "GET", "/v1/ebar", None, False),
    ("chaos-arm-delay", "POST", "/chaos/faults",
     {"action": "delay", "delay_ms": 2 * TIMEOUT_MS, "path": "/v1/ebar"}, False),
    ("error-504", "POST", "/v1/ebar", dict(EBAR_TABLE, p=1e-2), False),
]

EXPECTED = {
    "healthz": "0c3c6a1e1747f583c6cee68627b07161fb9db981656009367cb1b733186cc8aa",
    "ebar-table": "de8e34895fb96dee4db8916b00834419eaa0d6934492bc248b5f90b3389555b9",
    "ebar-table-hit": "de8e34895fb96dee4db8916b00834419eaa0d6934492bc248b5f90b3389555b9",
    "ebar-exact": "333f8874f94a41b61e7703207f5e930b340b356a5850aaf2e713a2d159ba4f7d",
    "ebar-exact-hit": "333f8874f94a41b61e7703207f5e930b340b356a5850aaf2e713a2d159ba4f7d",
    "overlay-scalar": "de9fcf11e00ddc2e0c6e52d47075932170679a02897440c975f327b6a1412e24",
    "overlay-scalar-hit": "de9fcf11e00ddc2e0c6e52d47075932170679a02897440c975f327b6a1412e24",
    "overlay-stream": "c46ae8ca72302438ce6cbfb7acbc730cdf6343fc0fe75e56b93d3589153590ce",
    "overlay-buffered-hit": "a21a24a5137fcbb739fb259e6a735baf8df3f0421e11003f04e290600fe23de8",
    "overlay-stream-hit": "c46ae8ca72302438ce6cbfb7acbc730cdf6343fc0fe75e56b93d3589153590ce",
    "underlay-scalar": "0973f2bc7454dfa383b48a57957f955de4a29c8d28da3559bec3b9fb3c77b1e4",
    "underlay-scalar-hit": "0973f2bc7454dfa383b48a57957f955de4a29c8d28da3559bec3b9fb3c77b1e4",
    "underlay-buffered": "0c6b354c99a852a7191cfb06e8fe6f4cf7a78ee1a1729492ed346a3ea900db82",
    "underlay-buffered-hit": "0c6b354c99a852a7191cfb06e8fe6f4cf7a78ee1a1729492ed346a3ea900db82",
    "underlay-stream-hit": "b7826891f6a6db18fbc9cec7eeb79214330d0b8cb34bdffceb305905e88d9dcd",
    "interweave-seeded": "7d2137d8f6cbf990859be250950496b42683700e97e06faac35ba0356739b9a3",
    "interweave-seeded-hit": "7d2137d8f6cbf990859be250950496b42683700e97e06faac35ba0356739b9a3",
    "interweave-scalar": "e0ff4e60e26278a973bb024ae06340e9730f90e2b9e822951d3ecfd25920d6f0",
    "interweave-scalar-hit": "e0ff4e60e26278a973bb024ae06340e9730f90e2b9e822951d3ecfd25920d6f0",
    "simulate-buffered": "2f6e807bd4dda445abd89cbf9eeace4de801dc6bc54f4deac8658843d838cd38",
    "simulate-buffered-hit": "2f6e807bd4dda445abd89cbf9eeace4de801dc6bc54f4deac8658843d838cd38",
    "simulate-stream": "cc9bb3ad21c3da67ae51c957bb50729ca046b6df3f1beef678109efa681fd315",
    "error-400-json": "a6650875d638b6bade297fd1eb935b283256b2b3d6cae1ca6775c37a967b5d40",
    "error-400-value": "233b5c1f284bf733df071f6959d1938d3787ef3c5a67e06adc72041ed389f718",
    "error-400-stream": "6ac05bcd068d45a6b94bd8afc7626c7329db18b21e16bb9343ce65c25e7be996",
    "error-404-path": "3f620a1eeb46605bc749931671e801c30f45af4e20eff841ba00eeed7d1887b4",
    "error-404-grid": "6f955de039a444138678d962ac11ff5a63a173e20917d47af321dc88117c211b",
    "error-405": "b1d6776a04633e006fa48198d5ca9ca83d190510889e8f41f2828b49a564a7e1",
    "chaos-arm-delay": "c9f9ec18d1e9d200ce3f07d19f032b1edb480cab28fd5fa95654d920c773e7af",
    "error-504": "9fda4b45756d17891aa40ec986b0a0c353f0931faf6b78892b7914a986d83ad3",
    "error-400-head": "aedbea3bf0168bb5fdc372d0d37bd810741370e990bc569ee03e8819ce057d9a",
    "error-413": "6421fddd86bb2627cf43ae8819d2873179c4edf1c2b31000f1aa931fa8d1e3b1",
    "metrics": "3fa03261093c98fe708855afa26688ba73e86612ccd764dde9703dfb9d547d69",
}


@pytest.fixture(autouse=True)
def cache_on(monkeypatch, tmp_path):
    """Caching must be live here even where CI exports REPRO_NO_CACHE=1."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))


def exchange(port, raw):
    """Send ``raw`` on a fresh connection and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(raw)
        parts = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(parts)
            parts.append(data)


def request_bytes(method, path, body, streamed):
    if body is None:
        blob = b""
    elif isinstance(body, bytes):
        blob = body
    else:
        blob = json.dumps(body).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", "Host: corpus", "Connection: close",
             f"Content-Length: {len(blob)}"]
    if streamed:
        lines.append("Accept: application/x-ndjson")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob


def metrics_shape(raw):
    """The head (length masked) and top-level keys of a /metrics reply."""
    head, _, body = raw.partition(b"\r\n\r\n")
    head = re.sub(rb"Content-Length: \d+", b"Content-Length: N", head)
    return head + b"\n" + json.dumps(sorted(json.loads(body))).encode("utf-8")


def run_corpus(workers, cache_dir):
    config = ServiceConfig(
        port=0,
        workers=workers,
        seed=2026,
        request_log=False,
        result_cache=True,
        result_cache_dir=str(cache_dir),
        chaos_admin=True,
        request_timeout_ms=TIMEOUT_MS,
    )
    raw = {}
    with ThreadedServer(config) as server:
        for name, method, path, body, streamed in CASES:
            raw[name] = exchange(server.port, request_bytes(method, path, body, streamed))
        raw["error-400-head"] = exchange(server.port, b"BROKEN\r\n\r\n")
        raw["error-413"] = exchange(
            server.port,
            b"POST /v1/ebar HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        )
        raw["metrics"] = metrics_shape(
            exchange(server.port, request_bytes("GET", "/metrics", None, False))
        )
    return raw


@pytest.mark.parametrize("workers", [0, 1])
def test_raw_responses_match_the_pinned_corpus(workers, tmp_path):
    raw = run_corpus(workers, tmp_path / "results")
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in raw.items()}
    mismatched = {
        name: raw[name][:400] for name in EXPECTED if digests.get(name) != EXPECTED[name]
    }
    assert not mismatched, mismatched
    assert set(digests) == set(EXPECTED)


def test_every_cached_body_is_replayed_unchanged(tmp_path):
    """A hit answers exactly the bytes of its fresh computation."""
    raw = run_corpus(0, tmp_path / "results")
    for fresh, hit in (
        ("ebar-table", "ebar-table-hit"),
        ("ebar-exact", "ebar-exact-hit"),
        ("overlay-scalar", "overlay-scalar-hit"),
        ("overlay-stream", "overlay-stream-hit"),
        ("underlay-scalar", "underlay-scalar-hit"),
        ("underlay-buffered", "underlay-buffered-hit"),
        ("interweave-seeded", "interweave-seeded-hit"),
        ("interweave-scalar", "interweave-scalar-hit"),
        ("simulate-buffered", "simulate-buffered-hit"),
    ):
        assert raw[fresh] == raw[hit], fresh
