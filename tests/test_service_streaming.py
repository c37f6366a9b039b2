"""NDJSON sweep streaming: row parity, opt-in, cache interop, framing."""

import pytest

from repro.service.client import ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.httpio import encode_chunk, encode_ndjson_line, render_stream_head
from repro.service.testing import ThreadedServer

D1 = [float(x) for x in range(60, 140)]  # 80 points
DIST = [float(x) for x in range(10, 50)]  # 40 points


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0,
        workers=0,
        request_log=False,
        result_cache=False,
    )
    with ThreadedServer(config) as srv:
        yield srv


class TestOverlayStreaming:
    def test_rows_match_buffered(self, server):
        client = server.client(timeout_s=60.0)
        buffered = client.overlay_feasible(D1, m=2, bandwidth=10e3)
        rows = list(client.overlay_feasible_stream(D1, m=2, bandwidth=10e3))
        assert rows[-1] == {"done": True, "count": len(D1)}
        assert rows[:-1] == buffered["rows"]

    def test_single_point_stream(self, server):
        client = server.client(timeout_s=60.0)
        rows = list(client.overlay_feasible_stream([100.0], m=2, bandwidth=10e3))
        assert rows[-1] == {"done": True, "count": 1}
        assert len(rows) == 2

    def test_bad_axis_is_clean_400(self, server):
        client = server.client()
        with pytest.raises(ServiceClientError) as err:
            list(client.overlay_feasible_stream([-5.0], m=2, bandwidth=10e3))
        assert err.value.status == 400

    def test_oversize_axis_is_clean_400(self, server):
        client = server.client()
        axis = [float(i + 1) for i in range(5000)]
        with pytest.raises(ServiceClientError) as err:
            list(client.overlay_feasible_stream(axis, m=2, bandwidth=10e3))
        assert err.value.status == 400


class TestUnderlayStreaming:
    def test_rows_match_buffered(self, server):
        client = server.client(timeout_s=60.0)
        buffered = client.underlay_energy(
            p=1e-3, mt=2, mr=2, d=100.0, distance=DIST, bandwidth=10e3
        )
        rows = list(
            client.underlay_energy_stream(
                p=1e-3, mt=2, mr=2, d=100.0, distance=DIST, bandwidth=10e3
            )
        )
        assert rows[-1] == {"done": True, "count": len(DIST)}
        assert rows[:-1] == buffered["rows"]


class TestOptIn:
    def test_plain_accept_stays_buffered(self, server):
        """Without the NDJSON Accept header the endpoint buffers as before."""
        client = server.client(timeout_s=60.0)
        result = client.overlay_feasible(D1, m=2, bandwidth=10e3)
        assert result["count"] == len(D1)

    def test_non_streamable_endpoint_ignores_accept(self, server):
        client = server.client()
        assert not server.service.wants_stream(
            "POST", "/v1/ebar", {"accept": "application/x-ndjson"}
        )
        assert server.service.wants_stream(
            "POST", "/v1/overlay/feasible", {"accept": "application/x-ndjson"}
        )
        assert not server.service.wants_stream(
            "GET", "/v1/overlay/feasible", {"accept": "application/x-ndjson"}
        )
        del client


class TestCacheInterop:
    @pytest.fixture(autouse=True)
    def _cache_on(self, tmp_path, monkeypatch):
        """Force caching on (CI exports REPRO_NO_CACHE=1) and into tmp dirs."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "table-cache"))

    def test_stream_served_from_cache_matches(self, tmp_path):
        config = ServiceConfig(
            port=0,
            workers=0,
            request_log=False,
            result_cache=True,
            result_cache_dir=str(tmp_path),
        )
        with ThreadedServer(config) as srv:
            client = srv.client(timeout_s=60.0)
            fresh = list(client.overlay_feasible_stream(D1, m=2, bandwidth=10e3))
            hits_before = client.metrics_snapshot()["result_cache"]["hits"]
            replay = list(client.overlay_feasible_stream(D1, m=2, bandwidth=10e3))
            hits_after = client.metrics_snapshot()["result_cache"]["hits"]
            assert replay == fresh
            assert hits_after == hits_before + 1

    def test_streamed_fill_serves_buffered_hit(self, tmp_path):
        """A stream-populated cache entry satisfies the buffered endpoint."""
        config = ServiceConfig(
            port=0,
            workers=0,
            request_log=False,
            result_cache=True,
            result_cache_dir=str(tmp_path),
        )
        with ThreadedServer(config) as srv:
            client = srv.client(timeout_s=60.0)
            rows = list(client.overlay_feasible_stream(D1, m=2, bandwidth=10e3))
            buffered = client.overlay_feasible(D1, m=2, bandwidth=10e3)
            assert buffered["rows"] == rows[:-1]
            hits = client.metrics_snapshot()["result_cache"]["hits"]
            assert hits >= 1


class TestFraming:
    def test_stream_head_shape(self):
        head = render_stream_head().decode("latin-1")
        assert head.startswith("HTTP/1.1 200 OK\r\n")
        assert "Transfer-Encoding: chunked" in head
        assert "Connection: close" in head
        assert "Content-Length" not in head

    def test_chunk_roundtrip(self):
        line = encode_ndjson_line({"b": 1, "a": 2})
        assert line == b'{"a": 2, "b": 1}\n'
        chunk = encode_chunk(line)
        assert chunk == b"11\r\n" + line + b"\r\n"

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            encode_chunk(b"")
