"""ServiceClient transport-failure mapping and error surface.

The regression at the heart of this file: a request to a port nobody is
listening on must raise :class:`ServiceClientError` (status 599), never a
raw ``urllib``/``socket`` exception.
"""

import socket

import pytest

from repro.service.client import (
    TRANSPORT_FAILURE_STATUS,
    ServiceClient,
    ServiceClientError,
    _parse_retry_after,
)
from repro.service.config import ServiceConfig
from repro.service.testing import ThreadedServer


def _closed_port():
    """An ephemeral port that was bound once and is now closed."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestTransportFailures:
    def test_connection_refused_raises_599_not_urllib_error(self):
        client = ServiceClient("127.0.0.1", _closed_port(), timeout_s=5.0)
        with pytest.raises(ServiceClientError) as err:
            client.healthz()
        assert err.value.status == TRANSPORT_FAILURE_STATUS
        assert err.value.is_transport_failure
        assert "transport failure" in err.value.message

    def test_transport_failure_chains_the_original_exception(self):
        client = ServiceClient("127.0.0.1", _closed_port(), timeout_s=5.0)
        with pytest.raises(ServiceClientError) as err:
            client.request("GET", "/healthz")
        assert err.value.__cause__ is not None


class TestServiceClientError:
    def test_carries_status_message_and_payload(self):
        exc = ServiceClientError(429, "too many", {"detail": "busy"})
        assert exc.status == 429
        assert exc.payload == {"detail": "busy"}
        assert "429" in str(exc)
        assert not exc.is_transport_failure

    def test_retry_after_defaults_to_none(self):
        assert ServiceClientError(503, "unavailable").retry_after_s is None

    def test_negative_retry_after_rejected(self):
        with pytest.raises(ValueError):
            ServiceClientError(503, "unavailable", retry_after_s=-1.0)

    def test_out_of_range_status_rejected(self):
        with pytest.raises(ValueError):
            ServiceClientError(600, "nope")


class TestParseRetryAfter:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("3", 3.0),
            ("  2.5 ", 2.5),
            ("0", 0.0),
            (None, None),
            ("-1", None),
            ("Wed, 21 Oct 2026 07:28:00 GMT", None),
            ("soon", None),
        ],
    )
    def test_delta_seconds_only(self, raw, expected):
        assert _parse_retry_after(raw) == expected


class TestValidation:
    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(port=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(timeout_s=0.0)


class TestBackpressure:
    def test_429_has_retry_after_and_clears_when_the_pool_drains(self):
        config = ServiceConfig(
            port=0,
            workers=0,
            coalesce_ms=0.0,
            request_log=False,
            queue_limit=2,
            retry_after_s=1.0,
        )
        with ThreadedServer(config) as server:
            # Saturate the pool accounting so the next sweep is rejected.
            server.service.pool._inflight = config.queue_limit
            with pytest.raises(ServiceClientError) as err:
                server.client().underlay_energy(
                    1e-3, 2, 2, 5.0, [40.0, 60.0], 10e3
                )
            assert err.value.status == 429
            assert err.value.retry_after_s == 1.0
            assert err.value.payload["status"] == 429

            server.service.pool._inflight = 0
            payload = server.client().underlay_energy(
                1e-3, 2, 2, 5.0, [40.0, 60.0], 10e3
            )
            assert payload["count"] == 2
