"""Persistent request-hash result cache: unit and end-to-end behaviour."""

import json

import pytest

from repro.service import (
    ResultCache,
    ServiceClientError,
    ServiceConfig,
    ThreadedServer,
    canonical_digest,
    work,
)
from repro.service.rescache import RESULT_CACHE_VERSION, default_cache_dir
from repro.service.schemas import UnderlayRequest

DISTANCES = [2.0, 4.0, 8.0]
UNDERLAY_ARGS = dict(p=1e-3, mt=2, mr=2, d=5.0, bandwidth=10e3)
INTERWEAVE_ARGS = dict(
    st1=(0.0, 0.0), st2=(1.0, 0.0), wavelength=0.125, delta=0.25
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Force caching on (CI exports REPRO_NO_CACHE=1) and into tmp dirs."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    yield


def _config(tmp_path, **overrides):
    settings = dict(
        port=0,
        workers=0,
        result_cache=True,
        result_cache_dir=str(tmp_path / "results"),
        request_log=False,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _underlay_direct():
    return work.underlay_rows(
        UnderlayRequest(distances=tuple(DISTANCES), **UNDERLAY_ARGS)
    )


def _entry_files(tmp_path):
    return list((tmp_path / "results").rglob("*.json"))


class TestCanonicalDigest:
    def test_key_order_and_whitespace_do_not_matter(self):
        a = json.loads('{"p": 0.001, "b": 2, "mt": 2, "mr": 2}')
        b = json.loads('{ "mr":2,"mt":2,  "b":2, "p":1e-3 }')
        assert canonical_digest("/v1/ebar", a) == canonical_digest("/v1/ebar", b)

    def test_different_bodies_and_endpoints_differ(self):
        body = {"p": 0.001, "b": 2}
        assert canonical_digest("/v1/ebar", body) != canonical_digest(
            "/v1/ebar", {"p": 0.001, "b": 4}
        )
        assert canonical_digest("/v1/ebar", body) != canonical_digest(
            "/v1/overlay/feasible", body
        )


class TestDefaultCacheDir:
    def test_repro_cache_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "explicit"

    def test_xdg_cache_home_respected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-comimo"
        assert ResultCache().directory.parent == default_cache_dir()

    def test_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "repro-comimo"


class TestResultCacheUnit:
    def test_roundtrip_in_versioned_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = canonical_digest("/v1/ebar", {"p": 0.001})
        assert cache.get(digest) is None
        assert cache.put(digest, b'{"b": 2, "e_bar": 1.5}') is True
        assert cache.get(digest) == b'{"b": 2, "e_bar": 1.5}'
        (entry,) = tmp_path.rglob("*.json")
        assert entry.parent.parent.name == f"results-v{RESULT_CACHE_VERSION}"
        assert entry.parent.name == digest[:2]
        assert entry.stem == digest

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = canonical_digest("/v1/ebar", {"p": 0.001})
        cache.put(digest, b'{"e_bar": 1.5}')
        (entry,) = tmp_path.rglob("*.json")
        entry.write_text("not json {")
        assert cache.get(digest) is None

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda blob: blob[:-3], id="truncated-body"),
            pytest.param(
                lambda blob: blob[:-2] + bytes([blob[-2] ^ 0x01]) + blob[-1:],
                id="flipped-body-byte",
            ),
            pytest.param(
                lambda blob: blob.replace(
                    b'"v":%d' % RESULT_CACHE_VERSION,
                    b'"v":%d' % (RESULT_CACHE_VERSION - 1),
                ),
                id="wrong-version",
            ),
            pytest.param(lambda blob: blob.partition(b"\n")[0], id="header-no-body"),
            pytest.param(
                lambda blob: blob.partition(b"\n")[0] + b"\n", id="header-empty-body"
            ),
            pytest.param(lambda blob: b"", id="empty-file"),
            pytest.param(lambda blob: b"not json {", id="not-json"),
        ],
    )
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        digest = canonical_digest("/v1/ebar", {"p": 0.001})
        body = b'{"b": 2, "e_bar": 1.5, "p": 0.001}'
        cache.put(digest, body)
        (entry,) = tmp_path.rglob("*.json")
        blob = entry.read_bytes()
        assert blob.endswith(b"\n" + body)
        assert cache.get(digest) == body
        entry.write_bytes(damage(blob))
        assert entry.read_bytes() != blob
        assert cache.get(digest) is None

    def test_repro_no_cache_disables_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        digest = canonical_digest("/v1/ebar", {"p": 0.001})
        assert cache.enabled is False
        assert cache.put(digest, b'{"e_bar": 1.5}') is False
        assert cache.get(digest) is None
        assert not list(tmp_path.rglob("*.json"))


class TestServiceResultCache:
    def test_repeat_request_is_a_hit_and_bit_identical(self, tmp_path):
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            first = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            second = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            counters = client.metrics_snapshot()["result_cache"]
        assert counters == {"hits": 1, "misses": 1}
        assert first == second
        assert first["rows"] == _underlay_direct()

    def test_cache_persists_across_server_instances(self, tmp_path):
        with ThreadedServer(_config(tmp_path)) as server:
            cold = server.client().underlay_energy(
                distance=DISTANCES, **UNDERLAY_ARGS
            )
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            warm = client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            counters = client.metrics_snapshot()["result_cache"]
        assert counters == {"hits": 1, "misses": 0}
        assert warm == cold

    def test_stream_after_a_cut_is_a_byte_identical_hit(self, tmp_path):
        body = dict(distance=[30.0, 30.5, 31.0, 31.5, 32.0, 32.5], **UNDERLAY_ARGS)
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            baseline = list(client.request_stream("POST", "/v1/underlay/energy", body))
            assert baseline[-1] == {"done": True, "count": len(baseline) - 1}
            server.service.faults.arm_truncate_stream(
                1, after_rows=1, paths=("/v1/underlay/energy",)
            )
            with pytest.raises(ServiceClientError) as excinfo:
                list(client.request_stream("POST", "/v1/underlay/energy", body))
            assert excinfo.value.status == 599
            hits_before = client.metrics_snapshot()["result_cache"]["hits"]
            replayed = list(client.request_stream("POST", "/v1/underlay/energy", body))
            hits_after = client.metrics_snapshot()["result_cache"]["hits"]
        assert json.dumps(replayed, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )
        assert hits_after == hits_before + 1

    def test_unseeded_stochastic_interweave_bypasses_the_cache(self, tmp_path):
        with ThreadedServer(_config(tmp_path, seed=42)) as server:
            client = server.client()
            first = client.interweave_pattern(
                point=(5.0, 5.0),
                environment={"n_scatterers": 4},
                **INTERWEAVE_ARGS,
            )
            second = client.interweave_pattern(
                point=(5.0, 5.0),
                environment={"n_scatterers": 4},
                **INTERWEAVE_ARGS,
            )
            counters = client.metrics_snapshot()["result_cache"]
        # Each request drew its own fresh environment seed; replaying a
        # cached response would have frozen the first one forever.
        assert counters == {"hits": 0, "misses": 0}
        assert first["seed_used"] != second["seed_used"]
        assert not _entry_files(tmp_path)

    def test_seeded_interweave_is_cached(self, tmp_path):
        environment = {"n_scatterers": 4, "seed": 7}
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            first = client.interweave_pattern(
                point=(5.0, 5.0), environment=environment, **INTERWEAVE_ARGS
            )
            second = client.interweave_pattern(
                point=(5.0, 5.0), environment=environment, **INTERWEAVE_ARGS
            )
            counters = client.metrics_snapshot()["result_cache"]
        assert counters == {"hits": 1, "misses": 1}
        assert first == second
        assert first["seed_used"] == 7

    def test_failed_requests_are_not_cached(self, tmp_path):
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            with pytest.raises(ServiceClientError) as excinfo:
                client.underlay_energy(
                    distance=DISTANCES,
                    p=-0.5,
                    mt=2,
                    mr=2,
                    d=5.0,
                    bandwidth=10e3,
                )
            assert excinfo.value.status == 400
        assert not _entry_files(tmp_path)

    def test_result_cache_off_by_default_in_config(self, tmp_path):
        config = ServiceConfig(
            port=0,
            workers=0,
            request_log=False,
            result_cache_dir=str(tmp_path / "results"),
        )
        with ThreadedServer(config) as server:
            client = server.client()
            client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            counters = client.metrics_snapshot()["result_cache"]
        assert counters == {"hits": 0, "misses": 0}
        assert not _entry_files(tmp_path)

    def test_repro_no_cache_beats_the_config_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with ThreadedServer(_config(tmp_path)) as server:
            client = server.client()
            client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            client.underlay_energy(distance=DISTANCES, **UNDERLAY_ARGS)
            counters = client.metrics_snapshot()["result_cache"]
        assert counters == {"hits": 0, "misses": 0}
        assert not _entry_files(tmp_path)
