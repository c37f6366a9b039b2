"""Persistent request-hash result cache for the planning service.

Planning responses are pure functions of the request body (the kernels are
deterministic and every stochastic environment is pinned to an explicit
seed before dispatch), so a repeated request — tomorrow, or from another
shard — can be answered straight from disk.  :class:`ResultCache` keys
successful POST responses by the SHA-256 digest of the *canonical JSON*
encoding of ``(endpoint, parsed body)``: key order and whitespace never
matter, float literals round-trip exactly, so two byte-different requests
describing the same plan share one entry and the cached payload is
bit-identical to a fresh computation.

Entries are JSON files published with the same atomic tmp-then-rename
machinery as the ē_b table cache (:func:`repro.utils.fsio.atomic_write_bytes`),
fanned out over 256 two-hex-digit subdirectories so a long-lived cache
never piles every entry into one directory.  A corrupt or unreadable entry
is a silent miss.  The cache directory is versioned
(``results-v{VERSION}``), so a change to the payload contract simply
abandons old entries instead of serving them.

Caching is opt-in per server (``ServiceConfig.result_cache``; the CLI
daemon enables it) and ``REPRO_NO_CACHE=1`` force-disables it everywhere —
the same escape hatch the table cache honours.  Requests whose responses
are *not* pure functions of the body (an interweave request asking the
service to draw a fresh environment seed) are never cached; see
:meth:`cache_key`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, Optional, Union

from repro.energy.table import default_cache_dir
from repro.utils.fsio import atomic_write_bytes

__all__ = ["ResultCache", "RESULT_CACHE_VERSION", "canonical_digest"]

#: Bump when the response payload contract changes; old entries are ignored.
#: 2: the long-haul gain squares with one multiply, which moved some
#: served overlay floats by 1 ULP.
RESULT_CACHE_VERSION = 2

Payload = Dict[str, object]


def canonical_digest(endpoint: str, body: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of one request.

    Canonical means ``sort_keys=True`` with no whitespace, so semantically
    identical bodies hash identically regardless of key order or client
    formatting.  ``body`` must already be parsed JSON (the service hashes
    the parsed object, not the raw bytes, for exactly this reason).
    """
    blob = json.dumps(
        {"endpoint": endpoint, "body": body},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "0") not in ("", "0")


class ResultCache:
    """Disk-backed response cache keyed by canonical request digests."""

    def __init__(
        self, cache_dir: Union[str, pathlib.Path, None] = None
    ) -> None:
        base = (
            pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self._dir = base / f"results-v{RESULT_CACHE_VERSION}"
        self._enabled = not _disabled_by_env()

    @property
    def enabled(self) -> bool:
        """False when ``REPRO_NO_CACHE`` disabled the cache at construction."""
        return self._enabled

    @property
    def directory(self) -> pathlib.Path:
        """The versioned directory entries live under."""
        return self._dir

    def _path(self, digest: str) -> pathlib.Path:
        return self._dir / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Payload]:
        """The cached payload for ``digest``, or None on any kind of miss."""
        if not self._enabled:
            return None
        try:
            blob = self._path(digest).read_bytes()
        except OSError:
            return None
        try:
            entry = json.loads(blob)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None  # torn/corrupt entry: recompute and overwrite
        if not isinstance(entry, dict):
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        return payload

    def put(self, digest: str, payload: Payload) -> bool:
        """Atomically publish ``payload`` under ``digest``.

        Returns False (and caches nothing) when disabled or the directory
        is unwritable — the in-memory response is still served normally.
        """
        if not self._enabled:
            return False
        blob = json.dumps(
            {"v": RESULT_CACHE_VERSION, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return atomic_write_bytes(self._path(digest), blob)
