"""repro.service — asyncio planning service over the reproduction library.

A stdlib-only HTTP/JSON front end for the paper's three paradigms:

* ``POST /v1/ebar`` — ``e_bar_b`` lookups (coalesced table reads, or exact
  re-solves in the worker pool);
* ``POST /v1/overlay/feasible`` — Algorithm 1 relay feasibility (Figure 6);
* ``POST /v1/underlay/energy`` — Algorithm 2 PA-energy accounting (Figure 7);
* ``POST /v1/interweave/pattern`` — Algorithm 3 null-steered beam patterns
  (Table 1 / Figure 8);
* ``GET /healthz`` and ``GET /metrics``.

Concurrent single-point requests are merged by a request-coalescing
scheduler into one batch-kernel call (bit-identical to the scalar path);
heavy sweeps run in a bounded process pool with 429 backpressure.
:class:`ServiceClient` makes one attempt per call; retrying is the load
generator's job (:class:`repro.loadgen.spec.ClientPolicy`).  See
``docs/serving.md``.
"""

from repro.service.app import ENDPOINTS, PlanningService
from repro.service.client import (
    TRANSPORT_FAILURE_STATUS,
    ServiceClient,
    ServiceClientError,
)
from repro.service.coalescer import Coalescer
from repro.service.config import DEFAULT_PORT, ServiceConfig
from repro.service.errors import (
    BadRequestError,
    DeadlineExceededError,
    MethodNotAllowedError,
    NotFoundError,
    OverloadedError,
    PayloadTooLargeError,
    ServiceError,
)
from repro.service.faults import FaultInjector
from repro.service.metrics import LatencyHistogram, Metrics
from repro.service.pool import RestartBudget, WorkerPool
from repro.service.rescache import ResultCache, canonical_digest
from repro.service.server import ServiceServer, serve
from repro.service.shard import ShardSupervisor, aggregate_snapshots
from repro.service.testing import ThreadedServer

__all__ = [
    "ENDPOINTS",
    "PlanningService",
    "ServiceClient",
    "ServiceClientError",
    "TRANSPORT_FAILURE_STATUS",
    "Coalescer",
    "DEFAULT_PORT",
    "ServiceConfig",
    "BadRequestError",
    "DeadlineExceededError",
    "MethodNotAllowedError",
    "NotFoundError",
    "OverloadedError",
    "PayloadTooLargeError",
    "ServiceError",
    "FaultInjector",
    "LatencyHistogram",
    "Metrics",
    "WorkerPool",
    "RestartBudget",
    "ResultCache",
    "canonical_digest",
    "ServiceServer",
    "serve",
    "ShardSupervisor",
    "aggregate_snapshots",
    "ThreadedServer",
]
