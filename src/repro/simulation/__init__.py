"""Discrete-event simulation kernel.

`HeapKernel` (in `repro.simulation.kernel`) is the integer-id event
scheduler behind the `repro.scenario` runtime (see `docs/simulation.md`);
`repro.simulation.workloads` holds the seeded churn workloads the
benchmarks and tests drive it with.
"""

from repro.simulation.kernel import HeapKernel

__all__ = ["HeapKernel"]
