"""Random-number-generator plumbing.

Every stochastic entry point in this library accepts an ``rng`` argument that
may be ``None`` (fresh entropy), an integer seed, or an existing
:class:`numpy.random.Generator`.  Funnelling construction through
:func:`as_rng` keeps experiments reproducible: the experiment harness passes
explicit seeds so that every table in EXPERIMENTS.md regenerates bit-for-bit.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = [
    "MAX_SEED",
    "as_rng",
    "keyed_seed_sequence",
    "spawn_rngs",
    "spawn_seed_sequences",
]

#: The largest seed a declarative spec accepts: any unsigned 64-bit
#: integer.  ``SeedSequence`` takes larger ones, but a reader that holds
#: a seed in a ``uint64`` does not.
MAX_SEED = 2**64 - 1


def as_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        already-constructed ``Generator`` (returned unchanged so that callers
        can thread one generator through a pipeline).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be None, int, SeedSequence or numpy Generator, got {type(rng)!r}"
    )


def spawn_rngs(rng: RngLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Used by parallel Monte-Carlo sweeps (e.g. one stream per channel
    realization batch) so that changing the number of workers does not change
    any individual stream.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    base = as_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def keyed_seed_sequence(*keys: int) -> np.random.SeedSequence:
    """A :class:`numpy.random.SeedSequence` keyed by an entropy tuple.

    Stateless counterpart of :func:`spawn_seed_sequences` for streams
    addressed by *content* rather than position: ``(seed, k)`` always
    yields the same sequence, with no parent object whose spawn counter
    could drift between callers (e.g. the load generator's per-request
    retry-jitter streams, keyed by ``(spec seed, request index)``).
    """
    if not keys:
        raise ValueError("need at least one entropy key")
    for key in keys:
        if not isinstance(key, (int, np.integer)):
            raise TypeError(f"entropy keys must be ints, got {type(key)!r}")
    return np.random.SeedSequence(entropy=[int(key) for key in keys])


def spawn_seed_sequences(
    seed: Union[int, np.random.SeedSequence], n: int
) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent :class:`numpy.random.SeedSequence` children.

    The picklable counterpart of :func:`spawn_rngs`: process-parallel sweeps
    ship each child (or a state word derived from it) to a worker, so serial
    and parallel runs see identical per-task seeds.  The derivation depends
    only on ``seed`` and the child's position — not on scheduling.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    base = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return list(base.spawn(n))
