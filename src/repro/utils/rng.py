"""Reproducible random-number-generator management.

Every stochastic component of the library (the Table II parameter sampler,
the simulated-annealing engine, the erosion dynamics, the gossip protocol)
receives a :class:`numpy.random.Generator`.  The helpers here normalise the
many ways a caller may specify randomness (``None``, an integer seed, an
existing generator) and provide deterministic derivation of independent
child generators, which is essential for running per-PE stochastic code in
a reproducible SPMD simulation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["SeedLike", "ensure_rng", "derive_rng"]

#: Accepted ways of specifying a source of randomness.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator usable by library components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator, got {type(seed)!r}"
    )


def derive_rng(rng: np.random.Generator, *keys: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and integer keys.

    The derivation is deterministic: the same parent state and keys always
    produce the same child stream.  This is used to give each processing
    element of the virtual cluster its own stream (``derive_rng(rng, rank)``)
    or each experiment repetition its own stream without consuming the parent
    stream in an order-dependent way.
    """
    if not keys:
        raise ValueError("derive_rng requires at least one integer key")
    # Use the parent bit generator's seed sequence when available so that the
    # parent stream itself is left untouched.
    parent_ss = getattr(rng.bit_generator, "seed_seq", None)
    if parent_ss is None:  # pragma: no cover - defensive, numpy always sets it
        parent_ss = np.random.SeedSequence(int(rng.integers(0, 2**63 - 1)))
    child = np.random.SeedSequence(
        entropy=parent_ss.entropy,
        spawn_key=tuple(parent_ss.spawn_key) + tuple(int(k) for k in keys),
    )
    return np.random.default_rng(child)
