"""Named, seeded random-number streams.

Every stochastic component of the simulator draws from its own named stream
derived from the master seed.  This keeps runs reproducible and — more
importantly for experiments — makes components *independently* reproducible:
changing how one component consumes randomness does not perturb the draws
seen by another.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator

import numpy as np

#: Doubles a :func:`uniform_reader` pulls from its generator per refill.
UNIFORM_BLOCK = 1024


def _stream_seed(master_seed: int, name: str) -> np.random.SeedSequence:
    """Derive a child seed sequence from ``master_seed`` and a stream name.

    The name is hashed with SHA-256 so that stream identity depends only on
    the string, never on registration order.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "big")
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(name_key,))


def derive_seed(master_seed: int, name: str) -> int:
    """A deterministic 63-bit child *master* seed for ``(master_seed, name)``.

    Where :func:`_stream_seed` derives one generator inside a simulation,
    this derives the master seed of a whole *sibling* simulation — the
    scenario runner uses it to expand seed sweeps (``job.0``, ``job.1``,
    ...) so that a sweep's membership is a pure function of the base seed,
    identical whether jobs run serially or across a process pool.
    """
    digest = hashlib.sha256(
        f"{int(master_seed)}:{name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngRegistry:
    """Factory for named :class:`numpy.random.Generator` streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("radio")
    >>> b = rngs.stream("radio")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(_stream_seed(self.seed, name))
            self._streams[name] = generator
        return generator

    def reset(self, name: str) -> np.random.Generator:
        """Re-create the stream for ``name`` from its original seed."""
        generator = np.random.default_rng(_stream_seed(self.seed, name))
        self._streams[name] = generator
        return generator

    def derive(self, name: str) -> int:
        """Child master seed for ``name`` (see :func:`derive_seed`)."""
        return derive_seed(self.seed, name)


def uniform_reader(
    generator: np.random.Generator, block: int = UNIFORM_BLOCK
) -> Callable[[], float]:
    """A zero-argument ``generator.random()``, drawn in blocks of ``block``.

    ``Generator.random(n)`` produces the same doubles as ``n`` scalar
    ``Generator.random()`` calls, so the reader returns exactly the floats
    the scalar calls would, in stream order, at a fraction of the per-call
    cost.  Doubles left in a block carry over to later calls; none is
    skipped.

    The reader draws ahead of its callers, so it must be the *only*
    consumer of ``generator``: any other draw from the same generator
    would take doubles the reader has not yet handed out and shift every
    later value.

    >>> draw = uniform_reader(np.random.default_rng(3), block=2)
    >>> scalar = np.random.default_rng(3)
    >>> [draw() for _ in range(5)] == [scalar.random() for _ in range(5)]
    True
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")

    def doubles() -> Iterator[float]:
        while True:
            yield from generator.random(block).tolist()

    return doubles().__next__
