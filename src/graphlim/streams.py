"""Seeded Philox streams and exact-threshold categorical draws.

Every random path in the package pulls from Philox (counter based, 64-bit,
platform independent) through `philox_stream`. The key is the pair
(seed, domain): the seed as the first 64-bit word and the domain in the top
bits of the second, so distinct uses of one user seed never collide, and
any single variate can be located without generating its predecessors.

Stream-splitting rule, documented for reproducibility:
  - Monte Carlo density: stream (seed, DOMAIN_MC_COORDS); the coordinate of
    node i in sample s is variate number s*k + i, k = node count.
  - W-random nodes: stream (seed, DOMAIN_SAMPLE_NODES); the block of vertex
    i is decided by variate number i, so vertex sequences for different n
    and one seed are prefixes of each other.
  - W-random edges: stream (seed, DOMAIN_SAMPLE_EDGES); the coin for the
    pair (i, j), i < j, is variate number j*(j-1)/2 + i. The position
    depends only on (min, max), never on n or generation order.
  - random anchors: stream (seed, DOMAIN_ANCHORS), variate i for anchor i.
  - experiment child seeds: stream (seed, DOMAIN_CHILD_SEEDS), one 64-bit
    integer per replication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

DOMAIN_MC_COORDS = 1
DOMAIN_SAMPLE_NODES = 2
DOMAIN_SAMPLE_EDGES = 3
DOMAIN_ANCHORS = 4
DOMAIN_CHILD_SEEDS = 5

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 56

# categorical draws use 63-bit integers: thresholds fit uint64 even at mass 1
RESOLUTION = 1 << 63


def philox_stream(seed: int, domain: int) -> np.random.Generator:
    """The (seed, domain) stream; equal keys give equal streams."""
    key = np.array([seed & _MASK64, (domain << _INDEX_BITS) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def weight_thresholds(weights: Sequence[Fraction]) -> np.ndarray:
    """Cumulative thresholds floor(c_i * 2^63) for exact categorical sampling.

    A 63-bit uniform r selects the first block with r < threshold. Zero
    weight blocks get empty intervals; exact weights 0 and 1 behave exactly.
    """
    out = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        out.append((acc.numerator << 63) // acc.denominator)
    return np.array(out, dtype=np.uint64)


def draw_blocks(gen: np.random.Generator, thresholds: np.ndarray, count: int) -> np.ndarray:
    r = gen.integers(0, RESOLUTION, size=count, dtype=np.uint64)
    return np.searchsorted(thresholds, r, side="right")


def probability_threshold(p: Fraction) -> int:
    """floor(p * 2^63); an edge coin r fires iff r < threshold."""
    return (p.numerator << 63) // p.denominator
