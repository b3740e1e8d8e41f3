"""W-random graphs and empirical density convergence.

A sample draws n block indices by weight and then flips one coin per node
pair with the block-pair value as edge probability. Coins are positioned,
not sequential: the pair (i, j), i < j, always consumes variate
j*(j-1)/2 + i of its stream, and vertex i always consumes variate i, so
the graph on n nodes is an induced subgraph of the graph on n' > n nodes
drawn from the same seed. The convergence experiment leans on that
nesting: it draws each replication once, at the largest size, and reads
every size as the leading block of that one adjacency matrix.

A sample is an n x n uint8 adjacency matrix. The draw puts the coins into
the strict lower triangle of an n x n table, compares it once with the
thresholds of the block pairs and mirrors the result. `sample_wrandom` builds
a graph object from the matrix, `serialize_sample` (the `sample` command)
writes the graph file from it directly, and the convergence experiment counts
homomorphisms on it. The arrays of one draw, about 18 n^2 bytes at their
peak, must fit MAX_SAMPLE_BYTES.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .density import adjacency_density, density_exact
from .graphons import StepGraphon
from .graphs import LabeledMultigraph, are_isomorphic, format_edge_list, multigraph, unlabel
from .rational import format_float
from .streams import (
    DOMAIN_CHILD_SEEDS,
    DOMAIN_SAMPLE_EDGES,
    DOMAIN_SAMPLE_NODES,
    RESOLUTION,
    draw_blocks,
    philox_stream,
    probability_threshold,
    weight_thresholds,
)

# budget for the arrays of one sample; _sample_bytes predicts their peak
MAX_SAMPLE_BYTES = 1 << 30
_BYTES_PER_CELL = 18


def _sample_bytes(n: int) -> int:
    """Predicted peak bytes of drawing an n-node sample: at the comparison,
    n x n tables of uint64 coins and uint64 thresholds and two n x n boolean
    masks are alive."""
    return _BYTES_PER_CELL * n * n


def _thresholds(graphon: StepGraphon, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The block thresholds and the uint64 table of edge thresholds for
    n-node samples of a graphon whose values must be edge probabilities.

    The range is checked on the integer value table; only a failure rescans
    the values, in row-major order, to name the first one outside [0,1].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    need = _sample_bytes(n)
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"a sample on {n} nodes needs about {need} bytes, "
            f"over the budget of {MAX_SAMPLE_BYTES} bytes"
        )
    _, _, q, nv = graphon.integer_tables
    if not (0 <= nv.min() and nv.max() <= q):
        for row in graphon.values:
            for v in row:
                if v < 0 or v > 1:
                    raise ValueError(f"value {v} outside [0,1] cannot be an edge probability")
    edges = [[probability_threshold(v) for v in row] for row in graphon.values]
    return weight_thresholds(graphon.weights), np.array(edges, dtype=np.uint64)


def _draw_adjacency(thresholds: tuple[np.ndarray, np.ndarray], n: int, seed: int) -> np.ndarray:
    """Symmetric n x n uint8 adjacency of the W-random graph of (n, seed),
    drawn with the graphon's _thresholds for n nodes.

    The coins fill the strict lower triangle of an n x n table in row-major
    order, which puts coin j*(j-1)/2 + i at (j, i); one comparison with the
    thresholds of the block pairs decides every edge, and the result is
    mirrored.
    """
    node_thresh, edge_thresh = thresholds
    blocks = draw_blocks(philox_stream(seed, DOMAIN_SAMPLE_NODES), node_thresh, n)
    lower = np.tri(n, n, -1, dtype=bool)
    coins = np.zeros((n, n), dtype=np.uint64)
    coins[lower] = philox_stream(seed, DOMAIN_SAMPLE_EDGES).integers(
        0, RESOLUTION, size=n * (n - 1) // 2, dtype=np.uint64
    )
    edges = coins < edge_thresh[blocks][:, blocks]
    del coins
    edges &= lower
    return (edges | edges.T).view(np.uint8)


def _sample_adjacency(graphon: StepGraphon, n: int, seed: int) -> np.ndarray:
    """Symmetric n x n uint8 adjacency of the W-random graph of (n, seed)."""
    return _draw_adjacency(_thresholds(graphon, n), n, seed)


def _sample_edges(graphon: StepGraphon, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v), u < v, of the sample's edges in lexicographic
    order: the row-major positions of the upper triangle's ones."""
    upper = _sample_adjacency(graphon, n, seed).view(bool) & ~np.tri(n, n, 0, dtype=bool)
    return np.divmod(np.flatnonzero(upper), n)


def sample_wrandom(graphon: StepGraphon, n: int, seed: int) -> LabeledMultigraph:
    """Simple graph on n nodes with independent edges of block-pair probability.

    Deterministic per (graphon, n, seed); growing n extends the sample
    instead of reshuffling it.
    """
    rows, cols = _sample_edges(graphon, n, seed)
    return LabeledMultigraph(n, tuple(zip(rows.tolist(), cols.tolist(), repeat(1))))


def serialize_sample(graphon: StepGraphon, n: int, seed: int) -> str:
    """serialize_graph(sample_wrandom(graphon, n, seed)), written from the
    adjacency without building a graph object."""
    return format_edge_list(n, *_sample_edges(graphon, n, seed))


@dataclass(frozen=True)
class SizeStats:
    n: int
    rep_count: int
    median_err: Fraction
    max_err: Fraction

    def __post_init__(self) -> None:
        if self.rep_count < 1:
            raise ValueError("rep_count must be at least 1")
        if self.median_err < 0 or self.max_err < 0:
            raise ValueError("deviations are absolute values")


@dataclass(frozen=True)
class ConvergenceReport:
    motif: LabeledMultigraph
    target: Fraction
    stats: tuple[SizeStats, ...]

    def medians(self) -> list[Fraction]:
        return [s.median_err for s in self.stats]

    def monotone_decreasing(self) -> bool:
        meds = self.medians()
        return all(a >= b for a, b in zip(meds, meds[1:]))


def convergence_experiment(
    graphon: StepGraphon,
    motif: LabeledMultigraph,
    sizes: list[int],
    reps: int,
    seed: int,
) -> ConvergenceReport:
    """Median and max |t(F, G_n) - t(F, H)| over reps samples per size.

    Replication r is drawn once, from one child seed, at max(sizes), and
    size n reads the leading n x n block of that adjacency, which is the
    n-node sample of the same seed. Its samples therefore form a nested
    family: a replication's errors at different sizes are
    correlated rather than resampled independently. The errors shrink in
    expectation (for K2 on the bipartite kernel the mean error is exactly
    1/(2n)), but neither a replication's error nor the median is promised
    to fall at each step; a 50-node split of 25/25 already has error 0.
    """
    if not motif.is_simple or not motif.is_unlabeled:
        raise ValueError("motif must be a simple unlabeled graph")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not sizes:
        raise ValueError("at least one size is required")
    for n in sizes:
        if n < motif.node_count:
            raise ValueError(f"size {n} is smaller than the motif ({motif.node_count})")
    target = density_exact(motif, graphon)
    child_seeds = [
        int(s)
        for s in philox_stream(seed, DOMAIN_CHILD_SEEDS).integers(
            0, RESOLUTION, size=reps, dtype=np.uint64
        )
    ]
    errs: list[list[Fraction]] = [[] for _ in sizes]
    top = max(sizes)
    thresholds = _thresholds(graphon, top)
    for child in child_seeds:
        adjacency = _draw_adjacency(thresholds, top, child)
        for errs_at, n in zip(errs, sizes):
            errs_at.append(abs(adjacency_density(motif, adjacency[:n, :n]) - target))
    stats = tuple(
        SizeStats(n, reps, statistics.median(errs_at), max(errs_at))
        for n, errs_at in zip(sizes, errs)
    )
    return ConvergenceReport(motif, target, stats)


def describe_graph(graph: LabeledMultigraph) -> str:
    """Short conventional name: K/C/P/S families, else a size signature."""
    n = graph.node_count
    degs = sorted(
        sum(m for _, m in graph.adjacency()[x].items()) for x in range(n)
    )
    m = graph.total_multiplicity
    if graph.is_simple:
        if m == n * (n - 1) // 2:
            return f"K{n}"
        ring = [(x, (x + 1) % n) for x in range(n)]
        if n >= 3 and m == n and are_isomorphic(unlabel(graph), multigraph(n, ring)):
            return f"C{n}"
        if n >= 2 and m == n - 1 and degs == [1, 1] + [2] * (n - 2):
            return f"P{n}"
        if n >= 3 and m == n - 1 and degs == [1] * (n - 1) + [n - 1]:
            return f"S{n}"
    return f"g{n}n{m}e"


def to_csv(report: ConvergenceReport) -> str:
    """CSV rows motif,n,rep_count,median_err,max_err with 12-digit floats."""
    lines = ["motif,n,rep_count,median_err,max_err"]
    name = describe_graph(report.motif)
    for s in report.stats:
        lines.append(
            f"{name},{s.n},{s.rep_count},"
            f"{format_float(float(s.median_err))},{format_float(float(s.max_err))}"
        )
    return "\n".join(lines) + "\n"
