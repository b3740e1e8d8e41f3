"""W-random graphs and empirical density convergence.

A sample draws n block indices by weight and then flips one coin per node
pair with the block-pair value as edge probability. Coins are positioned,
not sequential: the pair (i, j), i < j, always consumes variate
j*(j-1)/2 + i of its stream, and vertex i always consumes variate i, so
the graph on n nodes is an induced subgraph of the graph on n' > n nodes
drawn from the same seed. The convergence experiment leans on that
nesting: it draws each replication once, at the largest size, and reads
every size as the leading block of that one adjacency matrix.

The draw compares the coins in their packed order, coin j*(j-1)/2 + i for
the pair (i, j), with the block-pair thresholds gathered in that order, the
row-major order of the strict lower triangle of an n x n table, and
scatters the hits into that triangle once. `serialize_sample` (the `sample`
command) and `sample_wrandom` read the edges from the triangle; the
convergence experiment mirrors it into a symmetric uint8 adjacency matrix
and counts homomorphisms on that. The arrays of one draw, 19 n^2 / 2 bytes
at their peak, must fit MAX_SAMPLE_BYTES.

`serialize_sample` writes the text with `format_edge_list`, which builds it
as one NUL-padded byte table of 2 (w + 1) bytes per edge for w-digit ids
and keeps about three copies of that at its peak. Before the endpoint
arrays are made, the drawn edge count predicts the peak of extracting and
writing them, and that must fit MAX_SAMPLE_BYTES too.
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
    draw_blocks,
    philox_stream,
    variates,
    weight_thresholds,
)

# budget for the arrays of one sample; _sample_bytes predicts their peak,
# and _text_bytes that of its text
MAX_SAMPLE_BYTES = 1 << 30
# peak bytes of a draw per node pair, n^2 / 2 of them: the uint64 coin and
# pair threshold, the boolean hit and two cells of the n x n triangle mask
_BYTES_PER_PAIR = 19
# peak bytes of a sample's text per edge beside the writer's: the int64
# endpoints
_BYTES_PER_EDGE = 16

_Thresholds = tuple[np.ndarray, np.ndarray, np.ndarray]


def _sample_bytes(n: int) -> int:
    """Predicted peak bytes of drawing an n-node sample: at the comparison,
    the n x n boolean triangle mask, the uint64 coins and pair thresholds in
    packed order and the boolean hits are alive, 19 n^2 / 2 bytes."""
    return _BYTES_PER_PAIR * n * n // 2


def _writer_bytes(n: int, edges: int) -> int:
    """Predicted peak bytes of format_edge_list on the endpoints of an
    n-node sample: per edge three copies of its 2 (w + 1)-byte row for
    w-digit ids, or the 20 bytes of the array checks where that is more."""
    return edges * max(20, 6 * (len(str(n - 1)) + 1))


def _text_bytes(n: int, edges: int) -> int:
    """Predicted peak bytes of writing the text of an n-node sample with
    the given edge count: the triangle and its transposed copy, 2 n^2, while
    the endpoints are extracted, then the endpoints and the writer's peak."""
    return 2 * n * n + _BYTES_PER_EDGE * edges + _writer_bytes(n, edges)


def _check_budget(what: str, need: int) -> None:
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{what} needs about {need} bytes, over the budget of {MAX_SAMPLE_BYTES} bytes"
        )


def _thresholds(graphon: StepGraphon, n: int) -> _Thresholds:
    """The block thresholds, the flattened uint64 table of edge thresholds
    and the n x n strict lower triangle mask of n-node samples of a graphon
    whose values must be edge probabilities.

    The range is checked on the integer value table; only a failure rescans
    the values, in row-major order, to name the first one outside [0,1].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_budget(f"a sample on {n} nodes", _sample_bytes(n))
    r, nw, q, nv = graphon.integer_tables
    if not (0 <= nv.min() and nv.max() <= q):
        v = next(v for row in graphon.values for v in row if not 0 <= v <= 1)
        raise ValueError(f"value {v} outside [0,1] cannot be an edge probability")
    # floor(v * 2^63): an edge coin fires iff it is below its threshold
    edge_thresh = ((nv.ravel() << 63) // q).astype(np.uint64)
    return weight_thresholds(r, nw), edge_thresh, np.tri(n, n, -1, dtype=bool)


def _draw_triangle(thresholds: _Thresholds, n: int, seed: int) -> np.ndarray:
    """n x n boolean table of the W-random graph of (n, seed), drawn with the
    graphon's _thresholds for n nodes: (j, i) holds the edge {i, j} for
    i < j, and the diagonal and upper triangle are False.

    The strict lower triangle in row-major order is the packed coin order,
    coin j*(j-1)/2 + i at (j, i). The thresholds of the block pairs are
    gathered in that order, one comparison decides every edge, and the
    result is scattered into the triangle once.
    """
    node_thresh, edge_thresh, lower = thresholds
    blocks = draw_blocks(philox_stream(seed, DOMAIN_SAMPLE_NODES), node_thresh, n)
    # flat index blocks[j] * B + blocks[i] of the pair at (j, i), packed
    pairs = np.repeat(blocks * len(node_thresh), np.arange(n))
    pairs += np.broadcast_to(blocks, (n, n))[lower]
    pair_thresh = edge_thresh.take(pairs)
    del pairs
    hits = variates(philox_stream(seed, DOMAIN_SAMPLE_EDGES), len(pair_thresh)) < pair_thresh
    del pair_thresh
    edges = np.zeros((n, n), dtype=bool)
    edges[lower] = hits
    return edges


def _draw_adjacency(thresholds: _Thresholds, n: int, seed: int) -> np.ndarray:
    """Symmetric n x n uint8 adjacency of the W-random graph of (n, seed):
    the drawn triangle, mirrored."""
    edges = _draw_triangle(thresholds, n, seed)
    return (edges | edges.T).view(np.uint8)


def _sample_adjacency(graphon: StepGraphon, n: int, seed: int) -> np.ndarray:
    """Symmetric n x n uint8 adjacency of the W-random graph of (n, seed)."""
    return _draw_adjacency(_thresholds(graphon, n), n, seed)


def _triangle_edges(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v), u < v, of a drawn triangle's edges in
    lexicographic order: the row-major positions of the ones of the
    transposed triangle."""
    return np.divmod(np.flatnonzero(edges.T), len(edges))


def sample_wrandom(graphon: StepGraphon, n: int, seed: int) -> LabeledMultigraph:
    """Simple graph on n nodes with independent edges of block-pair probability.

    Deterministic per (graphon, n, seed); growing n extends the sample
    instead of reshuffling it.
    """
    rows, cols = _triangle_edges(_draw_triangle(_thresholds(graphon, n), n, seed))
    return LabeledMultigraph(n, tuple(zip(rows.tolist(), cols.tolist(), repeat(1))))


def serialize_sample(graphon: StepGraphon, n: int, seed: int) -> str:
    """serialize_graph(sample_wrandom(graphon, n, seed)), written from the
    drawn triangle without building a graph object. The text's predicted
    peak, _text_bytes, is checked against MAX_SAMPLE_BYTES on the drawn
    edge count before the endpoints are extracted."""
    edges = _draw_triangle(_thresholds(graphon, n), n, seed)
    count = int(np.count_nonzero(edges))
    _check_budget(f"the text of a sample on {n} nodes with {count} edges", _text_bytes(n, count))
    us, vs = _triangle_edges(edges)
    del edges
    return format_edge_list(n, us, vs)


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
    child_seeds = variates(philox_stream(seed, DOMAIN_CHILD_SEEDS), reps).tolist()
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
