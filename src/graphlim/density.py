"""Homomorphism densities: exact in finite graphs and step graphons, anchored
variants with pinned nodes, and Monte Carlo estimation for black-box kernels.

Every exact density is one integer sum over the maps of a motif's free nodes
into blocks (host nodes, for a finite graph) of node weights times one table
entry per edge: the value table rescaled by a common denominator and raised
to the edge multiplicity, or the 0/1 adjacency. Pinned nodes are evidence:
their table rows are sliced, and an edge between two pinned nodes is a
constant factor. Kept nodes are not summed out: one call returns a labeled
motif's anchored densities at every anchor tuple. The engine sums free nodes
out one bucket at a time (bucket elimination) with np.einsum, in an order
found by exact search over the node subsets of each connected piece, so a
motif of treewidth w on B blocks costs about |V(F)|*B^(w+1) rather than
B^|V(F)|.

The tables are int64 when the weight total to the number of free nodes,
times the largest |entry| to the total multiplicity, is below 2^63: no
partial sum can then overflow. Otherwise they hold Python ints in object
arrays. Either way the sum is exact, and a single Fraction division at the
end restores the exact rational.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .graphons import BlackBoxKernel, StepGraphon
from .graphs import Edge, LabeledMultigraph, product, unlabel
from .rational import format_float
from .streams import DOMAIN_MC_COORDS, philox_stream

MAX_MOTIF_NODES = 8
MAX_EXACT_BLOCKS = 64
# samples per Monte Carlo chunk: coordinates drawn, values evaluated and
# values binned by _fsum at a time
_FSUM_CHUNK = 1 << 16
# np.frexp exponents of finite doubles lie in [_MIN_EXPONENT, 1024]
_MIN_EXPONENT = -1073
_EXPONENTS = 1024 - _MIN_EXPONENT + 1
# an array, which holds fewer than 2**63 values, of magnitudes below it keeps
# every partial sum of math.fsum below 2**1022
_FSUM_LIMIT = 2.0**959
# budget for the samples x |V(F)| float64 coordinates one Monte Carlo call
# draws, in chunks of _FSUM_CHUNK samples
MAX_MC_BYTES = 1 << 30

AnchorAssignment = Mapping[int, int]


class Estimate(NamedTuple):
    """A Monte Carlo estimate: sample mean, its standard error, sample count."""

    mean: float
    stderr: float
    samples: int

    def __str__(self) -> str:
        return f"{format_float(self.mean)} ± {format_float(self.stderr)} ({self.samples})"


def _require_unlabeled(graph: LabeledMultigraph, op: str) -> None:
    if not graph.is_unlabeled:
        raise ValueError(f"{op} needs an unlabeled graph; use anchored_density for labels")


def _check_size(graph: LabeledMultigraph, node_limit: int = MAX_MOTIF_NODES) -> None:
    if graph.node_count > node_limit:
        raise ValueError(
            f"graph has {graph.node_count} nodes, exceeding the limit {node_limit}"
        )


# -- the exact engine -----------------------------------------------------------


def _closure(neighbors: Sequence[int], seed: int, within: int) -> tuple[int, int]:
    """Nodes reached from the seed bitmask through nodes of `within`, and
    the union of their neighbor bitmasks."""
    reached, frontier, touched = seed, seed, 0
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        nbr = neighbors[low.bit_length() - 1]
        touched |= nbr
        new = nbr & within & ~reached
        reached |= new
        frontier |= new
    return reached, touched


@functools.lru_cache(maxsize=1024)
def _best_order(neighbors: tuple[int, ...], block_count: int) -> tuple[int, ...]:
    """Elimination order of a connected interaction graph (node i adjacent
    to the bitmask neighbors[i]) minimising the summed bucket sizes.

    Eliminating v after the set S leaves a bucket over v and every node
    outside S that a path through S joins to v, block_count**(that many)
    entries. Exact dynamic programming over the subsets eliminated first.
    """
    full = (1 << len(neighbors)) - 1
    cost = [0] * (full + 1)
    last = [0] * (full + 1)
    for done in range(1, full + 1):
        best = None
        rest = done
        while rest:
            bit = rest & -rest
            rest ^= bit
            before = done ^ bit
            _, touched = _closure(neighbors, bit, before)
            c = cost[before] + block_count ** ((touched & ~done).bit_count() + 1)
            if best is None or c < best:
                best, last[done] = c, bit.bit_length() - 1
        cost[done] = best
    order = []
    while full:
        order.append(last[full])
        full ^= 1 << last[full]
    return tuple(reversed(order))


def _elimination_order(
    free: list[int], edges: Sequence[Edge], block_count: int, kept: Sequence[int] = ()
) -> list[int]:
    """Free nodes component by component, each in its best order. A kept
    node is never eliminated but widens every bucket that reaches it."""
    pos = {x: i for i, x in enumerate([*free, *kept])}
    neighbors = [0] * len(pos)
    for u, v, _ in edges:
        if u in pos and v in pos:
            neighbors[pos[u]] |= 1 << pos[v]
            neighbors[pos[v]] |= 1 << pos[u]
    order: list[int] = []
    left = (1 << len(free)) - 1
    while left:
        comp, _ = _closure(neighbors, left & -left, left)
        left ^= comp
        members = [i for i in range(len(free)) if comp >> i & 1]
        reach = members + list(range(len(free), len(pos)))
        local = tuple(
            sum(1 << k for k, j in enumerate(reach) if neighbors[i] >> j & 1)
            for i in members
        )
        order += [free[members[k]] for k in _best_order(local, block_count)]
    return order


def _hom_sum(
    node_count: int,
    edges: Sequence[Edge],
    table: np.ndarray,
    weights: Sequence[int],
    pinned: Mapping[int, int],
    kept: Sequence[int] = (),
) -> int | np.ndarray:
    """Sum over maps phi of the free nodes into range(len(weights)) of
    prod_x weights[phi(x)] * prod_(u,v,m) table[phi(u), phi(v)]**m.

    Pinned nodes are held at their blocks; kept nodes are not summed out,
    and the call returns the table over them, axes in the given order. Neither
    carries a weight. No entry or partial sum exceeds `bound`, so int64
    tables are exact below 2**63.
    """
    free = [x for x in range(node_count) if x not in pinned and x not in kept]
    top = max(1, int(np.max(np.abs(table))))
    bound = sum(weights) ** len(free) * top ** sum(m for _, _, m in edges)
    dtype = np.int64 if bound < 2**63 else object
    powers = {m: table.astype(dtype) ** m for m in {m for _, _, m in edges}}
    result = 1
    vectors = {x: np.array(weights, dtype=dtype) for x in free}
    vectors.update((x, np.ones(len(weights), dtype=dtype)) for x in kept)
    factors = [(vec, (x,)) for x, vec in vectors.items()]
    for u, v, m in edges:
        if u in pinned and v in pinned:
            result *= int(table[pinned[u], pinned[v]]) ** m
        elif u in pinned or v in pinned:
            a, x = (u, v) if u in pinned else (v, u)
            vectors[x] *= powers[m][pinned[a]]  # in place: factors holds it
        else:
            factors.append((powers[m], (u, v)))
    if result == 0 and not kept:
        return 0
    for x in _elimination_order(free, edges, len(weights), kept):
        bucket = [f for f in factors if x in f[1]]
        factors = [f for f in factors if x not in f[1]]
        labels = sorted({y for _, scope in bucket for y in scope})
        scope = tuple(y for y in labels if y != x)
        operands = [
            item for arr, s in bucket for item in (arr, [labels.index(y) for y in s])
        ]
        factors.append((np.einsum(*operands, [labels.index(y) for y in scope]), scope))
    if kept:
        operands = [item for arr, s in factors for item in (arr, [kept.index(y) for y in s])]
        return result * np.einsum(*operands, list(range(len(kept))))
    for arr, _ in factors:
        result *= int(arr)
    return result


# -- exact evaluation in a finite graph --------------------------------------


def adjacency_density(motif: LabeledMultigraph, adjacency: np.ndarray) -> Fraction:
    """hom(F,G) / n^|V(F)| for the symmetric 0/1 adjacency matrix of a
    simple n-node host G; only the support of the motif F counts."""
    n = len(adjacency)
    support = [(u, v, 1) for u, v, _ in motif.edges]
    hom = _hom_sum(motif.node_count, support, adjacency, [1] * n, {})
    return Fraction(hom, n**motif.node_count)


def density_graph(motif: LabeledMultigraph, graph: LabeledMultigraph) -> Fraction:
    """hom(F,G) / n^|V(F)| for a simple unlabeled host graph G.

    A multigraph motif is allowed: against 0/1 adjacency, multiplicities
    collapse (1^m = 1, 0^m = 0), so only the support of F matters.
    """
    _require_unlabeled(motif, "density_graph")
    if not graph.is_simple or not graph.is_unlabeled:
        raise ValueError("host graph must be simple and unlabeled")
    _check_size(motif)
    n = graph.node_count
    upper = np.zeros(n * n, dtype=np.uint8)
    upper[[u * n + v for u, v, _ in graph.edges]] = 1
    upper = upper.reshape(n, n)
    return adjacency_density(motif, upper + upper.T)


# -- exact evaluation in a step graphon --------------------------------------


def _check_blocks(graphon: StepGraphon) -> None:
    if graphon.block_count > MAX_EXACT_BLOCKS:
        raise ValueError(
            f"{graphon.block_count} blocks exceed the exact-path limit {MAX_EXACT_BLOCKS}"
        )


def _graphon_density(
    motif: LabeledMultigraph, graphon: StepGraphon, pinned: Mapping[int, int]
) -> Fraction:
    r, nw, q, nv = graphon.integer_tables
    total = _hom_sum(motif.node_count, motif.edges, nv, nw, pinned)
    scale = r ** (motif.node_count - len(pinned)) * q**motif.total_multiplicity
    return Fraction(total, scale)


def density_exact(
    motif: LabeledMultigraph,
    graphon: StepGraphon,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> Fraction:
    """Sum over all block maps of edge-value products times node weights."""
    _require_unlabeled(motif, "density_exact")
    _check_size(motif, node_limit)
    _check_blocks(graphon)
    return _graphon_density(motif, graphon, {})


def _check_anchor_assignment(
    motif: LabeledMultigraph, anchors: AnchorAssignment, block_count: int
) -> dict[int, int]:
    """Resolve node -> pinned block; every label of the motif must be anchored."""
    for label, block in anchors.items():
        if not 0 <= block < block_count:
            raise ValueError(f"anchor block {block} for label {label} out of range")
    pinned: dict[int, int] = {}
    for node, label in motif.labels:
        if label not in anchors:
            raise ValueError(f"label {label} has no anchor")
        pinned[node] = anchors[label]
    return pinned


def anchored_density(
    motif: LabeledMultigraph, graphon: StepGraphon, anchors: AnchorAssignment
) -> Fraction:
    """Density with labeled nodes pinned to anchor blocks.

    Pinned nodes contribute no weight factor; the sum ranges over the
    unlabeled nodes only. With no labels and no anchors this reduces to
    density_exact.
    """
    _check_size(motif)
    _check_blocks(graphon)
    pinned = _check_anchor_assignment(motif, anchors, graphon.block_count)
    return _graphon_density(motif, graphon, pinned)


# -- mixed moments ------------------------------------------------------------


def mixed_moment(
    graphon: StepGraphon, anchors: Sequence[int], exponents: Sequence[int]
) -> Fraction:
    """E(prod_i W(X, a_i)^{k_i}) over a weight-distributed block X.

    This is the density of the star whose leaf i is pinned at block a_i and
    joined to the free center by k_i parallel edges; no node or block limit.
    """
    if len(anchors) != len(exponents):
        raise ValueError("anchors and exponents must have the same length")
    for a in anchors:
        if not 0 <= a < graphon.block_count:
            raise ValueError(f"anchor block {a} out of range")
    if any(k < 0 for k in exponents):
        raise ValueError("exponents must be nonnegative")
    star = LabeledMultigraph(
        len(anchors) + 1, tuple((0, i, k) for i, k in enumerate(exponents, 1) if k)
    )
    return _graphon_density(star, graphon, dict(enumerate(anchors, 1)))


# -- Monte Carlo ---------------------------------------------------------------


def _vectorized(kernel: BlackBoxKernel) -> bool:
    probe = np.array([0.25, 0.75])
    try:
        out = np.asarray(kernel(probe, probe), dtype=float)
    except Exception:
        return False
    return out.shape == probe.shape


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a float array: the correctly rounded sum, computed exactly.

    np.frexp writes each value as M * 2**(e - 53), M an integer below 2**53
    in magnitude, split as M = hi * 2**26 + lo with 0 <= lo < 2**26. Per
    chunk of _FSUM_CHUNK values, np.bincount sums hi and lo by exponent;
    those float sums stay below 2**53 and are exact. The bins accumulate in
    int64, at most 2**43 per chunk, so that any array of fewer than 2**36
    values fits; the nonzero ones join as one Python int, and one correctly rounded
    integer division gives the float. Values of magnitude 2**959 or more,
    which could overflow an intermediate sum of math.fsum, and non-finite
    values are left to math.fsum, fed as Python floats one chunk at a time.
    """
    if not max(values.max(initial=0.0), -values.min(initial=0.0)) < _FSUM_LIMIT:
        return math.fsum(
            itertools.chain.from_iterable(
                values[i : i + _FSUM_CHUNK].tolist()
                for i in range(0, len(values), _FSUM_CHUNK)
            )
        )
    bins = np.zeros((2, _EXPONENTS), dtype=np.int64)
    for i in range(0, len(values), _FSUM_CHUNK):
        mantissa, exponent = np.frexp(values[i : i + _FSUM_CHUNK])
        exponent -= _MIN_EXPONENT
        whole = mantissa * 2.0**53
        hi = np.floor(whole * 2.0**-26)
        lo = whole - hi * 2.0**26
        bins[0] += np.bincount(exponent, hi, _EXPONENTS).astype(np.int64)
        bins[1] += np.bincount(exponent, lo, _EXPONENTS).astype(np.int64)
    total = sum(
        ((int(bins[0, e]) << 26) + int(bins[1, e])) << int(e) for e in np.flatnonzero(bins.any(0))
    )
    return total / (1 << (53 - _MIN_EXPONENT))


def density_mc(
    motif: LabeledMultigraph, kernel: BlackBoxKernel, samples: int, seed: int
) -> Estimate:
    """Plain Monte Carlo over i.i.d. uniform node coordinates.

    Sample s uses coordinates number s*k .. s*k+k-1 of the (seed,
    DOMAIN_MC_COORDS) stream, node index order; the reduction is exact
    float summation, so any sharding of the work gives identical output.
    The samples run in chunks of _FSUM_CHUNK, each drawn by one call on the
    one generator, which continues the stream where the last call stopped.
    In a chunk, each node's coordinates go through kernel.points once, and
    each edge through kernel.evaluator once, in edge order; a pair that does
    not take arrays is lifted elementwise by np.frompyfunc into the same loop.
    The samples x k float coordinates drawn must fit MAX_MC_BYTES.
    """
    _require_unlabeled(motif, "density_mc")
    _check_size(motif)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    k = motif.node_count
    need = samples * k * 8
    if need > MAX_MC_BYTES:
        raise ValueError(
            f"{samples} samples of {k} coordinates need {need} bytes, "
            f"over the budget of {MAX_MC_BYTES} bytes"
        )
    gen = philox_stream(seed, DOMAIN_MC_COORDS)
    chunks = (
        (start, gen.random((min(_FSUM_CHUNK, samples - start), k)))
        for start in range(0, samples, _FSUM_CHUNK)
    )
    values = np.ones(samples)
    ev, points = kernel.evaluator, kernel.points
    if not _vectorized(kernel):
        ev, points = np.frompyfunc(ev, 2, 1), np.frompyfunc(points, 1, 1)
    for start, coords in chunks:
        cols = [points(coords[:, x]) for x in range(k)]
        out = values[start : start + len(coords)]
        for u, v, m in motif.edges:
            out *= np.asarray(ev(cols[u], cols[v]), dtype=float) ** m
    mean = _fsum(values) / samples
    values -= mean
    var = _fsum(np.square(values, out=values)) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return Estimate(mean, stderr, samples)


# -- the gluing identity --------------------------------------------------------


def product_identity_check(
    f1: LabeledMultigraph, f2: LabeledMultigraph, graphon: StepGraphon
) -> tuple[Fraction, Fraction]:
    """Both sides of t(F1 F2, H) = sum over anchor tuples of weighted t_x(F1) t_x(F2).

    F1 and F2 must carry the same label set {1..k}. Returns (lhs, rhs); equality
    is the caller's assertion. The right side weights one kept table per factor.
    """
    labels1, labels2 = f1.label_set, f2.label_set
    if labels1 != labels2:
        raise ValueError(f"label sets differ: {sorted(labels1)} vs {sorted(labels2)}")
    k = len(labels1)
    if sorted(labels1) != list(range(1, k + 1)):
        raise ValueError(f"labels must be exactly 1..k, got {sorted(labels1)}")
    if k > MAX_MOTIF_NODES:
        raise ValueError(f"{k} labels exceed the limit {MAX_MOTIF_NODES}")
    glued = unlabel(product(f1, f2))
    lhs = density_exact(glued, graphon, node_limit=glued.node_count)
    r, nw, q, nv = graphon.integer_tables
    axes = list(range(k))
    operands: list = [item for i in axes for item in (np.array(nw, dtype=object), [i])]
    for f in (f1, f2):
        _check_size(f)
        kept = [node for node, _ in sorted(f.labels, key=lambda item: item[1])]
        table = _hom_sum(f.node_count, f.edges, nv, nw, {}, kept)
        operands += [np.asarray(table, dtype=object), axes]
    scale = r**glued.node_count * q**glued.total_multiplicity
    rhs = Fraction(int(np.einsum(*operands, [])), scale)
    return lhs, rhs
