"""Homomorphism densities: exact in finite graphs and step graphons, anchored
variants with pinned nodes, and Monte Carlo estimation for black-box kernels.

Every exact density is one integer sum over the maps of a motif's free nodes
into blocks (host nodes, for a finite graph) of node weights times one table
entry per edge: the value table rescaled by a common denominator and raised
to the edge multiplicity, or the 0/1 adjacency. Pinned nodes are evidence:
their table rows are sliced, and an edge between two pinned nodes is a
constant factor. The engine sums free nodes out one bucket at a time
(bucket elimination) with np.einsum, in an order found by exact search over
the node subsets of each connected piece, so a motif of treewidth w on B
blocks costs about |V(F)|*B^(w+1) rather than B^|V(F)|.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .graphons import BlackBoxKernel, StepGraphon
from .graphs import Edge, LabeledMultigraph, product, unlabel
from .rational import format_float, format_rational
from .streams import DOMAIN_MC_COORDS, philox_stream

MAX_MOTIF_NODES = 8
MAX_EXACT_BLOCKS = 64

AnchorAssignment = Mapping[int, int]


@dataclass(frozen=True)
class DensityValue:
    """Either an exact rational or a (mean, stderr, samples) estimate."""

    exact: Fraction | None = None
    estimate: tuple[float, float, int] | None = None

    def __post_init__(self) -> None:
        if (self.exact is None) == (self.estimate is None):
            raise ValueError("exactly one of exact/estimate must be present")
        if self.estimate is not None and self.estimate[1] < 0:
            raise ValueError("stderr must be nonnegative")

    @classmethod
    def from_exact(cls, value: Fraction) -> "DensityValue":
        return cls(exact=value)

    @classmethod
    def from_estimate(cls, mean: float, stderr: float, samples: int) -> "DensityValue":
        return cls(estimate=(mean, stderr, samples))

    def __str__(self) -> str:
        if self.exact is not None:
            return format_rational(self.exact)
        mean, stderr, samples = self.estimate  # type: ignore[misc]
        return f"{format_float(mean)} ± {format_float(stderr)} ({samples})"


def _require_unlabeled(graph: LabeledMultigraph, op: str) -> None:
    if not graph.is_unlabeled:
        raise ValueError(f"{op} needs an unlabeled graph; use anchored_density for labels")


def _check_size(graph: LabeledMultigraph, node_limit: int) -> None:
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
    free: list[int], edges: Sequence[Edge], block_count: int
) -> list[int]:
    """Free nodes component by component, each in its best order."""
    pos = {x: i for i, x in enumerate(free)}
    neighbors = [0] * len(free)
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
        local = tuple(
            sum(1 << k for k, j in enumerate(members) if neighbors[i] >> j & 1)
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
) -> int:
    """Sum over maps phi of the unpinned nodes into range(len(weights)) of
    prod_x weights[phi(x)] * prod_(u,v,m) table[phi(u), phi(v)]**m.

    Pinned nodes are held at their blocks and carry no weight. No partial
    sum exceeds `bound`, so int64 tables are exact below 2**63.
    """
    free = [x for x in range(node_count) if x not in pinned]
    top = max(1, int(np.max(np.abs(table))))
    bound = sum(weights) ** len(free) * top ** sum(m for _, _, m in edges)
    dtype = np.int64 if bound < 2**63 else object
    powers = {m: table.astype(dtype) ** m for m in {m for _, _, m in edges}}
    result = 1
    factors = [(np.array(weights, dtype=dtype), (x,)) for x in free]
    for u, v, m in edges:
        if u in pinned and v in pinned:
            result *= int(table[pinned[u], pinned[v]]) ** m
        elif u in pinned or v in pinned:
            a, x = (u, v) if u in pinned else (v, u)
            factors.append((powers[m][pinned[a]], (x,)))
        else:
            factors.append((powers[m], (u, v)))
    if result == 0:
        return 0
    for x in _elimination_order(free, edges, len(weights)):
        bucket = [f for f in factors if x in f[1]]
        factors = [f for f in factors if x not in f[1]]
        labels = sorted({y for _, scope in bucket for y in scope})
        scope = tuple(y for y in labels if y != x)
        operands = [
            item for arr, s in bucket for item in (arr, [labels.index(y) for y in s])
        ]
        factors.append((np.einsum(*operands, [labels.index(y) for y in scope]), scope))
    for arr, _ in factors:
        result *= int(arr)
    return result


# -- exact evaluation in a finite graph --------------------------------------


def density_graph(
    motif: LabeledMultigraph,
    graph: LabeledMultigraph,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> DensityValue:
    """hom(F,G) / n^|V(F)| for a simple unlabeled host graph G.

    A multigraph motif is allowed: against 0/1 adjacency, multiplicities
    collapse (1^m = 1, 0^m = 0), so only the support of F matters.
    """
    _require_unlabeled(motif, "density_graph")
    if not graph.is_simple or not graph.is_unlabeled:
        raise ValueError("host graph must be simple and unlabeled")
    _check_size(motif, node_limit)
    n = graph.node_count
    upper = np.zeros(n * n, dtype=np.int64)
    upper[[u * n + v for u, v, _ in graph.edges]] = 1
    upper = upper.reshape(n, n)
    adjacency = upper + upper.T
    support = [(u, v, 1) for u, v, _ in motif.edges]
    hom = _hom_sum(motif.node_count, support, adjacency, [1] * n, {})
    return DensityValue.from_exact(Fraction(hom, n**motif.node_count))


# -- exact evaluation in a step graphon --------------------------------------


def _scaled_tables(graphon: StepGraphon) -> tuple[int, list[int], int, list[list[int]]]:
    r = math.lcm(*(w.denominator for w in graphon.weights))
    nw = [int(w * r) for w in graphon.weights]
    q = math.lcm(*(v.denominator for row in graphon.values for v in row))
    nv = [[int(v * q) for v in row] for row in graphon.values]
    return r, nw, q, nv


def _check_blocks(graphon: StepGraphon) -> None:
    if graphon.block_count > MAX_EXACT_BLOCKS:
        raise ValueError(
            f"{graphon.block_count} blocks exceed the exact-path limit {MAX_EXACT_BLOCKS}"
        )


def _graphon_density(
    motif: LabeledMultigraph, graphon: StepGraphon, pinned: Mapping[int, int]
) -> DensityValue:
    r, nw, q, nv = _scaled_tables(graphon)
    total = _hom_sum(motif.node_count, motif.edges, np.array(nv, dtype=object), nw, pinned)
    scale = r ** (motif.node_count - len(pinned)) * q**motif.total_multiplicity
    return DensityValue.from_exact(Fraction(total, scale))


def density_exact(
    motif: LabeledMultigraph,
    graphon: StepGraphon,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> DensityValue:
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
    motif: LabeledMultigraph,
    graphon: StepGraphon,
    anchors: AnchorAssignment,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> DensityValue:
    """Density with labeled nodes pinned to anchor blocks.

    Pinned nodes contribute no weight factor; the sum ranges over the
    unlabeled nodes only. With no labels and no anchors this reduces to
    density_exact.
    """
    _check_size(motif, node_limit)
    _check_blocks(graphon)
    pinned = _check_anchor_assignment(motif, anchors, graphon.block_count)
    return _graphon_density(motif, graphon, pinned)


# -- mixed moments ------------------------------------------------------------


def mixed_moment(
    graphon: StepGraphon, anchors: Sequence[int], exponents: Sequence[int]
) -> DensityValue:
    """E(prod_i W(X, a_i)^{k_i}) over a weight-distributed block X.

    This is the anchored density of the star multigraph with the same
    exponents, computed directly as the weighted sum over blocks.
    """
    if len(anchors) != len(exponents):
        raise ValueError("anchors and exponents must have the same length")
    for a in anchors:
        if not 0 <= a < graphon.block_count:
            raise ValueError(f"anchor block {a} out of range")
    if any(k < 0 for k in exponents):
        raise ValueError("exponents must be nonnegative")
    direct = Fraction(0)
    for x in range(graphon.block_count):
        w = graphon.weights[x]
        if w == 0:
            continue
        term = w
        for a, k in zip(anchors, exponents):
            if k:
                term *= graphon.values[x][a] ** k
                if term == 0:
                    break
        direct += term
    return DensityValue.from_exact(direct)


# -- Monte Carlo ---------------------------------------------------------------


def _vectorized(kernel: BlackBoxKernel) -> bool:
    probe = np.array([0.25, 0.75])
    try:
        out = np.asarray(kernel.evaluator(probe, probe), dtype=float)
    except Exception:
        return False
    return out.shape == probe.shape


def density_mc(
    motif: LabeledMultigraph,
    kernel: BlackBoxKernel,
    samples: int,
    seed: int,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> DensityValue:
    """Plain Monte Carlo over i.i.d. uniform node coordinates.

    Sample s uses coordinates number s*k .. s*k+k-1 of the (seed,
    DOMAIN_MC_COORDS) stream, node index order; the reduction is exact
    float summation, so any sharding of the work gives identical output.
    """
    _require_unlabeled(motif, "density_mc")
    _check_size(motif, node_limit)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    k = motif.node_count
    coords = philox_stream(seed, DOMAIN_MC_COORDS).random((samples, k))
    values = np.ones(samples)
    if _vectorized(kernel):
        for u, v, m in motif.edges:
            w = np.asarray(kernel.evaluator(coords[:, u], coords[:, v]), dtype=float)
            values *= w**m
    else:
        ev = kernel.evaluator
        for s in range(samples):
            row = coords[s]
            acc = 1.0
            for u, v, m in motif.edges:
                acc *= float(ev(row[u], row[v])) ** m
                if acc == 0.0:
                    break
            values[s] = acc
    mean = math.fsum(values) / samples
    var = math.fsum((x - mean) ** 2 for x in values) / (samples - 1)
    stderr = math.sqrt(var / samples)
    return DensityValue.from_estimate(mean, stderr, samples)


# -- the gluing identity --------------------------------------------------------


def product_identity_check(
    f1: LabeledMultigraph,
    f2: LabeledMultigraph,
    graphon: StepGraphon,
    *,
    node_limit: int = MAX_MOTIF_NODES,
) -> tuple[Fraction, Fraction]:
    """Both sides of t(F1 F2, H) = sum over anchor tuples of weighted t_x(F1) t_x(F2).

    F1 and F2 must carry the same label set {1..k}. Returns (lhs, rhs); equality
    is the caller's assertion.
    """
    labels1, labels2 = f1.label_set, f2.label_set
    if labels1 != labels2:
        raise ValueError(f"label sets differ: {sorted(labels1)} vs {sorted(labels2)}")
    k = len(labels1)
    if sorted(labels1) != list(range(1, k + 1)):
        raise ValueError(f"labels must be exactly 1..k, got {sorted(labels1)}")
    if k > node_limit:
        raise ValueError(f"{k} labels exceed the limit {node_limit}")
    glued = unlabel(product(f1, f2))
    lhs = density_exact(glued, graphon, node_limit=max(node_limit, glued.node_count)).exact
    rhs = Fraction(0)
    blocks = range(graphon.block_count)
    for combo in itertools.product(blocks, repeat=k):
        weight = Fraction(1)
        for b in combo:
            weight *= graphon.weights[b]
        if weight == 0:
            continue
        assignment = {i + 1: b for i, b in enumerate(combo)}
        t1 = anchored_density(f1, graphon, assignment).exact
        if t1 == 0:
            continue
        t2 = anchored_density(f2, graphon, assignment).exact
        rhs += weight * t1 * t2
    assert lhs is not None
    return lhs, rhs
