"""Homomorphism densities: exact in finite graphs and step graphons, anchored
variants with pinned nodes, and Monte Carlo estimation for black-box kernels.

Every exact density is one integer sum over the maps of a motif's free nodes
into blocks (host nodes, for a finite graph) of node weights times one table
entry per edge: the value table rescaled by a common denominator and raised
to the edge multiplicity, or the 0/1 adjacency. Pinned nodes are evidence:
their table rows are sliced, and an edge between two pinned nodes is a
constant factor. Kept nodes are not summed out: one call returns a labeled
motif's anchored densities at every anchor tuple. The engine sums free nodes
out one bucket at a time (bucket elimination; Dechter, Artificial
Intelligence 113, 1999), in an order found by exact search over the node
subsets of each connected piece, so a motif of treewidth w on B blocks
costs about |V(F)|*B^(w+1) rather than B^|V(F)|.

A call first fixes its bound: the weight total to the number of free nodes,
times the largest |entry| to the total multiplicity. No entry or partial sum
exceeds it in magnitude, so it picks the tier, the dtype in which the sum is
exact: float64 below 2^53 (every partial sum is an integer float, whatever
order BLAS adds in), int64 below 2^63, Python ints in object arrays
otherwise. The plan, cached per motif shape, pinned set, kept nodes, block
count and tier, holds the elimination order and each bucket's operands and
einsum subscripts. A float64 bucket over three or more nodes and of more
than _BLAS_ENTRIES entries contracts pairwise along an einsum path found
once per plan and stored as its pairs, so that its matrix products run in
BLAS (np.tensordot) with no path search per call; any other bucket is one
plain np.einsum. A graphon caches its largest entry and its table powers
per tier. Float sums leave through np.rint as ints, and a single Fraction
division at the end restores the exact rational.

A Monte Carlo estimate runs in chunks of _FSUM_CHUNK samples and sums each
chunk's values exactly while they are still in cache: two levels of
error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008)
take nearly every bit, and exponent bins take the rest, so the mean and the
variance are math.fsum's correctly rounded sums, whatever the chunking.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import threads
from .graphons import BlackBoxKernel, StepGraphon, exact_power
from .graphs import Edge, LabeledMultigraph, product, unlabel
from .rational import format_float
from .streams import DOMAIN_MC_COORDS, philox_stream

MAX_MOTIF_NODES = 8
MAX_EXACT_BLOCKS = 64
# samples per Monte Carlo chunk, and values per _exact_sum chunk: coordinates
# drawn, values evaluated and values summed at a time, few enough that a
# chunk's arrays stay in cache. A chunk adds at most 2**14 * 2**27 = 2**41 in
# magnitude to an int64 exponent bin, so any array of fewer than 2**36 values
# fits the bins.
_FSUM_CHUNK = 1 << 14
# np.frexp exponents of finite doubles lie in [_MIN_EXPONENT, 1024]
_MIN_EXPONENT = -1073
_EXPONENTS = 1024 - _MIN_EXPONENT + 1
# an array, which holds fewer than 2**63 values, of magnitudes below it keeps
# every partial sum of math.fsum below 2**1022
_FSUM_LIMIT = 2.0**959
# budget for the samples x |V(F)| float64 coordinates one Monte Carlo call
# draws, in chunks of _FSUM_CHUNK samples
MAX_MC_BYTES = 1 << 30
# float64 buckets of more entries than this contract pairwise through BLAS;
# below it one plain einsum was faster in timings of 2- to 5-operand buckets
# (plain ahead up to 4,096 entries, the pairwise path from 20,736). Buckets
# over two nodes, matrix-vector products, ran faster plain at every size.
_BLAS_ENTRIES = 1 << 14

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


def _tier(bound: int) -> type:
    """The cheapest dtype in which no entry or partial sum of magnitude at
    most `bound` is rounded or overflows."""
    return np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object


def _subscripts(scopes: Sequence[Sequence[int]], out: Sequence[int]) -> str:
    """einsum subscripts naming the nodes of scopes and out by letters, in
    order of first appearance among them."""
    letter: dict[int, str] = {}
    for y in itertools.chain(*scopes, out):
        letter.setdefault(y, chr(97 + len(letter)))
    inputs = ",".join("".join(map(letter.get, s)) for s in scopes)
    return inputs + "->" + "".join(map(letter.get, out))


class _Pair(NamedTuple):
    """One contraction of a bucket's pairwise path: the operands at
    `positions` of the bucket's working list are removed, in that order, and
    the result is appended. With `axes`, the two contract through
    np.tensordot (a BLAS product) and `perm`, unless None, orders the
    result's axes; without, `subscripts` is one plain np.einsum."""

    positions: tuple[int, ...]
    subscripts: str
    axes: tuple[tuple[int, ...], tuple[int, ...]] | None
    perm: tuple[int, ...] | None


class _Step(NamedTuple):
    """One bucket: einsum `subscripts` over the operands numbered `operands`,
    which together span `scope`; `pairs` is the pairwise path of a float64
    bucket of more than _BLAS_ENTRIES entries, else None."""

    operands: tuple[int, ...]
    scope: tuple[int, ...]
    subscripts: str
    pairs: tuple[_Pair, ...] | None


def _pairwise(subscripts: str, block_count: int) -> tuple[_Pair, ...]:
    """The greedy einsum path of a bucket, found once, as pairwise
    contractions. A pair that sums out exactly the letters its two operands
    share becomes a tensordot; any other, such as a product with no letter
    summed or one that keeps a shared letter, stays a plain einsum."""
    inputs, out = subscripts.split("->")
    terms = inputs.split(",")
    shapes = [np.broadcast_to(0.0, (block_count,) * len(t)) for t in terms]
    path = np.einsum_path(subscripts, *shapes, optimize="greedy")[0][1:]
    pairs = []
    for k, contraction in enumerate(path):
        positions = tuple(sorted(contraction, reverse=True))
        taken = [terms.pop(i) for i in positions]
        later = set(out).union(*terms)
        summed = set().union(*taken) - later
        axes = perm = None
        if len(taken) == 2 and summed and summed == set(taken[0]) & set(taken[1]):
            x, y = taken
            shared = [c for c in y if c in summed]
            axes = tuple(map(x.index, shared)), tuple(map(y.index, shared))
            result = "".join(c for c in x + y if c not in summed)
            if k == len(path) - 1 and result != out:
                perm = tuple(result.index(c) for c in out)
                result = out
        else:
            kept = (c for t in taken for c in t if c in later)
            result = out if k == len(path) - 1 else "".join(dict.fromkeys(kept))
        pairs.append(_Pair(positions, ",".join(taken) + "->" + result, axes, perm))
        terms.append(result)
    return tuple(pairs)


def _contract(step: _Step, args: list[np.ndarray]) -> np.ndarray:
    """Sum a bucket's operands out: one plain einsum, or its pairwise path."""
    if step.pairs is None:
        return np.einsum(step.subscripts, *args)
    for pair in step.pairs:
        taken = [args.pop(i) for i in pair.positions]
        if pair.axes is None:
            args.append(np.einsum(pair.subscripts, *taken))
        else:
            result = np.tensordot(*taken, axes=pair.axes)
            args.append(result if pair.perm is None else result.transpose(pair.perm))
    return args[0]


class _Plan(NamedTuple):
    """Everything about one engine call that depends on the motif shape,
    the pinned and kept nodes, the block count and the tier, not on the table.

    Operands are numbered in the order they appear: one vector per free node
    (the weights) and per kept node (ones), `free` then `kept` many, then one
    table per edge between unpinned nodes, with multiplicities `tables`; every
    step appends its result. An edge from a pinned node multiplies its row
    into a vector: `rows` holds (operand, pinned node, multiplicity), and
    `constants` the edges with both ends pinned. `live` numbers the operands
    left when the free nodes are summed out, and `final` contracts them onto
    the kept nodes. `entries` is the predicted work, the summed bucket sizes;
    `blas` says whether a step contracts through BLAS.
    """

    tier: type
    order: tuple[int, ...]
    free: int
    kept: int
    tables: tuple[int, ...]
    rows: tuple[tuple[int, int, int], ...]
    constants: tuple[Edge, ...]
    multiplicities: frozenset[int]
    steps: tuple[_Step, ...]
    live: tuple[int, ...]
    final: str
    entries: int
    blas: bool


@functools.lru_cache(maxsize=1024)
def _plan(
    node_count: int,
    edges: tuple[Edge, ...],
    pinned: frozenset[int],
    kept: tuple[int, ...],
    block_count: int,
    tier: type,
) -> _Plan:
    """Plan a call; cached, so that each shape is planned once per process."""
    free = [x for x in range(node_count) if x not in pinned and x not in kept]
    vectors = free + list(kept)
    scopes = [(x,) for x in vectors]
    tables, rows, constants = [], [], []
    for u, v, m in edges:
        if u in pinned and v in pinned:
            constants.append((u, v, m))
        elif u in pinned or v in pinned:
            a, x = (u, v) if u in pinned else (v, u)
            rows.append((vectors.index(x), a, m))
        else:
            tables.append(m)
            scopes.append((u, v))
    live = list(range(len(scopes)))
    order = _elimination_order(free, edges, block_count, kept)
    steps = []
    for x in order:
        bucket = [i for i in live if x in scopes[i]]
        live = [i for i in live if x not in scopes[i]]
        scope = tuple(sorted({y for i in bucket for y in scopes[i]}))
        subscripts = _subscripts([scopes[i] for i in bucket], [y for y in scope if y != x])
        pairs = None
        if tier is np.float64 and len(scope) > 2 and block_count ** len(scope) > _BLAS_ENTRIES:
            pairs = _pairwise(subscripts, block_count)
        steps.append(_Step(tuple(bucket), scope, subscripts, pairs))
        live.append(len(scopes))
        scopes.append(tuple(y for y in scope if y != x))
    return _Plan(
        tier,
        tuple(order),
        len(free),
        len(kept),
        tuple(tables),
        tuple(rows),
        tuple(constants),
        frozenset(m for _, _, m in edges),
        tuple(steps),
        tuple(live),
        _subscripts([scopes[i] for i in live], kept),
        sum(block_count ** len(step.scope) for step in steps),
        any(step.pairs for step in steps),
    )


def _plan_for(
    node_count: int,
    edges: Sequence[Edge],
    weights: Sequence[int],
    pinned: Mapping[int, int],
    kept: Sequence[int],
    top: int,
) -> _Plan:
    """The cached plan of one call, in the tier of its bound
    sum(weights)**(free nodes) * top**(total multiplicity), `top` the
    largest |entry| of the table and at least 1. No entry or partial sum
    the plan forms exceeds the bound in magnitude."""
    free = node_count - len(pinned) - len(kept)
    bound = sum(weights) ** free * top ** sum(m for _, _, m in edges)
    return _plan(
        node_count, tuple(edges), frozenset(pinned), tuple(kept), len(weights), _tier(bound)
    )


def _execute(
    plan: _Plan,
    weights: Sequence[int],
    pinned: Mapping[int, int],
    power: Callable[[type, int], np.ndarray],
) -> int | np.ndarray:
    """Run a plan on the tables power(plan.tier, m): the value table raised
    to each multiplicity m. Float64 sums are exact integers and leave
    through np.rint; a kept table comes back as int64, or as Python ints in
    the object tier."""
    powers = {m: power(plan.tier, m) for m in plan.multiplicities}
    result = 1
    for u, v, m in plan.constants:
        result *= int(powers[m][pinned[u], pinned[v]])
    if result == 0 and not plan.kept:
        return 0
    operands = [np.array(weights, dtype=plan.tier)] * plan.free
    operands += [np.ones(len(weights), dtype=plan.tier)] * plan.kept
    operands += [powers[m] for m in plan.tables]
    for i, a, m in plan.rows:
        operands[i] = operands[i] * powers[m][pinned[a]]
    # BLAS on one thread, or it leaves a thread spinning after the call
    with threads.one_blas_thread() if plan.blas else contextlib.nullcontext():
        for step in plan.steps:
            operands.append(_contract(step, [operands[i] for i in step.operands]))
    live = [operands[i] for i in plan.live]
    if plan.kept:
        table = np.einsum(plan.final, *live)
        if plan.tier is np.float64:
            table = np.rint(table).astype(np.int64)
        return result * table
    for x in live:
        result *= int(np.rint(x)) if plan.tier is np.float64 else int(x)
    return result


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
    carries a weight.
    """
    top = max(1, int(np.max(np.abs(table))))
    plan = _plan_for(node_count, edges, weights, pinned, kept, top)
    return _execute(plan, weights, pinned, functools.partial(exact_power, table))


def _graphon_sum(
    motif: LabeledMultigraph,
    graphon: StepGraphon,
    pinned: Mapping[int, int],
    kept: Sequence[int] = (),
) -> int | np.ndarray:
    """_hom_sum of the motif on the graphon's integer tables, with the
    graphon's cached largest entry and table powers."""
    nw = graphon.integer_tables[1]
    plan = _plan_for(motif.node_count, motif.edges, nw, pinned, kept, graphon.table_top)
    return _execute(plan, nw, pinned, graphon.table_power)


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
    r, _, q, _ = graphon.integer_tables
    total = _graphon_sum(motif, graphon, pinned)
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
    """Resolve node -> pinned block; anchors and the motif's labels must match."""
    for label, block in anchors.items():
        if label not in motif.label_set:
            raise ValueError(f"anchored label {label} is not a label of the motif")
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
    unlabeled nodes only. Every label of the motif needs an anchor, and
    every anchor must name a label of the motif. With no labels and no
    anchors this reduces to density_exact.
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


def _exact_sum(chunks: Iterable[np.ndarray], whole: Callable[[], np.ndarray]) -> float:
    """math.fsum of the values of the chunks, each at most _FSUM_CHUNK long
    and taken in turn as it comes: the correctly rounded sum, computed exactly.

    A chunk r of n values runs at most two levels of error-free extraction
    (Rump, Ogita and Oishi, "Accurate floating-point summation part I",
    SIAM J. Sci. Comput. 31, 2008). A level takes M = max|r| < 2**e and
    sigma = 2**(e + l), l = (n + 1).bit_length(), so that n < 2**l. Then
    q = (r + sigma) - sigma holds multiples of 2**(e + l - 53) of magnitude
    at most 2**e, every partial sum of q is such a multiple below
    2**(e + l), so np.sum(q) is exact in any order; r - q is exact too, and
    at most 2**(e + l - 53) in magnitude. The level sums join one Python
    int in units of 2**(_MIN_EXPONENT - 53). Only the nonzero values two
    levels leave are binned, at most a few per cent of a chunk in perfbench's
    Monte Carlo ops: np.frexp writes each as M * 2**(e - 53), M an integer
    below 2**53 in magnitude, split as M = hi * 2**26 + lo with
    0 <= lo < 2**26, and np.bincount sums hi and lo by exponent; those float
    sums stay below 2**53 and are exact. The bins accumulate in int64 across
    chunks and join the int once, and one correctly rounded integer division
    gives the float.

    A value that is not finite or of magnitude 2**959 or more could overflow
    an intermediate sum of math.fsum: if a chunk holds one, the chunks are
    run to their end and whole(), all their values as one array, goes to
    math.fsum, fed as Python floats one chunk at a time.
    """
    total = 0
    bins = np.zeros((2, _EXPONENTS), dtype=np.int64)
    scratch = np.empty((2, _FSUM_CHUNK))
    chunks = iter(chunks)
    for chunk in chunks:
        n = len(chunk)
        q, rest = scratch[:, :n]
        r = chunk
        for _ in range(2):
            top = max(r.max(initial=0.0), -r.min(initial=0.0))
            if not top < _FSUM_LIMIT:
                for _ in chunks:
                    pass
                values = whole()
                return math.fsum(
                    itertools.chain.from_iterable(
                        values[i : i + _FSUM_CHUNK].tolist()
                        for i in range(0, len(values), _FSUM_CHUNK)
                    )
                )
            if top == 0:
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + (n + 1).bit_length())
            np.add(r, sigma, out=q)
            q -= sigma
            part, exponent = math.frexp(q.sum())
            total += int(part * 2.0**53) << (exponent - _MIN_EXPONENT)
            r = np.subtract(r, q, out=rest)
        else:
            r = r[r != 0]
            if len(r):
                mantissa, exponent = np.frexp(r)
                exponent -= _MIN_EXPONENT
                scaled = mantissa * 2.0**53
                hi = np.floor(scaled * 2.0**-26)
                lo = scaled - hi * 2.0**26
                bins[0] += np.bincount(exponent, hi, _EXPONENTS).astype(np.int64)
                bins[1] += np.bincount(exponent, lo, _EXPONENTS).astype(np.int64)
    total += sum(
        ((int(bins[0, e]) << 26) + int(bins[1, e])) << int(e) for e in np.flatnonzero(bins.any(0))
    )
    return total / (1 << (53 - _MIN_EXPONENT))


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a float array: _exact_sum over chunks of _FSUM_CHUNK."""
    chunks = (values[i : i + _FSUM_CHUNK] for i in range(0, len(values), _FSUM_CHUNK))
    return _exact_sum(chunks, lambda: values)


def _coordinates(gen: np.random.Generator, samples: int, k: int) -> Iterator[np.ndarray]:
    """The generator's next samples x k uniform coordinates, _FSUM_CHUNK
    samples at a time, in stream order, drawn into two reused buffers.

    The first chunk is drawn on the caller's thread. Each later chunk is
    drawn on the package's worker thread (threads.pool) while the caller
    uses the one before, so a chunk is overwritten once the caller asks
    for the chunk after the next: the caller must be done with it by then.
    Closing the generator waits for a draw in flight.
    """
    sizes = [min(_FSUM_CHUNK, samples - start) for start in range(0, samples, _FSUM_CHUNK)]
    buffers = np.empty((2, sizes[0], k))

    def draw(i: int) -> np.ndarray:
        return gen.random((sizes[i], k), out=buffers[i % 2, : sizes[i]])

    coords, pending = draw(0), None
    try:
        for i in range(1, len(sizes)):
            pending = threads.pool().submit(draw, i)
            yield coords
            coords = pending.result()
        pending = None
        yield coords
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()  # waits; the caller's own error goes on


def density_mc(
    motif: LabeledMultigraph, kernel: BlackBoxKernel, samples: int, seed: int
) -> Estimate:
    """Plain Monte Carlo over i.i.d. uniform node coordinates.

    Sample s uses coordinates number s*k .. s*k+k-1 of the (seed,
    DOMAIN_MC_COORDS) stream, node index order; the reduction is exact
    float summation, so any sharding of the work gives identical output.
    The samples run in chunks of _FSUM_CHUNK from the one generator, read
    in order: _coordinates draws the next chunk on the package's one
    worker thread while this thread evaluates the current one, and waits
    for that draw if the call stops early. The kernel and the sums never
    leave the calling thread. In a chunk, each node's coordinates go
    through kernel.points once, and each edge through kernel.evaluator
    once, in edge order; a pair that does not take arrays is lifted
    elementwise by np.frompyfunc into the same loop.
    Each chunk's values are summed (_exact_sum) as soon as they are written,
    while they are still in cache; the deviations from the mean are then
    formed, squared and summed one chunk at a time.
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
    values = np.ones(samples)
    ev, points = kernel.evaluator, kernel.points
    if not _vectorized(kernel):
        ev, points = np.frompyfunc(ev, 2, 1), np.frompyfunc(points, 1, 1)
    starts = range(0, samples, _FSUM_CHUNK)
    draws = _coordinates(philox_stream(seed, DOMAIN_MC_COORDS), samples, k)

    def products() -> Iterator[np.ndarray]:
        for start, coords in zip(starts, draws):
            out = values[start : start + _FSUM_CHUNK]
            cols = [points(coords[:, x]) for x in range(k)]
            for u, v, m in motif.edges:
                out *= np.asarray(ev(cols[u], cols[v]), dtype=float) ** m
            yield out

    with contextlib.closing(draws):
        mean = _exact_sum(products(), lambda: values) / samples
    buffer = np.empty(min(samples, _FSUM_CHUNK))

    def squares() -> Iterator[np.ndarray]:
        for start in starts:
            chunk = values[start : start + _FSUM_CHUNK]
            deviation = np.subtract(chunk, mean, out=buffer[: len(chunk)])
            yield np.square(deviation, out=deviation)

    var = _exact_sum(squares(), lambda: np.square(values - mean)) / (samples - 1)
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
    r, nw, q, _ = graphon.integer_tables
    axes = list(range(k))
    operands: list = [item for i in axes for item in (np.array(nw, dtype=object), [i])]
    for f in (f1, f2):
        _check_size(f)
        kept = [node for node, _ in sorted(f.labels, key=lambda item: item[1])]
        table = _graphon_sum(f, graphon, {}, kept)
        operands += [np.asarray(table, dtype=object), axes]
    scale = r**glued.node_count * q**glued.total_multiplicity
    rhs = Fraction(int(np.einsum(*operands, [])), scale)
    return lhs, rhs
