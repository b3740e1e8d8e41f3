"""Independent brute-force references.

Deliberately dumb: full enumeration over all maps with Fraction
arithmetic, no pruning, no code shared with the package. Only feasible
at desk scale, which is the point. The law of the sampling experiment
is simulated from its closed form, likewise without package code.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from graphlim import LabeledMultigraph, StepGraphon


def brute_hom_count(motif: LabeledMultigraph, graph: LabeledMultigraph) -> int:
    adj = set()
    for u, v, _ in graph.edges:
        adj.add((u, v))
        adj.add((v, u))
    count = 0
    for phi in iproduct(range(graph.node_count), repeat=motif.node_count):
        if all((phi[u], phi[v]) in adj for u, v, _ in motif.edges):
            count += 1
    return count


def brute_density_graph(motif: LabeledMultigraph, graph: LabeledMultigraph) -> Fraction:
    return Fraction(
        brute_hom_count(motif, graph), graph.node_count**motif.node_count
    )


def brute_density_exact(motif: LabeledMultigraph, graphon: StepGraphon) -> Fraction:
    total = Fraction(0)
    for phi in iproduct(range(graphon.block_count), repeat=motif.node_count):
        term = Fraction(1)
        for x in phi:
            term *= graphon.weights[x]
        for u, v, m in motif.edges:
            term *= graphon.values[phi[u]][phi[v]] ** m
        total += term
    return total


def brute_anchored(
    motif: LabeledMultigraph, graphon: StepGraphon, anchors: dict[int, int]
) -> Fraction:
    pinned = {node: anchors[label] for node, label in motif.labels}
    free = [x for x in range(motif.node_count) if x not in pinned]
    total = Fraction(0)
    for combo in iproduct(range(graphon.block_count), repeat=len(free)):
        phi = dict(pinned)
        phi.update(zip(free, combo))
        term = Fraction(1)
        for x in free:
            term *= graphon.weights[phi[x]]
        for u, v, m in motif.edges:
            term *= graphon.values[phi[u]][phi[v]] ** m
        total += term
    return total


def brute_mixed_moment(
    graphon: StepGraphon, anchors: list[int], exponents: list[int]
) -> Fraction:
    """E(prod_i W(X, a_i)^{k_i}) as the weighted sum over the blocks X."""
    total = Fraction(0)
    for x in range(graphon.block_count):
        term = graphon.weights[x]
        for a, k in zip(anchors, exponents):
            term *= graphon.values[x][a] ** k
        total += term
    return total


def brute_blowup(
    weights: list[Fraction], values: list[list[Fraction]], k: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Weights and values of the k-fold blowup: copy c of block i sits at
    c*B+i, with weight w_i / k and the values of block i."""
    b = len(weights)
    w = [weights[i % b] / k for i in range(b * k)]
    v = [[values[i % b][j % b] for j in range(b * k)] for i in range(b * k)]
    return w, v


def brute_glued_sum(
    f1: LabeledMultigraph, f2: LabeledMultigraph, graphon: StepGraphon
) -> Fraction:
    """Sum over anchor tuples x of labels 1..k of the weight of x times
    brute_anchored(f1, x) * brute_anchored(f2, x)."""
    k = len(f1.labels)
    total = Fraction(0)
    for combo in iproduct(range(graphon.block_count), repeat=k):
        anchors = {i + 1: b for i, b in enumerate(combo)}
        weight = Fraction(1)
        for b in combo:
            weight *= graphon.weights[b]
        total += (
            weight
            * brute_anchored(f1, graphon, anchors)
            * brute_anchored(f2, graphon, anchors)
        )
    return total


def bipartite_k2_monotone_rate(sizes: list[int], reps: int) -> float:
    """Chance that one seed of the K2 convergence experiment on the bipartite
    kernel (weights 1/2, value 1 across the blocks, 0 within) gives median
    errors that never increase over `sizes`.

    G(n, B) is the complete bipartite graph on a Bin(n, 1/2) split k_n, and
    one replication's splits are nested: k_n' = k_n + Bin(n' - n, 1/2). So
    |t(K2, G_n) - 1/2| = (n - 2 k_n)^2 / (2 n^2) exactly, and the rate is
    simulated over 100k seeds from binomials alone, on its own fixed-seed
    generator.
    Errors are scaled by 2 lcm(sizes)^2 to integers, whose medians float64
    holds exactly.
    """
    seeds = 100_000
    rng = np.random.Generator(np.random.Philox(0))
    top = math.lcm(*sizes)
    k = np.zeros((seeds, reps), dtype=np.int64)
    medians = []
    previous = 0
    for n in sizes:
        step = n - previous
        cdf = np.cumsum([math.comb(step, x) / 2**step for x in range(step + 1)])
        k += np.searchsorted(cdf, rng.random((seeds, reps)), side="right")
        previous = n
        d = (n - 2 * k) * (top // n)
        medians.append(np.median(d * d, axis=1))
    monotone = np.ones(seeds, dtype=bool)
    for a, b in zip(medians, medians[1:]):
        monotone &= a >= b
    return float(monotone.mean())


def binomial_acceptance_interval(
    trials: int, p: float, false_alarm: float
) -> tuple[int, int]:
    """Equal-tailed [lo, hi] with P(X < lo) and P(X > hi) each at most
    false_alarm / 2 for X ~ Bin(trials, p)."""
    pmf = [
        math.comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(trials + 1)
    ]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= false_alarm / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while tail + pmf[hi] <= false_alarm / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi
