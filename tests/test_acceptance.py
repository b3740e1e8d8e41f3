"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Run with -s to see the verdict lines for passing checks too; pytest shows
them for failures either way. Statistical checks state their measured
counts in the verdict line.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from graphlim import (
    BlackBoxKernel,
    anchored_density,
    anchored_quotient,
    are_isomorphic,
    blowup,
    build_coupling,
    constant,
    convergence_experiment,
    cycle_density_spectral,
    density_exact,
    density_graph,
    density_mc,
    enumerate_simple_graphs,
    find_distinguishing_graph,
    mixed_moment,
    multigraph,
    path_operator_entry,
    product,
    product_identity_check,
    star_multigraph,
    step_graphon,
    twin_partition,
    twin_reduce,
    unlabel,
    weak_iso,
)
from graphlim.corpus import (
    complete_graph,
    cycle_graph,
    graph_corpus,
    graphon_corpus,
    weakly_isomorphic_pairs,
)

from oracles import (
    binomial_acceptance_interval,
    bipartite_k2_monotone_rate,
    brute_density_graph,
    brute_glued_sum,
    brute_mixed_moment,
)

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def disjoint_union(graphs):
    out = graphs[0]
    for g in graphs[1:]:
        out = product(out, g)
    return out


def simple_motifs_up_to_5_nodes():
    """Every simple graph on at most 5 nodes: connected classes plus all
    multisets of connected pieces (single node included) fitting the budget."""
    pieces = [multigraph(1, [])] + list(enumerate_simple_graphs(5))
    motifs = []

    def extend(start: int, chosen: list, nodes_left: int) -> None:
        if chosen:
            motifs.append(disjoint_union(chosen))
        for i in range(start, len(pieces)):
            need = pieces[i].node_count
            if need <= nodes_left:
                extend(i, chosen + [pieces[i]], nodes_left - need)

    extend(0, [], 5)
    return motifs


def multigraphs_up_to_budget(budget: int):
    """Every multigraph with no isolated node and total multiplicity <= budget,
    as multisets of connected multigraphs."""
    connected = []
    for support in enumerate_simple_graphs(7):
        m = len(support.edges)
        if m > budget:
            continue
        for extra in itertools.product(range(budget - m + 1), repeat=m):
            if sum(extra) > budget - m:
                continue
            edges = [
                (u, v, 1 + e) for (u, v, _), e in zip(support.edges, extra)
            ]
            connected.append(multigraph(support.node_count, edges))
    result = []

    def extend(start: int, chosen: list, left: int) -> None:
        if chosen:
            result.append(disjoint_union(chosen))
        for i in range(start, len(connected)):
            need = connected[i].total_multiplicity
            if need <= left:
                extend(i, chosen + [connected[i]], left - need)

    extend(0, [], budget)
    return result


def same_up_to_block_permutation(h1, h2) -> bool:
    if h1.block_count != h2.block_count:
        return False
    b = h1.block_count
    for perm in itertools.permutations(range(b)):
        if all(h1.weights[i] == h2.weights[perm[i]] for i in range(b)) and all(
            h1.values[i][j] == h2.values[perm[i]][perm[j]]
            for i in range(b)
            for j in range(b)
        ):
            return True
    return False


def test_exact_densities_match_brute_force_enumeration():
    t0 = time.monotonic()
    motifs = simple_motifs_up_to_5_nodes()
    hosts = [(n, g) for n, g in graph_corpus().items() if g.node_count <= 6]
    checked = 0
    for f in motifs:
        for name, g in hosts:
            fast = density_graph(f, g)
            assert fast == brute_density_graph(f, g), (name, f)
            checked += 1
    elapsed = time.monotonic() - t0
    verdict(
        "exact density vs brute-force oracle",
        elapsed < 60,
        f"{checked} motif-host pairs equal, {len(motifs)} motifs x "
        f"{len(hosts)} hosts, {elapsed:.1f}s",
    )


def test_blowup_invariance_and_blowup_pair_equivalence():
    t0 = time.monotonic()
    motifs = simple_motifs_up_to_5_nodes()
    checked = 0
    for name, h in graphon_corpus().items():
        base = {id(f): density_exact(f, h) for f in motifs}
        for k in (2, 3):
            hk = blowup(h, k)
            for f in motifs:
                assert density_exact(f, hk) == base[id(f)], (name, k)
                checked += 1
        v = weak_iso(blowup(h, 2), blowup(h, 3))
        assert v.isomorphic, name
    elapsed = time.monotonic() - t0
    verdict(
        "blowup density invariance",
        elapsed < 120,
        f"{checked} densities preserved over {len(motifs)} motifs, "
        f"2x/3x blowups equivalent for all graphons, {elapsed:.1f}s",
    )


def test_twin_reduction_canonical_and_density_preserving():
    motifs = simple_motifs_up_to_5_nodes()
    for name, h in graphon_corpus().items():
        r = twin_reduce(h)
        assert twin_reduce(r) == r, name
        assert twin_partition(r).class_count == r.block_count, name
        assert all(w > 0 for w in r.weights), name
        for f in motifs:
            assert density_exact(f, h) == density_exact(f, r), name
    verdict(
        "twin reduction",
        True,
        f"idempotent, twin-free, {len(motifs)} densities preserved on all graphons",
    )


def test_multi_edge_densities_agree_exactly_on_equivalent_pairs():
    t0 = time.monotonic()
    motifs = multigraphs_up_to_budget(6)
    for name, h1, h2 in weakly_isomorphic_pairs():
        for f in motifs:
            d1 = density_exact(f, h1, node_limit=f.node_count)
            d2 = density_exact(f, h2, node_limit=f.node_count)
            assert d1 == d2, (name, f)
    double = multigraph(2, [(0, 1, 2)])
    d_b = density_exact(double, B)
    d_half = density_exact(double, constant(F(1, 2)))
    assert (d_b, d_half) == (F(1, 2), F(1, 4))
    elapsed = time.monotonic() - t0
    verdict(
        "multi-edge moment agreement",
        True,
        f"{len(motifs)} multigraphs up to total multiplicity 6 agree on all "
        f"equivalent pairs; doubled edge separates 1/2 vs 1/4, {elapsed:.1f}s",
    )


def test_cycle_power_sums_and_exact_path_entries():
    worst = 0.0
    for name, h in graphon_corpus().items():
        for k in range(3, 9):
            exact = float(density_exact(cycle_graph(k), h))
            worst = max(worst, abs(cycle_density_spectral(h, k) - exact))
        for k in range(1, 7):
            path = multigraph(
                k + 1,
                [(t, t + 1, 1) for t in range(k)],
                labels=[(0, 1), (k, 2)],
            )
            for i in range(h.block_count):
                for j in range(h.block_count):
                    assert path_operator_entry(h, i, j, k) == anchored_density(
                        path, h, {1: i, 2: j}
                    ), (name, k)
    verdict(
        "spectral cycle identity",
        worst < 1e-9,
        f"max |t(C_k) - eigenvalue power sum| = {worst:.2e} for k=3..8; "
        "path operator entries exact for k<=6",
    )


def _random_labeled_graph(rng: random.Random, k: int):
    n = rng.randint(max(k, 1), 4)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            m = rng.choice((0, 0, 1, 1, 2))
            if m:
                edges.append((u, v, m))
    nodes = rng.sample(range(n), k)
    return multigraph(n, edges, labels=[(x, i + 1) for i, x in enumerate(nodes)])


def _random_graphon(rng: random.Random):
    b = rng.randint(1, 3)
    raw = [rng.randint(1, 4) for _ in range(b)]
    total = sum(raw)
    weights = [F(x, total) for x in raw]
    values = [[F(0)] * b for _ in range(b)]
    for i in range(b):
        for j in range(i, b):
            values[i][j] = values[j][i] = F(rng.randint(0, 6), 6)
    return step_graphon(weights, values)


def test_labeled_product_density_identity_randomized():
    rng = random.Random(20260819)
    for trial in range(50):
        k = rng.randint(0, 2)
        f1 = _random_labeled_graph(rng, k)
        f2 = _random_labeled_graph(rng, k)
        h = _random_graphon(rng)
        lhs, rhs = product_identity_check(f1, f2, h)
        assert lhs == rhs, (trial, f1, f2, h)
        assert rhs == brute_glued_sum(f1, f2, h), (trial, f1, f2, h)
    verdict(
        "labeled product identity",
        True,
        "50 randomized glued products match anchored sums exactly",
    )


def test_mixed_moments_equal_star_densities_and_full_anchor_reduction():
    checked = 0
    for name, h in graphon_corpus().items():
        blocks = range(h.block_count)
        for size in (1, 2, 3):
            for anchors in itertools.product(blocks, repeat=size):
                for exps in itertools.product((1, 2, 3), repeat=size):
                    direct = brute_mixed_moment(h, list(anchors), list(exps))
                    assert mixed_moment(h, list(anchors), list(exps)) == direct, name
                    star = star_multigraph(exps)
                    pinned = {i + 1: a for i, a in enumerate(anchors)}
                    assert direct == anchored_density(star, h, pinned), name
                    checked += 1
        full = anchored_quotient(h, list(range(h.block_count)))
        assert same_up_to_block_permutation(full, twin_reduce(h)), name
    verdict(
        "mixed moments",
        True,
        f"{checked} star moments exact; fully anchored quotient matches "
        "the twin-free form on every graphon",
    )


def test_couplings_exist_exactly_for_equivalent_pairs():
    corpus = list(graphon_corpus().items())
    built = 0
    for (n1, h1), (n2, h2) in itertools.product(corpus, repeat=2):
        cp = build_coupling(h1, h2)
        equivalent = weak_iso(h1, h2).isomorphic
        assert (cp is not None) == equivalent, (n1, n2)
        if cp is None:
            continue
        built += 1
        assert cp.row_sums() == h1.weights, (n1, n2)
        assert cp.col_sums() == h2.weights, (n1, n2)
        positive = [
            (i, j)
            for i in range(cp.row_count)
            for j in range(cp.col_count)
            if cp.masses[i][j] > 0
        ]
        for (i, j), (k, l) in itertools.product(positive, repeat=2):
            assert h1.values[i][k] == h2.values[j][l], (n1, n2)
    verdict(
        "couplings",
        True,
        f"{built} couplings with exact marginals and consistent support; "
        "none exists for any inequivalent pair",
    )


def test_distinguishing_graph_search():
    found = find_distinguishing_graph(B, constant(F(1, 2)), 3)
    assert found is not None and are_isomorphic(unlabel(found), complete_graph(3))
    for name, h1, h2 in weakly_isomorphic_pairs():
        assert find_distinguishing_graph(h1, h2, 5) is None, name
    verdict(
        "distinguishing graph search",
        True,
        "triangle separates the bipartite kernel from its edge-density twin; "
        "no separator up to 5 nodes for equivalent pairs",
    )


def test_sampling_convergence_and_monte_carlo_calibration():
    # A finite experiment is not promised a falling median at every step;
    # the monotone count must instead follow its own law, Bin(50, p), with
    # p taken from the closed form of nested G(n, B) samples.
    sizes, reps = [50, 100, 200], 20
    p = bipartite_k2_monotone_rate(sizes, reps)
    lo, hi = binomial_acceptance_interval(50, p, 1e-3)
    t0 = time.monotonic()
    k2 = complete_graph(2)
    monotone = 0
    for seed in range(50):
        report = convergence_experiment(B, k2, sizes, reps, seed)
        if report.monotone_decreasing():
            monotone += 1
    kernel = BlackBoxKernel.from_step_graphon(B)
    c4 = cycle_graph(4)
    covered = 0
    for seed in range(200):
        mean, stderr, _ = density_mc(c4, kernel, 100_000, seed)
        if abs(mean - 0.125) <= 4 * stderr:
            covered += 1
    elapsed = time.monotonic() - t0
    detail = (
        f"median error monotone in {monotone}/50 seeds "
        f"(exact law p={p:.3f}, need {lo}..{hi}), "
        f"4-sigma coverage in {covered}/200 seeds (need 198), {elapsed:.0f}s"
    )
    verdict(
        "sampling convergence",
        lo <= monotone <= hi and covered >= 198 and elapsed < 300,
        detail,
    )
