import itertools
import math
import random
import sys
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlim import (
    BlackBoxKernel,
    Estimate,
    anchored_density,
    blowup,
    constant,
    density_exact,
    density_graph,
    density_mc,
    from_graph,
    mixed_moment,
    multigraph,
    product_identity_check,
    step_graphon,
    unlabel,
)
import graphlim.density as density_module
from graphlim import serialize_graph, serialize_graphon
from graphlim.cli import run
from graphlim.corpus import complete_graph, cycle_graph, graphon_corpus, path_graph
from graphlim.streams import DOMAIN_MC_COORDS, philox_stream

from conftest import multigraphs, step_graphons
from oracles import (
    brute_anchored,
    brute_density_exact,
    brute_density_graph,
    brute_mixed_moment,
)

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
HK3 = from_graph(complete_graph(3))
K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
DOUBLE = multigraph(2, [(0, 1, 2)])


def test_return_types():
    assert type(density_exact(K3, HK3)) is F
    assert type(anchored_density(K3, HK3, {})) is F
    assert type(density_graph(K2, K3)) is F
    assert type(mixed_moment(B, [0], [2])) is F
    value = density_mc(cycle_graph(5), BlackBoxKernel.from_step_graphon(MIXED), 2, 5)
    assert type(value) is Estimate
    assert value == (0.12000000000000002, 0.04000000000000001, 2)
    assert str(Estimate(0.125, 0.003, 100)) == "0.125000000000 ± 0.00300000000000 (100)"


@pytest.mark.parametrize(
    "motif,graphon,expected",
    [
        (K2, HK3, F(2, 3)),
        (K3, HK3, F(2, 9)),
        (path_graph(3), HK3, F(4, 9)),
        (K3, B, F(0)),
        (C4, B, F(1, 8)),
        (DOUBLE, B, F(1, 2)),
        (DOUBLE, constant(F(1, 2)), F(1, 4)),
    ],
)
def test_density_exact_known_values(motif, graphon, expected):
    assert density_exact(motif, graphon) == expected


def test_density_graph_vs_graphon_of_same_graph():
    for g in [K3, C4, cycle_graph(5)]:
        H = from_graph(g)
        for f in [K2, K3, path_graph(4), C4]:
            assert density_graph(f, g) == density_exact(f, H)


def test_density_graph_rejects_bad_hosts():
    with pytest.raises(ValueError):
        density_graph(K2, DOUBLE)  # multigraph host
    with pytest.raises(ValueError):
        density_graph(multigraph(2, [(0, 1, 1)], labels=[(0, 1)]), K3)
    with pytest.raises(ValueError):
        density_graph(complete_graph(9), K3)  # over the node limit


@pytest.mark.parametrize("n", [200, 240])  # 200^8 < 2^63 < 240^8
def test_density_graph_closed_form_on_both_integer_widths(n):
    assert density_graph(path_graph(8), complete_graph(n)) == F(
        n * (n - 1) ** 7, n**8
    )


# the scaled entry is 10006: K4 with two doubled edges needs 10006^8 > 2^63,
# C4 needs 10006^4 < 2^63
@pytest.mark.parametrize(
    "motif",
    [multigraph(4, [(0, 1, 2), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3, 2)]), C4],
)
def test_density_exact_closed_form_on_both_integer_widths(motif):
    p = F(10006, 10007)
    got = density_exact(motif, constant(p))
    assert got == p**motif.total_multiplicity


def test_multiplicities_collapse_against_simple_hosts():
    # against a 0/1 host only the support matters
    assert density_graph(DOUBLE, K3) == density_graph(K2, K3)


@given(multigraphs(max_nodes=5), step_graphons(max_blocks=3))
@settings(max_examples=80, deadline=None)
def test_density_exact_matches_brute_force(motif, graphon):
    assert density_exact(motif, graphon) == brute_density_exact(motif, graphon)


@given(multigraphs(max_nodes=4))
@settings(max_examples=40, deadline=None)
def test_density_graph_matches_brute_force(motif):
    for host in [K3, cycle_graph(5)]:
        assert density_graph(motif, host) == brute_density_graph(motif, host)


def test_anchored_density_examples():
    e1 = multigraph(2, [(0, 1, 1)], labels=[(1, 1)])
    assert anchored_density(e1, B, {1: 0}) == F(1, 2)
    e2 = multigraph(2, [(0, 1, 1)], labels=[(0, 1), (1, 2)])
    assert anchored_density(e2, B, {1: 0, 2: 1}) == F(1)
    assert anchored_density(e2, B, {1: 0, 2: 0}) == F(0)
    # no labels: anchors ignored, plain density
    assert anchored_density(C4, B, {}) == density_exact(C4, B)


def test_anchored_density_validation():
    e1 = multigraph(2, [(0, 1, 1)], labels=[(1, 1)])
    with pytest.raises(ValueError, match="no anchor"):
        anchored_density(e1, B, {})
    with pytest.raises(ValueError, match="out of range"):
        anchored_density(e1, B, {1: 5})
    # an anchor for a label the motif lacks is an error, not ignored
    with pytest.raises(ValueError, match=r"^anchored label 5 is not a label of the motif$"):
        anchored_density(e1, B, {1: 0, 5: 1})
    with pytest.raises(ValueError, match="anchored label 1 is not a label"):
        anchored_density(multigraph(2, [(0, 1, 1)]), B, {1: 0})


@given(multigraphs(max_nodes=5, max_labels=3), step_graphons(max_blocks=3))
@settings(max_examples=60, deadline=None)
def test_anchored_density_matches_brute_force(motif, graphon):
    labels = sorted(motif.label_set)
    rng = random.Random(7)
    anchors = {lab: rng.randrange(graphon.block_count) for lab in labels}
    got = anchored_density(motif, graphon, anchors)
    assert got == brute_anchored(motif, graphon, anchors)


def test_mixed_moment_is_star_density():
    assert mixed_moment(B, [0, 1], [1, 1]) == F(0)
    assert mixed_moment(B, [0], [2]) == F(1, 2)
    assert mixed_moment(B, [], []) == F(1)
    assert mixed_moment(HK3, [0, 1], [1, 1]) == F(1, 3)
    # zero exponents contribute nothing
    assert mixed_moment(B, [0, 1], [2, 0]) == mixed_moment(B, [0], [2])
    for h in graphon_corpus().values():
        last = h.block_count - 1
        for anchors, exps in [([], []), ([0], [0]), ([0, 0], [1, 3]), ([last, 0], [2, 1])]:
            assert mixed_moment(h, anchors, exps) == brute_mixed_moment(h, anchors, exps)
    # any number of anchors: more leaves than np.einsum takes operands
    h = graphon_corpus()["blocks3"]
    anchors = [x % h.block_count for x in range(100)]
    exps = [x % 4 for x in range(100)]
    assert mixed_moment(h, anchors, exps) == brute_mixed_moment(h, anchors, exps)
    with pytest.raises(ValueError):
        mixed_moment(B, [0], [1, 2])
    with pytest.raises(ValueError):
        mixed_moment(B, [9], [1])
    with pytest.raises(ValueError):
        mixed_moment(B, [0], [-1])


def _kept_table(motif, graphon):
    """The engine's table over the labeled nodes, in label order, and its scale."""
    r, nw, q, nv = graphon.integer_tables
    kept = [node for node, _ in sorted(motif.labels, key=lambda item: item[1])]
    table = density_module._hom_sum(motif.node_count, motif.edges, nv, nw, {}, kept)
    scale = r ** (motif.node_count - len(kept)) * q**motif.total_multiplicity
    return np.asarray(table, dtype=object), scale


@given(multigraphs(max_nodes=5, max_labels=3), step_graphons(max_blocks=4))
@settings(max_examples=60, deadline=None)
# a kept node with no edge
@example(
    multigraph(3, [(0, 1, 1)], labels=[(2, 1)]),
    step_graphon(["1/3", "2/3"], [["1/2", "1"], ["1", "0"]]),
)
# an edge between two kept nodes, and no free node at all
@example(
    multigraph(2, [(0, 1, 2)], labels=[(0, 1), (1, 2)]),
    step_graphon(["1/3", "2/3"], [["1/2", "1"], ["1", "1/5"]]),
)
# kept nodes out of node order, and an isolated free node
@example(
    multigraph(4, [(0, 2, 1), (1, 2, 3)], labels=[(0, 2), (1, 1)]),
    step_graphon(
        ["1/4", "0", "3/4"], [["1", "0", "1/2"], ["0", "1", "1/3"], ["1/2", "1/3", "0"]]
    ),
)
# the object-dtype branch: 10006**12 overflows int64
@example(
    multigraph(4, [(u, v, 2) for u in range(4) for v in range(u + 1, 4)], labels=[(1, 1), (3, 2)]),
    constant(F(10006, 10007)),
)
def test_kept_table_entries_are_anchored_densities(motif, graphon):
    table, scale = _kept_table(motif, graphon)
    k = len(motif.labels)
    assert table.shape == (graphon.block_count,) * k
    for combo in itertools.product(range(graphon.block_count), repeat=k):
        anchors = {i + 1: b for i, b in enumerate(combo)}
        assert F(table[combo], scale) == brute_anchored(motif, graphon, anchors)


def test_kept_table_dtype_branches():
    k4 = [(u, v, 2) for u in range(4) for v in range(u + 1, 4)]
    _, nw, _, nv = constant(F(10006, 10007)).integer_tables
    big = density_module._hom_sum(4, k4, nv, nw, {}, [1, 3])
    assert big.dtype == object and big.tolist() == [[10006**12]]
    _, nw, _, nv = B.integer_tables
    small = density_module._hom_sum(3, [(0, 1, 1), (1, 2, 1)], nv, nw, {}, [0, 2])
    assert small.dtype == np.int64 and small.tolist() == [[1, 0], [0, 1]]


def _engine_plan(motif, graphon, pinned=None):
    """The engine plan of the motif on the graphon: of its anchored sum with
    pinned nodes, else of its kept table over the labeled nodes."""
    kept = () if pinned else [node for node, _ in sorted(motif.labels, key=lambda item: item[1])]
    return density_module._plan_for(
        motif.node_count, motif.edges, graphon.integer_tables[1], pinned or {}, kept,
        graphon.table_top,
    )


P3 = path_graph(3)
P3_END = multigraph(3, [(0, 1), (1, 2)], labels=[(0, 1)])


# p^2 lands just below or just above a tier limit; p is odd, so a p^2 above
# 2^53 has no exact float64 and a p^2 above 2^63 overflows int64
@pytest.mark.parametrize(
    "p, tier",
    [
        (94906265, np.float64),
        (94906267, np.int64),
        (3037000499, np.int64),
        (3037000501, object),
    ],
)
def test_tier_switches_at_the_bound(p, tier):
    h = constant(F(p, p + 2))
    anchors = {1: 0}
    assert _engine_plan(P3, h).tier is tier
    assert _engine_plan(P3_END, h, {0: 0}).tier is tier
    assert _engine_plan(P3_END, h).tier is tier
    assert density_exact(P3, h) == brute_density_exact(P3, h) == F(p, p + 2) ** 2
    assert anchored_density(P3_END, h, anchors) == brute_anchored(P3_END, h, anchors)
    table, scale = _kept_table(P3_END, h)
    assert table.tolist() == [p**2] and F(table[0], scale) == brute_anchored(P3_END, h, anchors)


_ENGINE_HOST = step_graphon(["1/2", "1/2"], [["1048582/1048583", "1/1048583"], ["1/1048583", "0"]])


@given(
    multigraphs(max_nodes=4, max_labels=2),
    st.sampled_from([6, 1048583, 2**31 - 1]).flatmap(
        lambda d: step_graphons(max_blocks=3, denominator=d)
    ),
    st.none(),
)
@settings(max_examples=60, deadline=None)
@example(multigraph(3, [(0, 1), (0, 2), (1, 2)], labels=[(0, 1)]), B, np.float64)
# 2 free nodes over weight total 2, and 3 edges on entries up to 2^20: 2^62
@example(multigraph(3, [(0, 1), (0, 2), (1, 2)], labels=[(0, 1)]), _ENGINE_HOST, np.int64)
@example(multigraph(3, [(0, 1, 2), (0, 2), (1, 2, 2)], labels=[(0, 1)]), _ENGINE_HOST, object)
def test_every_tier_matches_the_oracles(motif, graphon, tier):
    if tier is not None:
        assert _engine_plan(motif, graphon).tier is tier
    plain = unlabel(motif)
    assert density_exact(plain, graphon) == brute_density_exact(plain, graphon)
    anchors = {lab: (lab * 7) % graphon.block_count for lab in motif.label_set}
    assert anchored_density(motif, graphon, anchors) == brute_anchored(motif, graphon, anchors)
    table, scale = _kept_table(motif, graphon)
    for combo in itertools.product(range(graphon.block_count), repeat=len(motif.labels)):
        anchors = {i + 1: b for i, b in enumerate(combo)}
        assert F(table[combo], scale) == brute_anchored(motif, graphon, anchors)


def _graph_of(adjacency):
    n = len(adjacency)
    return multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j]])


@given(multigraphs(max_nodes=4), st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
# a 40-node host: the first triangle bucket has 40^3 entries, over the
# float64 BLAS threshold
@example(K3, 40, 5)
def test_adjacency_density_matches_brute_force(motif, n, seed):
    """The convergence experiment's path: a leading block of a larger
    symmetric uint8 adjacency."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 2, (n + 3, n + 3), dtype=np.uint8), 1)
    adjacency = (upper + upper.T)[:n, :n]
    if n >= 26 and motif.node_count == 3 and len(motif.edges) == 3:
        plan = density_module._plan_for(3, K3.edges, [1] * n, {}, (), 1)
        assert plan.tier is np.float64 and plan.steps[0].pairs
    got = density_module.adjacency_density(motif, adjacency)
    assert got == brute_density_graph(motif, _graph_of(adjacency))


def test_cached_plans_run_without_a_path_search(monkeypatch):
    """A float64 bucket over the BLAS threshold keeps its pairwise
    contractions in the cached plan, so a planned call searches no einsum
    path: K3 on a 200-node host and K4 on 16 blocks."""
    rng = np.random.default_rng(17)
    upper = np.triu(rng.integers(0, 2, (200, 200), dtype=np.uint8), 1)
    adjacency = upper + upper.T
    h16 = step_graphon(
        [f"{i + 1}/136" for i in range(16)],
        [[f"{(i * j + i + j) % 8}/7" for j in range(16)] for i in range(16)],
    )
    k4 = complete_graph(4)
    assert density_module._plan_for(3, K3.edges, [1] * 200, {}, (), 1).steps[0].pairs
    assert _engine_plan(k4, h16).tier is np.float64 and _engine_plan(k4, h16).steps[0].pairs
    calls = [
        lambda: density_module.adjacency_density(K3, adjacency),
        lambda: density_exact(k4, h16),
    ]
    first = [call() for call in calls]
    a = adjacency.astype(np.int64)
    r, nw, q, nv = h16.integer_tables
    w, t = np.array(nw, dtype=np.int64), nv.astype(np.int64)
    k4_sum = np.einsum("a,b,c,d,ab,ac,ad,bc,bd,cd->", w, w, w, w, t, t, t, t, t, t)
    assert first == [F(int(np.trace(a @ a @ a)), 200**3), F(int(k4_sum), r**4 * q**6)]

    def no_search(*args, **kwargs):
        raise AssertionError("einsum path search on a planned call")

    monkeypatch.setattr(np, "einsum_path", no_search)
    monkeypatch.setattr(sys.modules[np.einsum.__wrapped__.__module__], "einsum_path", no_search)
    assert [call() for call in calls] == first


# 26 blocks: a bucket over three nodes has 26^3 entries, over the float64
# BLAS threshold; unequal multiplicities make its pairwise results asymmetric
H26 = step_graphon(
    [f"{i % 5 + 1}/76" for i in range(26)],
    [[f"{(i * j + i + j) % 8}/7" for j in range(26)] for i in range(26)],
)


@pytest.mark.parametrize(
    "motif",
    [
        multigraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)]),
        multigraph(3, [(0, 1, 1), (1, 2, 2)], labels=[(0, 1), (2, 2)]),
        multigraph(3, [(0, 1, 2), (1, 2, 1)], labels=[(2, 1), (0, 2)]),
        # a path 2-1-0-3: its second bucket's tensordot comes out transposed
        multigraph(4, [(0, 1, 1), (0, 3, 2), (1, 2, 1)], labels=[(2, 1), (3, 2)]),
    ],
)
def test_pairwise_buckets_match_the_oracles(motif):
    assert any(step.pairs for step in _engine_plan(motif, H26).steps)
    plain = unlabel(motif)
    if motif.node_count == 3:
        assert density_exact(plain, H26) == brute_density_exact(plain, H26)
    if motif.labels:
        table, scale = _kept_table(motif, H26)
        for a, b in itertools.product(range(0, 26, 3), range(1, 26, 4)):
            assert F(table[a, b], scale) == brute_anchored(motif, H26, {1: a, 2: b})


def test_plans_are_not_shared_across_calls_that_differ():
    """One motif shape at several block counts, pinned sets and kept sets,
    interleaved so that a stale plan would be reused."""
    c4 = multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3, 2)])
    hosts = [
        B,
        step_graphon(
            ["1/6", "1/3", "1/2"], [["1", "1/2", "0"], ["1/2", "1/3", "1"], ["0", "1", "1/4"]]
        ),
        HK3,
    ]
    for h in hosts * 2:
        b = h.block_count
        assert density_exact(c4, h) == brute_density_exact(c4, h)
        for nodes in [(0,), (2,), (0, 2), (1, 3), (2, 0), (3, 1, 0)]:
            labeled = multigraph(4, c4.edges, labels=[(x, i + 1) for i, x in enumerate(nodes)])
            anchors = {i + 1: (i + b - 1) % b for i in range(len(nodes))}
            assert anchored_density(labeled, h, anchors) == brute_anchored(labeled, h, anchors)
            table, scale = _kept_table(labeled, h)
            for combo in itertools.product(range(b), repeat=len(nodes)):
                at = {i + 1: x for i, x in enumerate(combo)}
                assert F(table[combo], scale) == brute_anchored(labeled, h, at)


def test_cached_table_powers_are_read_only():
    h = step_graphon(["1/3", "2/3"], [["1/2", "1"], ["1", "1/5"]])
    for tier in (np.float64, np.int64, object):
        power = h.table_power(tier, 2)
        assert h.table_power(tier, 2) is power
        assert power.tolist() == [[25, 100], [100, 4]]
        with pytest.raises(ValueError):
            power[0, 0] = 0
    assert h.table_top == 10


def test_product_identity_on_fixed_cases():
    cherry = multigraph(3, [(0, 1, 1), (0, 2, 1)], labels=[(0, 1)])
    for H in [B, HK3, constant(F(1, 3))]:
        lhs, rhs = product_identity_check(cherry, cherry, H)
        assert lhs == rhs
    # 2-labeled: gluing doubles the edge
    e2 = multigraph(2, [(0, 1, 1)], labels=[(0, 1), (1, 2)])
    lhs, rhs = product_identity_check(e2, e2, B)
    assert lhs == rhs == F(1, 2)


def test_product_identity_label_validation():
    a = multigraph(2, [(0, 1, 1)], labels=[(0, 1)])
    b = multigraph(2, [(0, 1, 1)], labels=[(0, 2)])
    with pytest.raises(ValueError, match="label sets differ"):
        product_identity_check(a, b, B)
    c = multigraph(2, [(0, 1, 1)], labels=[(0, 3)])
    with pytest.raises(ValueError, match="1..k"):
        product_identity_check(c, c, B)


def test_density_mc_deterministic_and_calibrated():
    kernel = BlackBoxKernel.from_step_graphon(B)
    a = density_mc(C4, kernel, 40000, 99)
    b = density_mc(C4, kernel, 40000, 99)
    assert a == b
    mean, stderr, n = a
    assert n == 40000
    assert abs(mean - 0.125) < 5 * stderr
    c = density_mc(C4, kernel, 40000, 100)
    assert c != a  # seed actually matters


def test_density_mc_scalar_fallback_agrees():
    # a deliberately non-vectorizable evaluator must hit the scalar path
    table = BlackBoxKernel.from_step_graphon(B)
    scalar = BlackBoxKernel(lambda x, y: float(table(float(x), float(y))))
    v = density_mc(K2, scalar, 500, 3)
    w = density_mc(K2, table, 500, 3)
    assert v == w


MIXED = step_graphon(
    ["1/6", "1/3", "1/2"],
    [["1/7", "6/7", "0"], ["6/7", "1/2", "2/5"], ["0", "2/5", "1"]],
)
K3M2 = multigraph(3, [(0, 1, 2), (0, 2, 1), (1, 2, 1)])


@pytest.mark.parametrize("motif", [K2, K3, cycle_graph(5), K3M2], ids=["K2", "K3", "C5", "K3m2"])
@pytest.mark.parametrize("graphon", [MIXED, from_graph(path_graph(4))], ids=["mixed", "0/1"])
def test_density_mc_kernels_agree_bit_for_bit(motif, graphon):
    # block points, coordinate-level vectorised evaluation, and scalar calls
    step = BlackBoxKernel.from_step_graphon(graphon)
    coordinate = BlackBoxKernel(lambda x, y: step(x, y))
    scalar = BlackBoxKernel(lambda x, y: float(step(float(x), float(y))))
    assert density_module._vectorized(coordinate) and not density_module._vectorized(scalar)
    estimates = {density_mc(motif, k, 3000, 17) for k in (step, coordinate, scalar)}
    assert len(estimates) == 1


PADDED = step_graphon(
    ["0", "1/4", "0", "3/4", "0"],
    [["1", "1", "1", "1", "1"], ["1", "1/3", "1", "2/3", "1"], ["1", "1", "0", "1", "0"],
     ["1", "2/3", "1", "1/5", "1"], ["1", "1", "0", "1", "1"]],
)
MC_KERNELS = {
    "step-mixed": BlackBoxKernel.from_step_graphon(MIXED),
    "step-padded": BlackBoxKernel.from_step_graphon(PADDED),
    "product": BlackBoxKernel(lambda x, y: x * y),
    "minimum": BlackBoxKernel(min),  # min of two arrays raises: scalar loop
}
MC_MOTIFS = {"K3": K3, "C5": cycle_graph(5), "K3m2": K3M2}


@pytest.mark.parametrize(
    "motif,kernel,samples,seed,text,mean,stderr",
    [
        ("C5", "step-mixed", 2, 5, "0.120000000000 ± 0.0400000000000 (2)",
         0.12000000000000002, 0.04000000000000001),
        ("K3", "step-mixed", 70001, 11, "0.206532202809 ± 0.00118380334772 (70001)",
         0.20653220280943094, 0.0011838033477243278),
        ("C5", "step-padded", 131073, 23, "0.0110346210956 ± 0.0000471855217945 (131073)",
         0.01103462109560472, 4.718552179454818e-05),
        ("K3m2", "step-mixed", 65537, 7, "0.170659174875 ± 0.00123673782336 (65537)",
         0.17065917487549137, 0.0012367378233590304),
        ("K3", "step-padded", 16383, 29, "0.0629285189481 ± 0.000399650247900 (16383)",
         0.06292851894805138, 0.00039965024789989596),
        ("C5", "product", 16385, 31, "0.00416529495267 ± 0.000133730463082 (16385)",
         0.004165294952668056, 0.00013373046308213222),
        ("K3", "product", 100000, 3, "0.0368613833404 ± 0.000255786065838 (100000)",
         0.03686138334036404, 0.00025578606583776344),
        ("K3m2", "minimum", 70001, 13, "0.0398218883920 ± 0.000324251041235 (70001)",
         0.03982188839203535, 0.00032425104123473634),
        ("C5", "minimum", 2, 1, "0.0290594018738 ± 0.0290534419988 (2)",
         0.029059401873793106, 0.02905344199884389),
    ],
)
def test_density_mc_goldens(motif, kernel, samples, seed, text, mean, stderr):
    # pinned bit for bit: sample counts on both sides of a chunk boundary,
    # the vectorised and the scalar loop, zero-weight blocks, multiplicities
    value = density_mc(MC_MOTIFS[motif], MC_KERNELS[kernel], samples, seed)
    assert str(value) == text
    assert value == (mean, stderr, samples)


def _same_fsum(values: list[float]) -> None:
    try:
        expected = math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            density_module._fsum(np.array(values))
        return
    assert density_module._fsum(np.array(values)).hex() == expected


_TINY = 2.2250738585072014e-308  # smallest normal double
_ADDENDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-_TINY, _TINY),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0**53, 2.0**-1022]),
)


@st.composite
def _cancelling_arrays(draw, addends=_ADDENDS):
    values = draw(st.lists(addends, max_size=40))
    cancel = draw(st.lists(st.sampled_from(values), max_size=len(values))) if values else []
    return draw(st.permutations(values + [-x for x in cancel]))


@given(_cancelling_arrays())
@example([1e308, 1e308, -1e308])
@example([1.7976931348623157e308, 1.7976931348623157e308 * 2.0**-53])
@example([2.0**-1074] * 3 + [-(2.0**-1073)])
@example([1.0, 2.0**-53, 2.0**-105])
@example([1.0, 2.0**-53, -(2.0**-105)])
@settings(max_examples=300, deadline=None)
def test_fsum_is_math_fsum(values):
    _same_fsum(values)
    with mock.patch.object(density_module, "_FSUM_CHUNK", 3):
        _same_fsum(values)


@given(_cancelling_arrays(st.one_of(_ADDENDS, st.sampled_from([math.inf, -math.inf, math.nan]))))
@example([math.inf, -math.inf])
@example([math.inf, 1.0])
@example([math.nan, 1.0])
@settings(max_examples=100, deadline=None)
def test_fsum_leaves_non_finite_arrays_to_math_fsum(values):
    _same_fsum(values)


def test_fsum_on_a_long_array_of_mixed_exponents():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(200_003) * 2.0 ** rng.integers(-60, 60, 200_003)
    values[::7] = -values[1::7][: len(values[::7])]
    assert density_module._fsum(values) == math.fsum(values.tolist())


def _same_fsum_path(values: np.ndarray, binned: bool) -> None:
    # _fsum is math.fsum bit for bit, and sends a residual to the exponent
    # bins exactly when the two extraction levels leave one
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        assert density_module._fsum(values).hex() == math.fsum(values.tolist()).hex()
    assert bincount.called == binned


def test_fsum_skips_all_zero_chunks():
    chunk = density_module._FSUM_CHUNK
    _same_fsum_path(np.zeros(2 * chunk + 5), binned=False)
    rng = np.random.default_rng(1)
    values = np.concatenate([rng.random(100), np.zeros(2 * chunk), -rng.random(7)])
    _same_fsum_path(values, binned=False)


def test_fsum_finishes_narrow_exponents_within_the_extraction_levels():
    # every exponent within 21 of the largest: two levels take every bit
    rng = np.random.default_rng(2)
    n = 3 * density_module._FSUM_CHUNK + 11
    values = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-20, 1, n)
    _same_fsum_path(values, binned=False)
    _same_fsum_path(values * 2.0**-1000, binned=False)
    _same_fsum_path(values * 2.0**900, binned=False)


def test_fsum_bins_what_the_extraction_levels_leave():
    rng = np.random.default_rng(3)
    n = 200_003
    _same_fsum_path(rng.random(n) ** 40, binned=True)
    wide = rng.standard_normal(n) * 2.0 ** rng.integers(-1000, 901, n)
    wide[::5] = -wide[1::5][: len(wide[::5])]
    _same_fsum_path(wide, binned=True)


def test_fsum_on_subnormals():
    rng = np.random.default_rng(4)
    subnormal = rng.integers(-(2**52), 2**52, 40_000) * 5e-324
    _same_fsum_path(subnormal, binned=False)
    # next to normal values, subnormals fall below the second level
    _same_fsum_path(np.concatenate([subnormal, [1.0, -(2.0**-1022), 3.5]]), binned=True)


# two levels take all 53 bits of a single value, so chunks of one never bin
@pytest.mark.parametrize("chunk,binned", [(1, False), (3, True)])
def test_fsum_with_tiny_chunks(chunk, binned):
    rng = np.random.default_rng(chunk)
    values = np.concatenate([
        rng.random(50) ** 40,
        np.zeros(7),
        rng.integers(-(2**52), 2**52, 20) * 5e-324,
        rng.standard_normal(50) * 2.0 ** rng.integers(-1000, 901, 50),
        [1.0, -1.0, 2.0**-1074],
    ])
    rng.shuffle(values)
    with mock.patch.object(density_module, "_FSUM_CHUNK", chunk):
        _same_fsum_path(values, binned)
        _same_fsum_path(np.zeros(10), binned=False)


@given(
    graphon=step_graphons(),
    motif=st.sampled_from(["K2", "K3", "C5", "K3m2"]),
    samples=st.integers(2, 200),
    seed=st.integers(0, 2**32),
)
@example(graphon=MIXED, motif="K3m2", samples=4099, seed=5)
@settings(max_examples=25, deadline=None)
def test_density_mc_is_chunk_invariant(graphon, motif, samples, seed):
    # any sharding of the samples gives the identical estimate
    motif = {"K2": K2, **MC_MOTIFS}[motif]
    kernel = BlackBoxKernel.from_step_graphon(graphon)
    expected = density_mc(motif, kernel, samples, seed)
    for chunk in (1, 3, 4096):
        with mock.patch.object(density_module, "_FSUM_CHUNK", chunk):
            assert density_mc(motif, kernel, samples, seed) == expected


@pytest.mark.parametrize("scale", [1e150, 1e300], ids=["squares", "values"])
def test_density_mc_leaves_huge_values_to_math_fsum(scale):
    # 1e150: the squared deviations reach 2**959; 1e300: the values do, in
    # the first chunk, so the draw must still run to the end
    samples, seed = density_module._FSUM_CHUNK + 1000, 8
    coords = philox_stream(seed, DOMAIN_MC_COORDS).random((samples, 2))
    values = scale * coords[:, 0] * coords[:, 1]
    kernel = BlackBoxKernel(lambda x, y: scale * x * y)
    with np.errstate(over="ignore"):
        mean = math.fsum(values.tolist()) / samples
        var = math.fsum(np.square(values - mean).tolist()) / (samples - 1)
        estimate = density_mc(K2, kernel, samples, seed)
    assert estimate == (mean, math.sqrt(var / samples), samples)


def test_density_mc_memory_guard(monkeypatch, tmp_path, capsys):
    kernel = BlackBoxKernel.from_step_graphon(B)
    monkeypatch.setattr(density_module, "MAX_MC_BYTES", 100 * 3 * 8)
    assert density_mc(K3, kernel, 100, 0).samples == 100
    budget = "101 samples of 3 coordinates need 2424 bytes, over the budget of 2400 bytes"
    with pytest.raises(ValueError, match=budget):
        density_mc(K3, kernel, 101, 0)
    graphon, motif = tmp_path / "b.json", tmp_path / "k3.txt"
    graphon.write_text(serialize_graphon(B))
    motif.write_text(serialize_graph(K3))
    argv = ["density", "--graph", str(motif), "--graphon", str(graphon), "--mc", "101"]
    assert run(argv) == 1
    assert budget in capsys.readouterr().err


def test_density_mc_validation():
    kernel = BlackBoxKernel.from_step_graphon(B)
    with pytest.raises(ValueError):
        density_mc(K2, kernel, 1, 0)
    labeled = multigraph(2, [(0, 1, 1)], labels=[(0, 1)])
    with pytest.raises(ValueError):
        density_mc(labeled, kernel, 10, 0)


def test_densities_multiplicative_over_components():
    k3_k2 = multigraph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1)])
    for H in graphon_corpus().values():
        lhs = density_exact(k3_k2, H)
        rhs = density_exact(K3, H) * density_exact(K2, H)
        assert lhs == rhs


def test_blowup_invariance_spot():
    for H in [B, HK3]:
        for k in (2, 3):
            assert density_exact(C4, blowup(H, k)) == density_exact(C4, H)
