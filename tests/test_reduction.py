import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim import (
    BlockPartition,
    anchor_tags,
    anchored_quotient,
    blowup,
    build_coupling,
    common_quotient,
    constant,
    density_exact,
    enumerate_simple_graphs,
    find_distinguishing_graph,
    mixed_moment,
    parse_coupling,
    quotient,
    random_anchors,
    render_verdict,
    serialize_coupling,
    step_graphon,
    twin_partition,
    twin_reduce,
    weak_iso,
)
from graphlim.corpus import graphon_corpus, weakly_isomorphic_pairs
from graphlim.reduction import discrete_partition, parse_partition

from conftest import step_graphons

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
HALF = constant(F(1, 2))


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


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(())
    with pytest.raises(ValueError):
        BlockPartition((0, 2))  # gap in class ids
    p = BlockPartition((0, 1, 0))
    assert p.class_count == 2 and p.members(0) == [0, 2]


def test_parse_partition():
    assert parse_partition("0,1|2", 3).class_of == (0, 0, 1)
    assert parse_partition("2|0|1", 3).class_of == (1, 2, 0)
    with pytest.raises(ValueError, match="twice"):
        parse_partition("0|0,1", 2)
    with pytest.raises(ValueError, match="missing"):
        parse_partition("0", 2)
    with pytest.raises(ValueError, match="out of range"):
        parse_partition("0,5", 2)


def test_twin_partition_examples():
    assert twin_partition(blowup(B, 2)).class_of == (0, 1, 0, 1)
    assert twin_partition(B).class_of == (0, 1)
    split_constant = step_graphon(["1/4"] * 4, [["1/2"] * 4] * 4)
    assert twin_partition(split_constant).class_count == 1


def test_twin_partition_ignores_zero_weight_columns():
    # blocks 0,1 differ only against the weightless block 2
    H = step_graphon(
        ["1/2", "1/2", "0"],
        [["1/3", "1/3", "0"], ["1/3", "1/3", "1"], ["0", "1", "0"]],
    )
    p = twin_partition(H)
    assert p.class_of[0] == p.class_of[1]


def test_quotient_examples():
    H3 = blowup(B, 3)
    assert quotient(H3, twin_partition(H3)) == B
    assert quotient(B, discrete_partition(2)) == B
    assert quotient(B, BlockPartition((0, 0))) == constant(F(1, 2))


def test_quotient_drops_zero_weight_classes():
    H = step_graphon(
        ["1/2", "1/2", "0"],
        [["0", "1", "1/2"], ["1", "0", "1/7"], ["1/2", "1/7", "1"]],
    )
    q = quotient(H, discrete_partition(3))
    assert q.block_count == 2 and q == B


def test_twin_reduce_idempotent_and_twin_free():
    for name, H in graphon_corpus().items():
        r = twin_reduce(H)
        assert twin_reduce(r) == r, name
        assert all(w > 0 for w in r.weights), name
        assert twin_partition(r).class_count == r.block_count, name


@given(step_graphons(max_blocks=4))
@settings(max_examples=80, deadline=None)
def test_twin_reduce_idempotent_random(H):
    r = twin_reduce(H)
    assert twin_reduce(r) == r
    assert all(w > 0 for w in r.weights)
    rows = [tuple(row) for row in r.values]
    assert len(set(rows)) == len(rows)  # pairwise distinct rows


def test_twin_reduce_collapses_blowups():
    for k in (1, 2, 3):
        assert twin_reduce(blowup(B, k)) == B
    quarters = step_graphon(["1/4"] * 4, [["2/3"] * 4] * 4)
    assert twin_reduce(quarters) == constant(F(2, 3))


def test_density_preserved_by_twin_reduce():
    motifs = list(enumerate_simple_graphs(5))
    for name, H in graphon_corpus().items():
        r = twin_reduce(H)
        for f in motifs:
            assert density_exact(f, H) == density_exact(f, r), name


def test_anchor_tags_examples():
    tags, part = anchor_tags(B, [0])
    assert tags == [(F(0),), (F(1),)]
    assert part.class_of == (0, 1)
    _, empty = anchor_tags(B, [])
    assert empty.class_count == 1
    _, p = anchor_tags(blowup(B, 2), [0, 1])
    assert p.class_of == twin_partition(blowup(B, 2)).class_of
    with pytest.raises(ValueError):
        anchor_tags(B, [4])


@given(step_graphons(max_blocks=6), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=60, deadline=None)
def test_anchor_tags_read_the_value_view(graphon, picks):
    anchors = [a % graphon.block_count for a in picks]
    tags, part = anchor_tags(graphon, anchors)
    view = [tuple(row[a] for a in anchors) for row in graphon.values]
    assert tags == view
    assert part == BlockPartition.from_keys(view)


def test_random_anchors_distribution_and_determinism():
    draws = random_anchors(B, 10000, 5)
    assert random_anchors(B, 10000, 5) == draws
    assert random_anchors(B, 0, 5) == []
    freq = draws.count(0) / 10000
    assert abs(freq - 0.5) < 0.02
    skew = step_graphon(["9/10", "1/10"], [["0", "0"], ["0", "0"]])
    skew_draws = random_anchors(skew, 10000, 5)
    assert abs(skew_draws.count(0) / 10000 - 0.9) < 0.02


def test_anchored_quotient_examples():
    assert anchored_quotient(B, [0]) == B
    assert anchored_quotient(B, []) == constant(F(1, 2))
    for name, H in graphon_corpus().items():
        full = anchored_quotient(H, list(range(H.block_count)))
        assert same_up_to_block_permutation(full, twin_reduce(H)), name


def test_tag_partition_hits_twin_partition_with_enough_anchors():
    # one representative anchor per twin class is already enough
    twinned = graphon_corpus()["twinned"]
    assert same_up_to_block_permutation(
        anchored_quotient(twinned, [0, 2]), twin_reduce(twinned)
    )


def test_random_anchor_partition_regularity_rate():
    # statistical: with m = 8*blocks anchors the tag partition almost
    # always refines to the twin classes
    hits = 0
    trials = 500
    twinned = graphon_corpus()["twinned"]
    expected = twin_reduce(twinned)
    for seed in range(trials):
        anchors = random_anchors(twinned, 8 * twinned.block_count, seed)
        if same_up_to_block_permutation(anchored_quotient(twinned, anchors), expected):
            hits += 1
    assert hits / trials >= 0.99


def test_weak_iso_verdicts():
    v = weak_iso(blowup(B, 2), blowup(B, 3))
    assert v.isomorphic and v.bijection is not None
    assert "Isomorphic" in render_verdict(v)
    v2 = weak_iso(B, HALF)
    assert not v2.isomorphic and "block counts differ" in v2.witness
    v3 = weak_iso(B, B)
    assert v3.isomorphic and v3.bijection == (0, 1)


def test_weak_iso_block_permutation():
    uneven = graphon_corpus()["uneven"]
    permuted = step_graphon(
        ["2/3", "1/3"], [["1/2", "3/4"], ["3/4", "1/4"]]
    )
    v = weak_iso(uneven, permuted)
    assert v.isomorphic and v.bijection == (1, 0)


def test_weak_iso_weight_witness():
    a = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "1/2"]])
    b = step_graphon(["1/3", "2/3"], [["0", "1"], ["1", "1/2"]])
    v = weak_iso(a, b)
    assert not v.isomorphic
    assert v.witness == "weight multisets differ: ['1/2', '1/2'] vs ['1/3', '2/3']"


def test_weak_iso_value_witness():
    a = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "1/2"]])
    b = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "1/3"]])
    v = weak_iso(a, b)
    assert not v.isomorphic and "value multisets differ" in v.witness


def test_weak_iso_on_corpus_pairs():
    for name, h1, h2 in weakly_isomorphic_pairs():
        v = weak_iso(h1, h2)
        assert v.isomorphic, name


def test_find_distinguishing_graph():
    f = find_distinguishing_graph(B, HALF, 3)
    assert f is not None
    assert f.node_count == 3 and f.total_multiplicity == 3  # the triangle
    assert find_distinguishing_graph(B, blowup(B, 2), 5) is None
    g = find_distinguishing_graph(HALF, constant(F(1, 3)), 2)
    assert g is not None and g.node_count == 2
    with pytest.raises(ValueError):
        find_distinguishing_graph(B, HALF, 9)


def test_common_quotient_maps_pull_back_values():
    for name, h1, h2 in weakly_isomorphic_pairs():
        cq = common_quotient(h1, h2)
        assert cq is not None, name
        u, map1, map2 = cq
        for h, mp in ((h1, map1), (h2, map2)):
            for i in mp:
                for j in mp:
                    assert h.values[i][j] == u.values[mp[i]][mp[j]], name
            # positive-weight blocks exactly covered
            assert set(mp) == {b for b, w in enumerate(h.weights) if w > 0}
    assert common_quotient(B, HALF) is None


def test_coupling_parity_example():
    cp = build_coupling(B, blowup(B, 2))
    expect = [
        [F(1, 4) if j % 2 == i else F(0) for j in range(4)] for i in range(2)
    ]
    assert [list(r) for r in cp.masses] == expect
    assert cp.row_sums() == (F(1, 2), F(1, 2))
    assert cp.col_sums() == (F(1, 4),) * 4


def test_coupling_diagonal_and_failure():
    cp = build_coupling(B, B)
    assert [list(r) for r in cp.masses] == [[F(1, 2), F(0)], [F(0), F(1, 2)]]
    assert build_coupling(B, HALF) is None


def test_coupling_marginals_and_support_on_pairs():
    for name, h1, h2 in weakly_isomorphic_pairs():
        cp = build_coupling(h1, h2)
        assert cp is not None, name
        assert cp.row_sums() == h1.weights, name
        assert cp.col_sums() == h2.weights, name
        positive = [
            (i, j)
            for i in range(cp.row_count)
            for j in range(cp.col_count)
            if cp.masses[i][j] > 0
        ]
        for i, j in positive:
            for k, l in positive:
                assert h1.values[i][k] == h2.values[j][l], name


def test_coupling_round_trip():
    cp = build_coupling(B, blowup(B, 2))
    assert parse_coupling(serialize_coupling(cp)) == cp
    with pytest.raises(ValueError):
        parse_coupling("not json")
    with pytest.raises(ValueError):
        parse_coupling('{"masses": [["1"]], "rows": 5}')


def test_mixed_moment_transfer_between_reduced_forms():
    for name, h1, h2 in weakly_isomorphic_pairs():
        v = weak_iso(h1, h2)
        r1, r2 = twin_reduce(h1), twin_reduce(h2)
        sigma = v.bijection
        blocks = range(r1.block_count)
        for size in (1, 2, 3):
            for anchors in itertools.product(blocks, repeat=size):
                for exps in itertools.product((1, 2, 3), repeat=size):
                    lhs = mixed_moment(r1, list(anchors), list(exps))
                    rhs = mixed_moment(
                        r2, [sigma[a] for a in anchors], list(exps)
                    )
                    assert lhs == rhs, name


# -- Fraction references ------------------------------------------------------
# The formulas below compute on Fraction entries directly, independently of
# the integer tables the library works on.


def _first_appearance(keys) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def ref_twin_partition(h) -> tuple[int, ...]:
    positive = [j for j, w in enumerate(h.weights) if w > 0]
    return _first_appearance(tuple(row[j] for j in positive) for row in h.values)


def ref_quotient(h_weights, h_values, class_of):
    c = max(class_of) + 1
    class_weight = [F(0)] * c
    for b, cid in enumerate(class_of):
        class_weight[cid] += h_weights[b]
    keep = [cid for cid in range(c) if class_weight[cid] > 0]
    index = {cid: k for k, cid in enumerate(keep)}
    raw = [[F(0)] * len(keep) for _ in keep]
    for i, wi in enumerate(h_weights):
        for j, wj in enumerate(h_weights):
            if wi > 0 and wj > 0:
                raw[index[class_of[i]]][index[class_of[j]]] += wi * wj * h_values[i][j]
    weights = [class_weight[cid] for cid in keep]
    values = [
        [raw[s][t] / (weights[s] * weights[t]) for t in range(len(keep))]
        for s in range(len(keep))
    ]
    return weights, values


def ref_twin_reduce_with_map(h):
    """(weights, values, {positive block: reduced block}) of the reduced form."""
    kept = [b for b, w in enumerate(h.weights) if w > 0]
    class_of = _first_appearance(tuple(h.values[i][j] for j in kept) for i in kept)
    weights, values = ref_quotient(
        [h.weights[b] for b in kept], [[h.values[i][j] for j in kept] for i in kept], class_of
    )
    return weights, values, dict(zip(kept, class_of))


def ref_match(w1, v1, w2, v2):
    """Verdict text of the reduced-form matching, bijection or witness."""
    n = len(w1)
    if n != len(w2):
        return f"NotIsomorphic\nwitness: reduced block counts differ: {n} vs {len(w2)}"
    if sorted(w1) != sorted(w2):
        return (
            "NotIsomorphic\nwitness: weight multisets differ: "
            f"{[str(w) for w in sorted(w1)]} vs {[str(w) for w in sorted(w2)]}"
        )
    if sorted(x for row in v1 for x in row) != sorted(x for row in v2 for x in row):
        return "NotIsomorphic\nwitness: value multisets differ"

    def profile(w, v, b):
        return w[b], tuple(sorted((v[b][j], w[j]) for j in range(n)))

    order = sorted(range(n), key=lambda b: profile(w1, v1, b))
    image = [-1] * n

    def rec(d):
        if d == n:
            return True
        i = order[d]
        for j in range(n):
            if j in image or profile(w2, v2, j) != profile(w1, v1, i):
                continue
            if all(v1[i][k] == v2[j][image[k]] for k in order[:d]):
                image[i] = j
                if rec(d + 1):
                    return True
                image[i] = -1
        return False

    if not rec(0):
        return "NotIsomorphic\nwitness: no weight- and value-preserving block bijection exists"
    return "Isomorphic\nreduced block mapping: " + ", ".join(
        f"{i} -> {j}" for i, j in enumerate(image)
    )


def ref_coupling(h1, h2):
    w1, v1, map1 = ref_twin_reduce_with_map(h1)
    w2, v2, map2 = ref_twin_reduce_with_map(h2)
    text = ref_match(w1, v1, w2, v2)
    if not text.startswith("Isomorphic"):
        return None
    pairs = text.split(": ")[1].split(", ")
    inverse = {int(p.split(" -> ")[1]): int(p.split(" -> ")[0]) for p in pairs}
    map2 = {b: inverse[c] for b, c in map2.items()}
    return [
        [
            h1.weights[i] * h2.weights[j] / w1[map1[i]]
            if i in map1 and j in map2 and map1[i] == map2[j]
            else F(0)
            for j in range(h2.block_count)
        ]
        for i in range(h1.block_count)
    ]


def _nudge(draw, h):
    """h with one symmetric value pair between positive blocks changed."""
    live = [x for x, w in enumerate(h.weights) if w > 0]
    i, j = draw(st.sampled_from(live)), draw(st.sampled_from(live))
    values = [list(row) for row in h.values]
    old = values[i][j]
    values[i][j] = values[j][i] = old + F(1, 6) if old <= F(1, 2) else old - F(1, 6)
    return step_graphon(h.weights, values)


@st.composite
def permuted_double_blowups(draw):
    """A graphon h, its 2-fold blowup g with shuffled blocks, and one-value
    perturbations of both."""
    h = draw(step_graphons(max_blocks=8))
    b = h.block_count
    perm = draw(st.permutations(range(2 * b)))
    weights = [F(0)] * (2 * b)
    values = [[F(0)] * (2 * b) for _ in range(2 * b)]
    for old in range(2 * b):
        weights[perm[old]] = h.weights[old % b] / 2
        for old2 in range(2 * b):
            values[perm[old]][perm[old2]] = h.values[old % b][old2 % b]
    g = step_graphon(weights, values)
    return h, g, _nudge(draw, h), _nudge(draw, g)


@given(step_graphons(max_blocks=8), st.data())
@settings(max_examples=100, deadline=None)
def test_quotient_and_twin_partition_match_fraction_reference(H, data):
    assert twin_partition(H).class_of == ref_twin_partition(H)
    b = H.block_count
    keys = data.draw(st.lists(st.integers(0, b - 1), min_size=b, max_size=b))
    partition = BlockPartition.from_keys(keys)
    q = quotient(H, partition)
    weights, values = ref_quotient(H.weights, H.values, partition.class_of)
    assert q.weights == tuple(weights)
    assert q.values == tuple(map(tuple, values))
    assert q.value_range == H.value_range


@given(permuted_double_blowups())
@settings(max_examples=100, deadline=None)
def test_weak_iso_and_coupling_on_blowups_match_fraction_reference(pair):
    h, g, h_nudged, g_nudged = pair
    verdict = weak_iso(h, g)
    assert verdict.isomorphic
    r1, r2 = twin_reduce(h), twin_reduce(g)
    sigma = verdict.bijection
    for i in range(r1.block_count):
        assert r1.weights[i] == r2.weights[sigma[i]]
        for j in range(r1.block_count):
            assert r1.values[i][j] == r2.values[sigma[i]][sigma[j]]
    w1, v1, _ = ref_twin_reduce_with_map(h)
    w2, v2, _ = ref_twin_reduce_with_map(g)
    assert render_verdict(verdict) == ref_match(w1, v1, w2, v2)
    coupling = build_coupling(h, g)
    assert [list(row) for row in coupling.masses] == ref_coupling(h, g)
    # one changed value pair moves t(K2), so a witness names the first
    # invariant that fails, exactly as the reference does
    w3, v3, _ = ref_twin_reduce_with_map(h_nudged)
    w4, v4, _ = ref_twin_reduce_with_map(g_nudged)
    for a, b, expect in (
        (h_nudged, g, ref_match(w3, v3, w2, v2)),
        (h, g_nudged, ref_match(w1, v1, w4, v4)),
    ):
        miss = weak_iso(a, b)
        assert not miss.isomorphic
        assert render_verdict(miss) == expect
        assert build_coupling(a, b) is None
