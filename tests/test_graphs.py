import itertools
import random

import pytest
from hypothesis import given, settings

from graphlim import (
    GraphParseError,
    LabeledMultigraph,
    are_isomorphic,
    edge_power,
    enumerate_simple_graphs,
    multigraph,
    parse_graph,
    product,
    serialize_graph,
    star_multigraph,
    subdivide_edge,
    unlabel,
)
from graphlim.corpus import complete_graph, cycle_graph, path_graph
from graphlim.graphs import _canonical_code

from conftest import multigraphs

K2 = complete_graph(2)
K3 = complete_graph(3)


def test_constructor_canonical_form_enforced():
    g = multigraph(3, [(2, 0, 1), (0, 1, 1), (1, 0, 2)])
    assert g.edges == ((0, 1, 3), (0, 2, 1))
    with pytest.raises(ValueError):
        LabeledMultigraph(2, ((1, 0, 1),), ())  # unordered pair
    with pytest.raises(ValueError):
        multigraph(2, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        multigraph(2, [(0, 5, 1)])  # node out of range
    with pytest.raises(ValueError):
        multigraph(2, [(0, 1, 1)], labels=[(0, 1), (1, 1)])  # duplicate label


def test_parse_error_reasons():
    with pytest.raises(GraphParseError) as e:
        parse_graph("2 1\n0 0\n")
    assert e.value.reason == "loop"
    with pytest.raises(GraphParseError) as e:
        parse_graph("2 1\n0 7\n")
    assert e.value.reason == "node-range"
    with pytest.raises(GraphParseError) as e:
        parse_graph("nope\n")
    assert e.value.reason == "malformed-line"
    with pytest.raises(GraphParseError) as e:
        parse_graph("2 1\n0 1\nlabel 0 3\nlabel 1 3\n")
    assert e.value.reason == "duplicate-label"


def test_serialize_matches_documented_format():
    g = multigraph(3, [(0, 1, 2), (1, 2, 1)], labels=[(0, 1)])
    assert serialize_graph(g) == "3 2\n0 1 2\n1 2\nlabel 0 1\n"
    assert parse_graph(serialize_graph(g)) == g


@given(multigraphs(max_nodes=6, max_labels=3))
def test_serialize_parse_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_product_glues_shared_labels():
    # two labeled edges glued at the labeled node form a cherry
    e = multigraph(2, [(0, 1, 1)], labels=[(0, 1)])
    cherry = product(e, e)
    assert cherry.node_count == 3
    assert cherry.total_multiplicity == 2
    assert cherry.label_map == {0: 1}
    # gluing along both endpoints doubles the edge
    e2 = multigraph(2, [(0, 1, 1)], labels=[(0, 1), (1, 2)])
    doubled = product(e2, e2)
    assert doubled.node_count == 2
    assert doubled.edges == ((0, 1, 2),)
    # no shared labels: disjoint union
    a = multigraph(2, [(0, 1, 1)], labels=[(0, 1)])
    b = multigraph(2, [(0, 1, 1)], labels=[(0, 2)])
    u = product(a, b)
    assert u.node_count == 4 and u.total_multiplicity == 2


def test_product_label_sets_union():
    a = multigraph(3, [(0, 1, 1), (1, 2, 1)], labels=[(0, 1), (2, 3)])
    b = multigraph(2, [(0, 1, 1)], labels=[(0, 3), (1, 7)])
    c = product(a, b)
    assert c.label_set == {1, 3, 7}
    assert c.node_count == 3 + 2 - 1


@given(multigraphs(max_nodes=4, max_labels=2), multigraphs(max_nodes=4, max_labels=2))
@settings(max_examples=60)
def test_product_commutative_up_to_isomorphism(a, b):
    ab = unlabel(product(a, b))
    ba = unlabel(product(b, a))
    assert are_isomorphic(ab, ba)


def test_subdivide_edge_examples():
    dbl = multigraph(2, [(0, 1, 2)])
    tri = subdivide_edge(dbl, (0, 1), 1)
    assert tri.node_count == 3
    assert tri.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert subdivide_edge(dbl, (0, 1), 0) == dbl
    with pytest.raises(ValueError):
        subdivide_edge(dbl, (0, 2), 1)
    # subdividing the only edge of K2 by 2 gives P4
    p4 = subdivide_edge(K2, (0, 1), 2)
    assert are_isomorphic(p4, path_graph(4))


def test_edge_power_and_star():
    assert edge_power(K3, 2).edges == ((0, 1, 2), (0, 2, 2), (1, 2, 2))
    s = star_multigraph([2])
    assert s.node_count == 2 and s.edges == ((0, 1, 2),)
    assert s.label_map == {1: 1}
    s2 = star_multigraph([1, 1])
    assert s2.node_count == 3 and s2.total_multiplicity == 2
    s3 = star_multigraph([0, 3])
    assert s3.multiplicity(0, 1) == 0 and s3.multiplicity(0, 2) == 3
    assert s3.label_map == {1: 1, 2: 2}


def test_isomorphism_basic():
    c4 = cycle_graph(4)
    other = multigraph(4, [(0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 0, 1)])
    assert are_isomorphic(c4, other)
    assert not are_isomorphic(c4, path_graph(4))
    # labels must correspond
    la = multigraph(2, [(0, 1, 1)], labels=[(0, 1)])
    lb = multigraph(2, [(0, 1, 1)], labels=[(1, 1)])
    assert are_isomorphic(la, lb)
    lc = multigraph(2, [(0, 1, 1)], labels=[(1, 2)])
    assert not are_isomorphic(la, lc)


def test_enumeration_counts_and_order():
    twos = list(enumerate_simple_graphs(2))
    assert len(twos) == 1 and twos[0] == K2
    threes = list(enumerate_simple_graphs(3))
    assert [g.node_count for g in threes] == [2, 3, 3]
    assert threes[1:] == [path_graph(3), K3]
    assert len(list(enumerate_simple_graphs(4))) == 9
    assert len(list(enumerate_simple_graphs(5))) == 30
    with pytest.raises(ValueError):
        list(enumerate_simple_graphs(8))


def test_enumeration_yields_distinct_classes():
    graphs = list(enumerate_simple_graphs(5))
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not are_isomorphic(graphs[i], graphs[j])


def _brute_force_code(n, adj):
    """Lexicographic maximum of the row-prefix codes over all n! orders."""
    return max(
        tuple(
            sum(1 << i for i in range(d) if adj[order[d]] >> order[i] & 1)
            for d in range(n)
        )
        for order in itertools.permutations(range(n))
    )


def _labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for k, (u, v) in enumerate(pairs):
            if mask >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield adj


def test_canonical_code_is_the_maximum_over_all_orders():
    # The search only records codes of actual orders. So if an isomorphism
    # class split into several codes the class counts would exceed the known
    # ones, and if a whole class got a code below its maximum the brute-force
    # check of its representative would fail. Up to 5 nodes every labeled
    # graph is coded; 6-node graphs are the 5-node representatives plus a
    # node joined to each neighbor set, which reaches every class, shuffled.
    rng = random.Random(6)
    graphs = {n: list(_labeled_graphs(n)) for n in range(1, 6)}
    graphs[6] = []
    for base in {_canonical_code(5, adj): adj for adj in graphs[5]}.values():
        for subset in range(1 << 5):
            adj = [base[y] | (subset >> y & 1) << 5 for y in range(5)] + [subset]
            perm = rng.sample(range(6), 6)
            shuffled = [0] * 6
            for x in range(6):
                shuffled[perm[x]] = sum(1 << perm[y] for y in range(6) if adj[x] >> y & 1)
            graphs[6].append(shuffled)
    for n, classes in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        representative = {}
        for adj in graphs[n]:
            representative.setdefault(_canonical_code(n, adj), adj)
        assert len(representative) == classes
        for code, adj in representative.items():
            assert code == _brute_force_code(n, adj)
