import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from graphlim import (
    BlackBoxKernel,
    DensityValue,
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
)
from graphlim.corpus import complete_graph, cycle_graph, graphon_corpus, path_graph

from conftest import multigraphs, step_graphons
from oracles import brute_anchored, brute_density_exact, brute_density_graph

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
HK3 = from_graph(complete_graph(3))
K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
DOUBLE = multigraph(2, [(0, 1, 2)])


def test_density_value_exclusive_fields():
    with pytest.raises(ValueError):
        DensityValue()
    with pytest.raises(ValueError):
        DensityValue(exact=F(1), estimate=(1.0, 0.0, 5))
    assert str(DensityValue.from_exact(F(1, 8))) == "1/8"
    assert str(DensityValue.from_exact(F(0))) == "0"
    est = DensityValue.from_estimate(0.125, 0.003, 100)
    assert "±" in str(est) and "(100)" in str(est)


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
    assert density_exact(motif, graphon).exact == expected


def test_density_graph_vs_graphon_of_same_graph():
    for g in [K3, C4, cycle_graph(5)]:
        H = from_graph(g)
        for f in [K2, K3, path_graph(4), C4]:
            assert density_graph(f, g).exact == density_exact(f, H).exact


def test_density_graph_rejects_bad_hosts():
    with pytest.raises(ValueError):
        density_graph(K2, DOUBLE)  # multigraph host
    with pytest.raises(ValueError):
        density_graph(multigraph(2, [(0, 1, 1)], labels=[(0, 1)]), K3)
    with pytest.raises(ValueError):
        density_graph(complete_graph(9), K3)  # over the node limit


@pytest.mark.parametrize("n", [200, 240])  # 200^8 < 2^63 < 240^8
def test_density_graph_closed_form_on_both_integer_widths(n):
    assert density_graph(path_graph(8), complete_graph(n)).exact == F(
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
    got = density_exact(motif, constant(p)).exact
    assert got == p**motif.total_multiplicity


def test_multiplicities_collapse_against_simple_hosts():
    # against a 0/1 host only the support matters
    assert density_graph(DOUBLE, K3).exact == density_graph(K2, K3).exact


@given(multigraphs(max_nodes=5), step_graphons(max_blocks=3))
@settings(max_examples=80, deadline=None)
def test_density_exact_matches_brute_force(motif, graphon):
    assert density_exact(motif, graphon).exact == brute_density_exact(motif, graphon)


@given(multigraphs(max_nodes=4))
@settings(max_examples=40, deadline=None)
def test_density_graph_matches_brute_force(motif):
    for host in [K3, cycle_graph(5)]:
        assert density_graph(motif, host).exact == brute_density_graph(motif, host)


def test_anchored_density_examples():
    e1 = multigraph(2, [(0, 1, 1)], labels=[(1, 1)])
    assert anchored_density(e1, B, {1: 0}).exact == F(1, 2)
    e2 = multigraph(2, [(0, 1, 1)], labels=[(0, 1), (1, 2)])
    assert anchored_density(e2, B, {1: 0, 2: 1}).exact == F(1)
    assert anchored_density(e2, B, {1: 0, 2: 0}).exact == F(0)
    # no labels: anchors ignored, plain density
    assert anchored_density(C4, B, {}).exact == density_exact(C4, B).exact


def test_anchored_density_validation():
    e1 = multigraph(2, [(0, 1, 1)], labels=[(1, 1)])
    with pytest.raises(ValueError, match="no anchor"):
        anchored_density(e1, B, {})
    with pytest.raises(ValueError, match="out of range"):
        anchored_density(e1, B, {1: 5})


@given(multigraphs(max_nodes=5, max_labels=3), step_graphons(max_blocks=3))
@settings(max_examples=60, deadline=None)
def test_anchored_density_matches_brute_force(motif, graphon):
    labels = sorted(motif.label_set)
    rng = random.Random(7)
    anchors = {lab: rng.randrange(graphon.block_count) for lab in labels}
    got = anchored_density(motif, graphon, anchors).exact
    assert got == brute_anchored(motif, graphon, anchors)


def test_mixed_moment_is_star_density():
    assert mixed_moment(B, [0, 1], [1, 1]).exact == F(0)
    assert mixed_moment(B, [0], [2]).exact == F(1, 2)
    assert mixed_moment(B, [], []).exact == F(1)
    assert mixed_moment(HK3, [0, 1], [1, 1]).exact == F(1, 3)
    # zero exponents contribute nothing
    assert mixed_moment(B, [0, 1], [2, 0]).exact == mixed_moment(B, [0], [2]).exact
    with pytest.raises(ValueError):
        mixed_moment(B, [0], [1, 2])
    with pytest.raises(ValueError):
        mixed_moment(B, [9], [1])
    with pytest.raises(ValueError):
        mixed_moment(B, [0], [-1])


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
    assert a.estimate == b.estimate
    mean, stderr, n = a.estimate
    assert n == 40000
    assert abs(mean - 0.125) < 5 * stderr
    c = density_mc(C4, kernel, 40000, 100)
    assert c.estimate != a.estimate  # seed actually matters


def test_density_mc_scalar_fallback_agrees():
    # a deliberately non-vectorizable evaluator must hit the scalar path
    table = BlackBoxKernel.from_step_graphon(B)
    scalar = BlackBoxKernel(lambda x, y: float(table.evaluator(float(x), float(y))))
    v = density_mc(K2, scalar, 500, 3)
    w = density_mc(K2, table, 500, 3)
    assert v.estimate == w.estimate


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
        lhs = density_exact(k3_k2, H).exact
        rhs = density_exact(K3, H).exact * density_exact(K2, H).exact
        assert lhs == rhs


def test_blowup_invariance_spot():
    for H in [B, HK3]:
        for k in (2, 3):
            assert density_exact(C4, blowup(H, k)).exact == density_exact(C4, H).exact
