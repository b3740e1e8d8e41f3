import itertools
import math
import random
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
)
import graphlim.density as density_module
from graphlim import serialize_graph, serialize_graphon
from graphlim.cli import run
from graphlim.corpus import complete_graph, cycle_graph, graphon_corpus, path_graph

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
