import hashlib
import math
import statistics
import tempfile
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlim import (
    ConvergenceReport,
    LabeledMultigraph,
    SizeStats,
    blowup,
    constant,
    convergence_experiment,
    density_exact,
    density_graph,
    describe_graph,
    multigraph,
    parse_graph,
    sample_wrandom,
    serialize_graphon,
    serialize_sample,
    step_graphon,
    to_csv,
)
from graphlim import sampling, streams
from graphlim.cli import run
from graphlim.corpus import (
    complete_graph,
    cycle_graph,
    graphon_corpus,
    path_graph,
    star_graph,
)
from graphlim.graphs import format_edge_list, serialize_graph
from graphlim.sampling import (
    _draw_triangle,
    _sample_adjacency,
    _sample_bytes,
    _text_bytes,
    _thresholds,
    _triangle_edges,
    _writer_bytes,
)
from graphlim.streams import (
    DOMAIN_CHILD_SEEDS,
    DOMAIN_SAMPLE_EDGES,
    DOMAIN_SAMPLE_NODES,
    RESOLUTION,
    philox_stream,
    variates,
)

from conftest import step_graphons

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
ZERO = constant(F(0))
K2 = complete_graph(2)


def test_sample_is_deterministic_and_seed_sensitive():
    g1 = sample_wrandom(B, 40, 7)
    assert g1 == sample_wrandom(B, 40, 7)
    assert g1 != sample_wrandom(B, 40, 8)
    assert g1.node_count == 40 and g1.is_simple and g1.is_unlabeled


def test_growing_n_extends_the_sample():
    small = sample_wrandom(B, 50, 7)
    big = sample_wrandom(B, 80, 7)
    kept = {(u, v) for u, v, _ in big.edges if u < 50 and v < 50}
    assert {(u, v) for u, v, _ in small.edges} == kept


def test_sample_corner_cases():
    empty = sample_wrandom(constant(F(0)), 30, 1)
    assert len(empty.edges) == 0
    full = sample_wrandom(constant(F(1)), 30, 1)
    assert len(full.edges) == 30 * 29 // 2
    lone = sample_wrandom(B, 1, 3)
    assert lone.node_count == 1 and len(lone.edges) == 0


def test_sample_validation():
    with pytest.raises(ValueError, match="at least 1"):
        sample_wrandom(B, 0, 1)
    wide = step_graphon(
        ["1/2", "1/2"], [["0", "2"], ["2", "0"]], value_range=("0", "2")
    )
    with pytest.raises(ValueError, match="edge probability"):
        sample_wrandom(wide, 5, 1)


def test_sample_and_converge_name_the_first_value_outside_0_1(tmp_path, capsys):
    wide = step_graphon(
        ["1/4", "1/4", "1/2"],
        [["1/2", "3/2", "-1/3"], ["3/2", "2", "0"], ["-1/3", "0", "1"]],
        value_range=("-1", "2"),
    )
    message = "value 3/2 outside [0,1] cannot be an edge probability"
    with pytest.raises(ValueError) as caught:
        serialize_sample(wide, 5, 1)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        convergence_experiment(wide, K2, [4, 8], 3, 0)
    assert str(caught.value) == message
    graphon, motif = tmp_path / "w.json", tmp_path / "k2.txt"
    graphon.write_text(serialize_graphon(wide))
    motif.write_text(serialize_graph(K2))
    assert run(["sample", str(graphon), "--n", "5", "--seed", "1"]) == 1
    assert message in capsys.readouterr().err
    argv = ["converge", str(graphon), "--graph", str(motif), "--sizes", "4,8", "--reps", "3",
            "--seed", "0"]
    assert run(argv) == 1
    assert message in capsys.readouterr().err


def test_sample_edge_rate_tracks_density():
    # E[t(K2, G_n)] = (n-1)/n * t(K2, H); check a 4 sigma band
    n, trials = 60, 500
    t = float(density_exact(K2, B))
    mean_target = (n - 1) / n * t
    values = [
        float(density_graph(K2, sample_wrandom(B, n, seed)))
        for seed in range(trials)
    ]
    mean = math.fsum(values) / trials
    var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
    assert abs(mean - mean_target) < 4 * math.sqrt(var / trials)


def test_sample_respects_block_structure():
    # bipartite kernel: no edges inside a block class
    g = sample_wrandom(B, 200, 11)
    d = float(density_graph(cycle_graph(3), g))
    assert d == 0.0


def test_size_stats_validation():
    with pytest.raises(ValueError):
        SizeStats(10, 0, F(0), F(0))
    with pytest.raises(ValueError):
        SizeStats(10, 5, F(-1), F(0))


def test_convergence_experiment_shape_and_determinism():
    r = convergence_experiment(B, K2, [20, 40, 80], 6, 3)
    assert isinstance(r, ConvergenceReport)
    assert r.target == F(1, 2)
    assert [s.n for s in r.stats] == [20, 40, 80]
    assert all(s.rep_count == 6 for s in r.stats)
    assert all(s.max_err >= s.median_err for s in r.stats)
    again = convergence_experiment(B, K2, [20, 40, 80], 6, 3)
    assert r == again


def test_convergence_errors_shrink():
    r = convergence_experiment(B, K2, [30, 120, 480], 15, 5)
    meds = r.medians()
    assert meds[0] > meds[-1]
    assert r.monotone_decreasing()


def test_convergence_validation():
    with pytest.raises(ValueError, match="simple unlabeled"):
        convergence_experiment(B, multigraph(2, [(0, 1, 2)]), [10], 2, 0)
    with pytest.raises(ValueError, match="at least 1"):
        convergence_experiment(B, K2, [10], 0, 0)
    with pytest.raises(ValueError, match="at least one size"):
        convergence_experiment(B, K2, [], 2, 0)
    with pytest.raises(ValueError, match="smaller than the motif"):
        convergence_experiment(B, cycle_graph(4), [3], 2, 0)


def test_describe_graph_names():
    assert describe_graph(complete_graph(4)) == "K4"
    assert describe_graph(complete_graph(2)) == "K2"
    assert describe_graph(cycle_graph(5)) == "C5"
    assert describe_graph(path_graph(4)) == "P4"
    assert describe_graph(star_graph(4)) == "S4"
    paw = multigraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    assert describe_graph(paw) == "g4n4e"
    two_triangles = multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert describe_graph(two_triangles) == "g6n6e"
    assert describe_graph(cycle_graph(6)) == "C6"


def test_to_csv_layout():
    r = convergence_experiment(B, K2, [20, 40], 4, 9)
    lines = to_csv(r).splitlines()
    assert lines[0] == "motif,n,rep_count,median_err,max_err"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "K2" and first[1] == "20" and first[2] == "4"
    assert float(first[3]) == pytest.approx(float(r.stats[0].median_err))


def test_blowup_samples_share_distribution():
    # same seed, weakly isomorphic graphons, identical node block marginals
    g1 = sample_wrandom(B, 400, 21)
    g2 = sample_wrandom(blowup(B, 2), 400, 21)
    d1 = float(density_graph(K2, g1))
    d2 = float(density_graph(K2, g2))
    assert abs(d1 - d2) < 0.1


def _redrawn_convergence(graphon, motif, sizes, reps, seed):
    """convergence_experiment with every size drawn afresh as a graph."""
    target = density_exact(motif, graphon)
    children = philox_stream(seed, DOMAIN_CHILD_SEEDS).integers(
        0, RESOLUTION, size=reps, dtype=np.uint64
    )
    stats = []
    for n in sizes:
        errs = [
            abs(density_graph(motif, sample_wrandom(graphon, n, int(c))) - target)
            for c in children
        ]
        stats.append(SizeStats(n, reps, statistics.median(errs), max(errs)))
    return ConvergenceReport(motif, target, tuple(stats))


MOTIFS = [complete_graph(2), path_graph(3), complete_graph(3), cycle_graph(4)]


@given(
    step_graphons(max_blocks=8),
    st.integers(1, 30),
    st.integers(0, 30),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_smaller_sample_is_the_induced_prefix(graphon, n, extra, seed):
    small = sample_wrandom(graphon, n, seed)
    big = sample_wrandom(graphon, n + extra, seed)
    assert small.node_count == n
    assert small.edges == tuple(e for e in big.edges if e[1] < n)


@given(
    step_graphons(max_blocks=8),
    st.sampled_from(MOTIFS),
    st.lists(st.integers(4, 24), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_convergence_matches_fresh_draws_per_size(graphon, motif, sizes, reps, seed):
    expected = _redrawn_convergence(graphon, motif, sizes, reps, seed)
    assert convergence_experiment(graphon, motif, sizes, reps, seed) == expected


def test_convergence_keeps_unsorted_and_repeated_sizes():
    sizes = [40, 20, 40, 7, 20]
    r = convergence_experiment(B, path_graph(3), sizes, 5, 11)
    assert [s.n for s in r.stats] == sizes
    assert r.stats[0] == r.stats[2] and r.stats[1] == r.stats[4]
    assert r == _redrawn_convergence(B, path_graph(3), sizes, 5, 11)
    assert r.stats[3] == convergence_experiment(B, path_graph(3), [7], 5, 11).stats[0]


def test_sample_golden():
    h = step_graphon(
        ["1/6", "1/3", "1/2"],
        [["1/7", "6/7", "0"], ["6/7", "1/2", "2/5"], ["0", "2/5", "1"]],
    )
    text = serialize_graph(sample_wrandom(h, 300, 20261018))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "e2e51e146b6ff440a28215e508de68c4c5f2872eafaf384accae2572ab6e98f6"
    )


def test_sample_golden_with_four_digit_ids():
    """Recorded from the per-line writer; pins ids of one to four digits."""
    h = step_graphon(
        ["1/6", "1/3", "1/2"],
        [["1/7", "6/7", "0"], ["6/7", "1/2", "2/5"], ["0", "2/5", "1"]],
    )
    text = serialize_sample(h, 1200, 20261018)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "54fc547f78eb70816aabc535feeb97b0433d37e808d5dd2d6d93629b811f033e"
    )


DOMAINS = [getattr(streams, name) for name in dir(streams) if name.startswith("DOMAIN_")]


@pytest.mark.parametrize("domain", DOMAINS)
def test_variates_are_the_bounded_integers_of_the_stream(domain):
    """Raw words shifted right by one are Generator.integers on [0, 2^63),
    for every count a Philox counter step of four words can split and across
    consecutive calls on one generator."""
    fast, slow = philox_stream(2**64 - 3, domain), philox_stream(2**64 - 3, domain)
    for count in [*range(10), 10**5, *range(9, -1, -1), 7, 10**5 + 3]:
        got = variates(fast, count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, slow.integers(0, RESOLUTION, size=count, dtype=np.uint64))


def _reference_adjacency(graphon, n, seed):
    """The documented stream layout, pair by pair: vertex i takes the first
    block whose cumulative threshold floor(c * 2^63) exceeds node variate i,
    and the pair (i, j), i < j, is an edge iff edge variate j*(j-1)/2 + i is
    below floor(p * 2^63) for the pair's block value p."""
    cum, acc = [], F(0)
    for w in graphon.weights:
        acc += w
        cum.append(acc.numerator * 2**63 // acc.denominator)
    draws = philox_stream(seed, DOMAIN_SAMPLE_NODES).integers(
        0, RESOLUTION, size=n, dtype=np.uint64
    )
    blocks = [next(b for b, c in enumerate(cum) if r < c) for r in draws.tolist()]
    coins = philox_stream(seed, DOMAIN_SAMPLE_EDGES).integers(
        0, RESOLUTION, size=n * (n - 1) // 2, dtype=np.uint64
    ).tolist()
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for j in range(n):
        for i in range(j):
            p = graphon.values[blocks[i]][blocks[j]]
            if coins[j * (j - 1) // 2 + i] < p.numerator * 2**63 // p.denominator:
                adjacency[i, j] = adjacency[j, i] = 1
    return adjacency


@given(step_graphons(max_blocks=8), st.integers(1, 40), st.integers(0, 2**64 - 1))
@example(ZERO, 1, 0)
@example(ZERO, 25, 3)
@example(B, 1, 7)
@settings(max_examples=60, deadline=None)
def test_sample_adjacency_matches_the_pairwise_reference(graphon, n, seed):
    expected = _reference_adjacency(graphon, n, seed)
    assert np.array_equal(_sample_adjacency(graphon, n, seed), expected)


@given(step_graphons(max_blocks=8), st.integers(1, 40), st.integers(0, 2**64 - 1))
@example(ZERO, 1, 0)
@example(ZERO, 25, 3)
@example(B, 1, 7)
@settings(max_examples=40, deadline=None)
def test_sample_command_writes_the_graph_text(graphon, n, seed):
    graph = sample_wrandom(graphon, n, seed)
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp, "h.json"), Path(tmp, "g.txt")
        source.write_text(serialize_graphon(graphon))
        argv = ["sample", str(source), "--n", str(n), "--seed", str(seed), "-o", str(out)]
        assert run(argv) == 0
        text = out.read_text()
    assert text == serialize_graph(graph) == serialize_sample(graphon, n, seed)
    assert parse_graph(text) == graph


def test_edge_list_writer_checks_its_arrays():
    text = format_edge_list(4, np.array([0, 0, 2]), np.array([1, 3, 3]), np.array([1, 2, 1]))
    assert text == "4 3\n0 1\n0 3 2\n2 3\n"
    assert format_edge_list(3, np.array([], dtype=int), np.array([], dtype=int)) == "3 0\n"
    bad = [
        (([0, 1], [1, 4]), "out of range"),
        (([-1], [2]), "out of range"),
        (([2], [1]), "not normalized"),
        (([1], [1]), "loop"),
        (([0, 0], [2, 1]), "sorted"),
        (([1, 0], [2, 3]), "sorted"),
        (([0, 0], [1, 1]), "duplicate edge entry for pair \\(0,1\\)"),
        (([0, 1], [1]), "equal length"),
    ]
    for (us, vs), match in bad:
        with pytest.raises(ValueError, match=match):
            format_edge_list(4, np.array(us), np.array(vs))
    with pytest.raises(ValueError, match="multiplicity"):
        format_edge_list(4, np.array([0]), np.array([1]), np.array([0]))


def _reference_edge_list(node_count, edges, labels=()):
    """The graph-file text written line by line."""
    lines = [f"{node_count} {len(edges)}"]
    lines += [f"{u} {v}" + (f" {m}" if m != 1 else "") for u, v, m in edges]
    lines += [f"label {node} {lab}" for node, lab in labels]
    return "\n".join(lines) + "\n"


def _check_writer(node_count, edges, labels=()):
    """format_edge_list, with and without multiplicities, and serialize_graph
    against the reference, and the text parsed back."""
    expected = _reference_edge_list(node_count, edges, labels)
    us = np.array([u for u, _, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v, _ in edges], dtype=np.int64)
    mults = np.array([m for _, _, m in edges], dtype=object)
    assert format_edge_list(node_count, us, vs, mults, labels) == expected
    if all(m == 1 for _, _, m in edges):
        assert format_edge_list(node_count, us, vs, labels=labels) == expected
    graph = LabeledMultigraph(node_count, tuple(edges), tuple(labels))
    assert serialize_graph(graph) == expected
    assert parse_graph(expected) == graph


@st.composite
def _edge_lists(draw):
    node_count = draw(st.integers(2, 60))
    ids = st.integers(0, node_count - 1)
    pairs = draw(st.sets(st.tuples(ids, ids).filter(lambda p: p[0] < p[1]), max_size=90))
    mult = st.one_of(st.just(1), st.integers(2, 12), st.integers(2**63 - 2, 2**70))
    edges = [(u, v, draw(mult)) for u, v in sorted(pairs)]
    nodes = draw(st.lists(ids, unique=True, max_size=4))
    labs = draw(st.lists(st.integers(0, 10**6), unique=True, min_size=len(nodes), max_size=len(nodes)))
    return node_count, edges, sorted(zip(nodes, labs))


@given(_edge_lists())
@example((1, [], []))
@example((5, [], [(0, 2), (4, 0)]))
@example((3, [(0, 1, 2**63), (1, 2, 1)], []))  # numpy infers float64 for this mix
@example((4, [(0, 1, 2**63 + 5), (0, 3, 2**64 - 1), (2, 3, 1)], [(3, 9)]))
@settings(max_examples=150, deadline=None)
def test_edge_list_writer_matches_the_line_by_line_reference(case):
    _check_writer(*case)


@pytest.mark.parametrize("top", [10, 100, 1000, 10000])
def test_edge_list_writer_at_digit_width_boundaries(top):
    """Ids on both sides of a digit-width step, through the table of every
    id (a star on 0..top) and through per-endpoint names (one edge)."""
    star = [(0, v, 1 + (v % 7 == 0)) for v in range(1, top + 1)]
    _check_writer(top + 1, star, [(top - 1, 0), (top, 1)])
    _check_writer(top + 1, [(top - 1, top, 1)])
    _check_writer(top + 1, [(top - 2, top - 1, 3), (top - 1, top, 1)])


def test_edge_list_writer_on_sparse_ids_allocates_nothing_per_node():
    edges = [(0, 10**11, 1), (5, 10**12 - 1, 2), (10**12 - 2, 10**12 - 1, 2**64 + 1)]
    _check_writer(10**12, edges, [(10**12 - 1, 3)])
    us, vs = np.array([0, 5]), np.array([10**11, 10**12 - 1])
    tracemalloc.start()
    try:
        text = format_edge_list(10**12, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "1000000000000 2\n0 100000000000\n5 999999999999\n"
    assert peak < 65536


def test_writer_bytes_bounds_the_measured_peak():
    n = 300
    us, vs = _triangle_edges(_draw_triangle(_thresholds(B, n), n, 1))
    format_edge_list(n, us[:3], vs[:3])  # first use allocates caches
    tracemalloc.start()
    try:
        format_edge_list(n, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _writer_bytes(n, len(us)) == 24 * len(us)
    assert 0.9 * _writer_bytes(n, len(us)) <= peak <= _writer_bytes(n, len(us)) + 65536


@pytest.mark.parametrize("graphon", [B, constant(F(1))], ids=["bipartite", "complete"])
def test_sample_text_peak_is_inside_the_predictions(graphon):
    n = 300
    count = len(serialize_sample(graphon, n, 1).splitlines()) - 1
    tracemalloc.start()
    try:
        serialize_sample(graphon, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(_sample_bytes(n), _text_bytes(n, count)) + 256 * n + 65536


def test_sample_text_memory_guard(monkeypatch, tmp_path, capsys):
    n = 40
    count = len(sample_wrandom(B, n, 1).edges)
    need = _text_bytes(n, count)
    assert need > _sample_bytes(n)
    monkeypatch.setattr(sampling, "MAX_SAMPLE_BYTES", need)
    assert serialize_sample(B, n, 1) == serialize_graph(sample_wrandom(B, n, 1))
    monkeypatch.setattr(sampling, "MAX_SAMPLE_BYTES", need - 1)
    monkeypatch.setattr(sampling, "_triangle_edges", None)  # refused before extraction
    budget = (
        f"the text of a sample on {n} nodes with {count} edges needs about {need} bytes, "
        f"over the budget of {need - 1} bytes"
    )
    with pytest.raises(ValueError, match=budget):
        serialize_sample(B, n, 1)
    graphon = tmp_path / "b.json"
    graphon.write_text(serialize_graphon(B))
    assert run(["sample", str(graphon), "--n", str(n), "--seed", "1"]) == 1
    assert budget in capsys.readouterr().err


def test_sample_bytes_bounds_the_measured_peak():
    _sample_adjacency(B, 2, 0)  # first use of the generators allocates caches
    n = 300
    tracemalloc.start()
    try:
        _sample_adjacency(B, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _sample_bytes(n) == 19 * n * n // 2
    assert 0.95 * _sample_bytes(n) <= peak <= _sample_bytes(n) + 256 * n + 65536


def test_sample_memory_guard(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sampling, "MAX_SAMPLE_BYTES", _sample_bytes(40))
    assert sample_wrandom(B, 40, 1).node_count == 40
    budget = f"{_sample_bytes(41)} bytes, over the budget of {_sample_bytes(40)} bytes"
    with pytest.raises(ValueError, match=budget):
        sample_wrandom(B, 41, 1)
    with pytest.raises(ValueError, match=budget):
        convergence_experiment(B, K2, [10, 41], 2, 0)
    graphon, motif = tmp_path / "b.json", tmp_path / "k2.txt"
    graphon.write_text(serialize_graphon(B))
    motif.write_text(serialize_graph(K2))
    assert run(["sample", str(graphon), "--n", "41", "--seed", "1"]) == 1
    assert budget in capsys.readouterr().err
    argv = ["converge", str(graphon), "--graph", str(motif), "--sizes", "10,41", "--reps", "2",
            "--seed", "0"]
    assert run(argv) == 1
    assert budget in capsys.readouterr().err
