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
from graphlim import sampling
from graphlim.cli import run
from graphlim.corpus import (
    complete_graph,
    cycle_graph,
    graphon_corpus,
    path_graph,
    star_graph,
)
from graphlim.graphs import format_edge_list, serialize_graph
from graphlim.sampling import _sample_adjacency, _sample_bytes
from graphlim.streams import (
    DOMAIN_CHILD_SEEDS,
    DOMAIN_SAMPLE_EDGES,
    DOMAIN_SAMPLE_NODES,
    RESOLUTION,
    philox_stream,
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


def test_sample_bytes_bounds_the_measured_peak():
    _sample_adjacency(B, 2, 0)  # first use of the generators allocates caches
    n = 300
    tracemalloc.start()
    try:
        _sample_adjacency(B, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _sample_bytes(n) == 18 * n * n
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
