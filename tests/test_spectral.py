import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

from graphlim import (
    anchored_density,
    blowup,
    constant,
    cycle_density_spectral,
    density_exact,
    eigendecompose,
    kernel_matrix,
    multigraph,
    multigraph_from_simple_check,
    path_operator_entry,
    render_report,
    step_graphon,
)
from graphlim.corpus import cycle_graph, graphon_corpus

from conftest import step_graphons

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])


def test_kernel_matrix_golden():
    m = kernel_matrix(B)
    assert np.allclose(m, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    assert np.array_equal(m, m.T)
    u = graphon_corpus()["uneven"]
    mu = kernel_matrix(u)
    assert mu[0, 0] == pytest.approx(1.0 / 12.0)
    assert mu[0, 1] == pytest.approx(0.75 * math.sqrt(2.0) / 3)


def test_eigendecompose_golden():
    s = eigendecompose(kernel_matrix(B))
    assert s.eigenvalues == pytest.approx((0.5, -0.5))
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(s.eigenvectors), [[r, r], [r, r]], atol=1e-12)


def test_eigendecompose_matches_library_solver():
    for name, h in graphon_corpus().items():
        m = kernel_matrix(h)
        s = eigendecompose(m)
        reference = sorted(np.linalg.eigvalsh(m))
        assert sorted(s.eigenvalues) == pytest.approx(reference, abs=1e-11), name


def test_eigendecompose_reconstruction_and_orthonormality():
    for name, h in graphon_corpus().items():
        m = kernel_matrix(h)
        s = eigendecompose(m)
        v = s.eigenvectors
        n = m.shape[0]
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10, name
        rebuilt = v @ np.diag(s.eigenvalues) @ v.T
        assert np.max(np.abs(rebuilt - m)) < 1e-10, name
        assert s.residual < 1e-12


@given(step_graphons(max_blocks=8))
@settings(max_examples=100, deadline=None)
def test_eigendecompose_on_random_graphons(graphon):
    m = kernel_matrix(graphon)
    s = eigendecompose(m)
    assert sorted(s.eigenvalues) == pytest.approx(np.linalg.eigvalsh(m), abs=1e-11)
    rebuilt = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
    assert np.max(np.abs(rebuilt - m)) < 1e-10


def test_eigendecompose_sign_convention_is_stable():
    m = kernel_matrix(graphon_corpus()["blocks3"])
    v1 = eigendecompose(m).eigenvectors
    v2 = eigendecompose(m.copy()).eigenvectors
    assert np.array_equal(v1, v2)
    for k in range(v1.shape[1]):
        lead = int(np.argmax(np.abs(v1[:, k])))
        assert v1[lead, k] > 0


def test_eigendecompose_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eigenvalue_order_breaks_magnitude_ties_downward():
    s = eigendecompose(np.diag([-1.0, 1.0, 0.25]))
    assert s.eigenvalues == (1.0, -1.0, 0.25)


def test_cycle_density_matches_exact_recursion():
    for name, h in graphon_corpus().items():
        for k in range(3, 9):
            exact = float(density_exact(cycle_graph(k), h))
            assert abs(cycle_density_spectral(h, k) - exact) < 1e-9, (name, k)
    with pytest.raises(ValueError):
        cycle_density_spectral(B, 2)


def test_hilbert_schmidt_norm_identity():
    for name, h in graphon_corpus().items():
        s = eigendecompose(kernel_matrix(h))
        power_sum = math.fsum(ev**2 for ev in s.eigenvalues)
        direct = float(
            sum(
                h.weights[i] * h.weights[j] * h.values[i][j] ** 2
                for i in range(h.block_count)
                for j in range(h.block_count)
            )
        )
        assert abs(power_sum - direct) < 1e-10, name


def labeled_path(k: int):
    return multigraph(
        k + 1,
        [(t, t + 1, 1) for t in range(k)],
        labels=[(0, 1), (k, 2)],
    )


def test_path_operator_entry_is_anchored_path_density():
    for name, h in graphon_corpus().items():
        for k in (1, 2, 3, 6):
            for i in range(h.block_count):
                for j in range(h.block_count):
                    via_anchors = anchored_density(
                        labeled_path(k), h, {1: i, 2: j}
                    )
                    assert path_operator_entry(h, i, j, k) == via_anchors, name


def test_path_operator_entry_examples_and_validation():
    assert path_operator_entry(B, 0, 0, 2) == F(1, 2)
    assert path_operator_entry(B, 0, 1, 2) == F(0)
    assert path_operator_entry(B, 0, 1, 3) == F(1, 4)
    with pytest.raises(ValueError, match="out of range"):
        path_operator_entry(B, 0, 2, 1)
    with pytest.raises(ValueError, match="at least 1"):
        path_operator_entry(B, 0, 0, 0)


def test_path_operator_entry_closed_form_on_bipartite_for_long_paths():
    # a k-edge walk on the bipartite kernel ends across iff k is odd; each
    # of its k-1 inner nodes has one admissible block, of weight 1/2
    for k in range(1, 41):
        for i in range(2):
            for j in range(2):
                expected = F(1, 2 ** (k - 1)) if (i != j) == (k % 2 == 1) else F(0)
                assert path_operator_entry(B, i, j, k) == expected, (i, j, k)


def test_multigraph_check_on_weakly_isomorphic_pair():
    double = multigraph(2, [(0, 1, 2)])
    report = multigraph_from_simple_check(B, blowup(B, 2), double)
    assert report.subdivided_pair == (0, 1)
    assert report.base_equal and report.base_density_1 == F(1, 2)
    assert report.subdivisions_equal
    assert all(row.is_simple for row in report.rows)
    assert report.rows[0].k == 2 and report.rows[-1].k == 6
    assert report.coefficients_cancel
    assert report.trace_error_1 < 1e-9 and report.trace_error_2 < 1e-9


def test_multigraph_check_flags_non_isomorphic_pair():
    # same edge density, but the doubled edge sees the second moment: 1/2
    # vs 1/4; the negative eigenvalue carries coefficient mass on one side
    # only and the subdivided variants diverge from k=2 on
    double = multigraph(2, [(0, 1, 2)])
    report = multigraph_from_simple_check(B, constant(F(1, 2)), double)
    assert not report.base_equal
    assert report.base_density_1 == F(1, 2) and report.base_density_2 == F(1, 4)
    assert not report.subdivisions_equal
    assert report.rows[0].density_1 == F(0)  # odd cycle in a bipartite kernel
    assert report.rows[0].density_2 == F(1, 8)
    assert not report.coefficients_cancel
    mismatched = [g for g in report.groups if not g.cancels]
    assert [g.eigenvalue for g in mismatched] == pytest.approx([-0.5])
    assert report.trace_error_1 < 1e-9 and report.trace_error_2 < 1e-9


def test_multigraph_check_node_budget_caps_rows():
    double = multigraph(2, [(0, 1, 2)])
    report = multigraph_from_simple_check(B, B, double, max_simple_nodes=4)
    assert [row.k for row in report.rows] == [2, 3]
    assert [row.node_count for row in report.rows] == [3, 4]


def test_multigraph_check_input_validation():
    with pytest.raises(ValueError, match="unlabeled"):
        multigraph_from_simple_check(
            B, B, multigraph(2, [(0, 1, 2)], labels=[(0, 1)])
        )
    with pytest.raises(ValueError, match="at least one edge"):
        multigraph_from_simple_check(B, B, multigraph(2, []))


def test_render_report_text():
    double = multigraph(2, [(0, 1, 2)])
    text = render_report(multigraph_from_simple_check(B, constant(F(1, 2)), double))
    assert "base densities: 1/2 vs 1/4 (DIFFER)" in text
    assert "k=2" in text and "k=6" in text
    assert "MISMATCH" in text
    ok = render_report(multigraph_from_simple_check(B, blowup(B, 3), double))
    assert "(equal)" in ok and "MISMATCH" not in ok
