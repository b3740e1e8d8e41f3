"""Spectral form of the block kernel and the identities it carries.

The symmetric matrix D^{1/2} (values) D^{1/2} has the same spectrum as the
kernel operator of the graphon, so cycle densities are eigenvalue power
sums, path densities are matrix powers, and multi-edge motifs reduce to
simple subdivided variants through eigenvalue coefficient bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import MAX_MOTIF_NODES, _graphon_sum, density_exact
from .graphons import StepGraphon
from .graphs import LabeledMultigraph, _without_one_copy, multigraph, subdivide_edge

SYMMETRY_TOL = 1e-14
GROUP_TOL = 1e-9


def kernel_matrix(graphon: StepGraphon) -> np.ndarray:
    """D^{1/2} * values * D^{1/2} with D = diag(weights); exactly symmetric.

    Weights and values are correctly rounded Python-int quotients of the
    integer tables, as float(Fraction) would give them.
    """
    r, nw, q, nv = graphon.integer_tables
    d = np.sqrt([w / r for w in nw])
    return np.outer(d, d) * (nv / q).astype(float)


@dataclass(eq=False)
class Spectrum:
    """Eigenpairs sorted by descending |eigenvalue|, ties broken downward.

    Eigenvector k is column k; each column's largest-magnitude entry is
    made positive so repeated runs emit identical output.
    """

    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray
    residual: float


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Eigenpairs of a symmetric matrix from LAPACK (numpy.linalg.eigh).

    The input must be symmetric to within 1e-14. The residual is the
    Frobenius norm of M V - V diag(eigenvalues).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric: max |M - M^T| entry is {asym:.3e}")
    evals, evecs = np.linalg.eigh(a)
    order = sorted(range(len(evals)), key=lambda i: (-abs(evals[i]), -evals[i]))
    vectors = evecs[:, order]
    for k in range(len(order)):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            vectors[:, k] = -col
    eigenvalues = evals[order]
    residual = float(np.linalg.norm(a @ vectors - vectors * eigenvalues))
    return Spectrum(tuple(float(x) for x in eigenvalues), vectors, residual)


def cycle_density_spectral(graphon: StepGraphon, k: int) -> float:
    """Density of the k-cycle as the k-th power sum of kernel eigenvalues."""
    if k < 3:
        raise ValueError("cycles need k >= 3")
    spectrum = eigendecompose(kernel_matrix(graphon))
    return math.fsum(ev**k for ev in spectrum.eigenvalues)


def path_operator_entry(graphon: StepGraphon, i: int, j: int, k: int) -> Fraction:
    """Anchored density of the k-edge path with pinned endpoints, exactly.

    A matrix power on the integer tables, for any k: the row r_0 = values[i]
    steps k-1 times through r_{m+1} = (r_m * weights) @ values, and one
    division by the common denominators gives entry j.
    """
    b = graphon.block_count
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < b:
            raise ValueError(f"block {name}={idx} out of range")
    if k < 1:
        raise ValueError("k must be at least 1")
    r, nw, q, nv = graphon.integer_tables
    weights = np.array(nw, dtype=object)
    row = nv[i]
    for _ in range(k - 1):
        row = (row * weights) @ nv
    return Fraction(row[j], r ** (k - 1) * q**k)


@dataclass(frozen=True)
class SubdivisionRow:
    """One subdivided variant: k-1 new nodes on one parallel copy."""

    k: int
    node_count: int
    is_simple: bool
    density_1: Fraction
    density_2: Fraction

    @property
    def equal(self) -> bool:
        return self.density_1 == self.density_2


@dataclass(frozen=True)
class CoefficientGroup:
    """Coefficient mass attached to one eigenvalue cluster on each side."""

    eigenvalue: float
    a_sum: float
    b_sum: float

    @property
    def cancels(self) -> bool:
        return abs(self.a_sum - self.b_sum) < GROUP_TOL


@dataclass(frozen=True)
class MultigraphCheckReport:
    motif: LabeledMultigraph
    subdivided_pair: tuple[int, int]
    base_density_1: Fraction
    base_density_2: Fraction
    rows: tuple[SubdivisionRow, ...]
    groups: tuple[CoefficientGroup, ...]
    trace_error_1: float
    trace_error_2: float

    @property
    def base_equal(self) -> bool:
        return self.base_density_1 == self.base_density_2

    @property
    def subdivisions_equal(self) -> bool:
        return all(row.equal for row in self.rows)

    @property
    def coefficients_cancel(self) -> bool:
        return all(g.cancels for g in self.groups)


def _spectral_coefficients(
    graphon: StepGraphon, remainder: LabeledMultigraph
) -> tuple[tuple[float, ...], list[float]]:
    """Eigenvalues with coefficients a_n = u_n^T D^{1/2} T' D^{1/2} u_n.

    T' is the matrix of 2-anchored densities of the remainder motif, one
    engine table with both labeled nodes kept, correctly rounded. Summing
    a_n times the eigenvalue reconstructs the base density with the removed
    edge restored, which is the trace identity the report checks.
    """
    r, nw, q, _ = graphon.integer_tables
    kept = [node for node, _ in remainder.labels]
    table = _graphon_sum(remainder, graphon, {}, kept)
    scale = r ** (remainder.node_count - 2) * q**remainder.total_multiplicity
    tprime = (table.astype(object) / scale).astype(float)
    d = np.sqrt([w / r for w in nw])
    core = np.outer(d, d) * tprime
    spectrum = eigendecompose(kernel_matrix(graphon))
    coeffs = [
        float(spectrum.eigenvectors[:, n] @ core @ spectrum.eigenvectors[:, n])
        for n in range(graphon.block_count)
    ]
    return spectrum.eigenvalues, coeffs


def _group_eigenvalues(
    pairs_a: list[tuple[float, float]], pairs_b: list[tuple[float, float]]
) -> tuple[CoefficientGroup, ...]:
    """Cluster eigenvalues within 1e-9 and sum coefficients per cluster.

    Float grouping is a numerical convention: exact equality of
    eigenvalues is not decidable from floating-point eigenvalues.
    """
    tagged = [(ev, coeff, 0) for ev, coeff in pairs_a]
    tagged += [(ev, coeff, 1) for ev, coeff in pairs_b]
    tagged.sort(key=lambda item: item[0])
    groups: list[CoefficientGroup] = []
    start = 0
    while start < len(tagged):
        stop = start + 1
        while stop < len(tagged) and tagged[stop][0] - tagged[stop - 1][0] < GROUP_TOL:
            stop += 1
        cluster = tagged[start:stop]
        center = math.fsum(ev for ev, _, _ in cluster) / len(cluster)
        a_sum = math.fsum(coeff for _, coeff, side in cluster if side == 0)
        b_sum = math.fsum(coeff for _, coeff, side in cluster if side == 1)
        groups.append(CoefficientGroup(center, a_sum, b_sum))
        start = stop
    groups.sort(key=lambda g: (-abs(g.eigenvalue), -g.eigenvalue))
    return tuple(groups)


def multigraph_from_simple_check(
    h1: StepGraphon,
    h2: StepGraphon,
    motif: LabeledMultigraph,
    max_simple_nodes: int = MAX_MOTIF_NODES,
) -> MultigraphCheckReport:
    """Reduce one multi-edge of a motif to subdivided simple evidence.

    Picks the first pair with a parallel edge (or the first edge), removes
    one copy to get the 2-labeled remainder, and reports: densities of the
    subdivided variants for k = 2..6 (capped by node budget), the base
    densities of the motif itself, and the per-eigenvalue coefficient sums
    that must agree pairwise when the two graphons are weakly isomorphic.
    """
    if not motif.is_unlabeled:
        raise ValueError("motif must be unlabeled")
    if not motif.edges:
        raise ValueError("motif needs at least one edge")
    pair = None
    for u, v, m in motif.edges:
        if m >= 2:
            pair = (u, v)
            break
    if pair is None:
        pair = (motif.edges[0][0], motif.edges[0][1])
    rows = []
    for k in range(2, 7):
        sub = subdivide_edge(motif, pair, k - 1)
        if sub.node_count > max_simple_nodes:
            break
        d1 = density_exact(sub, h1, node_limit=max_simple_nodes)
        d2 = density_exact(sub, h2, node_limit=max_simple_nodes)
        rows.append(SubdivisionRow(k, sub.node_count, sub.is_simple, d1, d2))
    base1 = density_exact(motif, h1)
    base2 = density_exact(motif, h2)
    remainder = multigraph(
        motif.node_count, _without_one_copy(motif, *pair), [(pair[0], 1), (pair[1], 2)]
    )
    evs1, coeffs1 = _spectral_coefficients(h1, remainder)
    evs2, coeffs2 = _spectral_coefficients(h2, remainder)
    trace1 = abs(math.fsum(a * ev for ev, a in zip(evs1, coeffs1)) - float(base1))
    trace2 = abs(math.fsum(b * ev for ev, b in zip(evs2, coeffs2)) - float(base2))
    groups = _group_eigenvalues(
        list(zip(evs1, coeffs1)), list(zip(evs2, coeffs2))
    )
    return MultigraphCheckReport(
        motif=motif,
        subdivided_pair=pair,
        base_density_1=base1,
        base_density_2=base2,
        rows=tuple(rows),
        groups=groups,
        trace_error_1=trace1,
        trace_error_2=trace2,
    )


def render_report(report: MultigraphCheckReport) -> str:
    lines = [
        f"subdivided pair: {report.subdivided_pair}",
        f"base densities: {report.base_density_1} vs {report.base_density_2}"
        f" ({'equal' if report.base_equal else 'DIFFER'})",
    ]
    for row in report.rows:
        kind = "simple" if row.is_simple else "multi"
        mark = "equal" if row.equal else "DIFFER"
        lines.append(
            f"k={row.k}: {row.node_count} nodes ({kind}), "
            f"{row.density_1} vs {row.density_2} ({mark})"
        )
    lines.append("eigenvalue coefficient sums:")
    for g in report.groups:
        mark = "cancel" if g.cancels else "MISMATCH"
        lines.append(
            f"  {g.eigenvalue:+.12f}: a={g.a_sum:+.12f} b={g.b_sum:+.12f} ({mark})"
        )
    lines.append(
        f"trace identity error: {report.trace_error_1:.3e} / {report.trace_error_2:.3e}"
    )
    return "\n".join(lines)
