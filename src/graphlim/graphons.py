"""Step graphons: block weights plus a symmetric matrix of exact rational values.

A step graphon is the finite, exactly computable form of a kernel on a
probability space: block i has measure weights[i], and the kernel equals
values[i][j] on the block-i x block-j rectangle. Arbitrary bounded kernels
appear only as BlackBoxKernel, which supports Monte Carlo estimation and
nothing exact.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .graphs import LabeledMultigraph
from .rational import RationalLike, format_rational, parse_rational

DEFAULT_RANGE = (Fraction(0), Fraction(1))


@dataclass(frozen=True)
class StepGraphon:
    weights: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]
    value_range: tuple[Fraction, Fraction] = DEFAULT_RANGE

    def __post_init__(self) -> None:
        validate(self)

    @property
    def block_count(self) -> int:
        return len(self.weights)

    @cached_property
    def integer_tables(self) -> tuple[int, tuple[int, ...], int, np.ndarray]:
        """(r, r * weights, q, q * values) with r and q the least common
        denominators of the weights and of the values, computed once per
        graphon. The value table is a read-only object array of Python ints.
        """
        r = math.lcm(*{w.denominator for w in self.weights})
        q = math.lcm(*{v.denominator for row in self.values for v in row})
        values = np.array(
            [[v.numerator * (q // v.denominator) for v in row] for row in self.values],
            dtype=object,
        )
        values.flags.writeable = False
        return r, tuple(w.numerator * (r // w.denominator) for w in self.weights), q, values

    def cumulative(self) -> tuple[Fraction, ...]:
        """Block boundaries 0 = c_0 <= c_1 <= ... <= c_B = 1."""
        cum = [Fraction(0)]
        for w in self.weights:
            cum.append(cum[-1] + w)
        return tuple(cum)


def step_graphon(
    weights: Sequence[RationalLike],
    values: Sequence[Sequence[RationalLike]],
    value_range: tuple[RationalLike, RationalLike] | None = None,
) -> StepGraphon:
    """Coerce loose rational data (ints, "p/q" strings) into a StepGraphon.

    Each distinct token is parsed once; the memo is keyed by type as well, so
    True is still rejected after an equal 1 has been accepted.
    """
    memo: dict[tuple[type, object], Fraction] = {}

    def parse(x: RationalLike) -> Fraction:
        key = (type(x), x)
        try:
            return memo[key]
        except KeyError:
            memo[key] = value = parse_rational(x)
            return value
        except TypeError:  # unhashable, hence not a rational either
            return parse_rational(x)

    w = tuple(parse(x) for x in weights)
    v = tuple(tuple(parse(x) for x in row) for row in values)
    if value_range is None:
        rng = DEFAULT_RANGE
    else:
        rng = (parse_rational(value_range[0]), parse_rational(value_range[1]))
    return StepGraphon(w, v, rng)


def validate(graphon: StepGraphon) -> None:
    """Exact invariant check; raises ValueError with a distinct message per rule.

    Symmetry and range are checked on the cached integer value table; only
    a failing check rescans the values, in row-major order, to name the first
    offending entry.
    """
    w, v = graphon.weights, graphon.values
    lo, hi = graphon.value_range
    if lo > hi:
        raise ValueError(f"value_range is empty: [{lo}, {hi}]")
    if not w:
        raise ValueError("graphon needs at least one block")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if sum(w) != 1:
        raise ValueError(f"weights must sum to 1, got {sum(w)}")
    b = len(w)
    if len(v) != b or any(len(row) != b for row in v):
        raise ValueError(f"values must be a {b}x{b} matrix")
    _, _, q, nv = graphon.integer_tables
    if not (nv == nv.T).all():
        for i in range(b):
            for j in range(i + 1, b):
                if v[i][j] != v[j][i]:
                    raise ValueError(f"values asymmetric at ({i},{j})")
    if not (lo * q <= nv.min() and nv.max() <= hi * q):
        for i in range(b):
            for j in range(b):
                if not lo <= v[i][j] <= hi:
                    raise ValueError(f"value {v[i][j]} at ({i},{j}) outside range [{lo}, {hi}]")


def from_graph(graph: LabeledMultigraph) -> StepGraphon:
    """0/1 step graphon of a simple unlabeled graph: n equal blocks, adjacency values."""
    if not graph.is_simple:
        raise ValueError("from_graph needs a simple graph, got a multigraph")
    if not graph.is_unlabeled:
        raise ValueError("from_graph needs an unlabeled graph")
    n = graph.node_count
    w = Fraction(1, n)
    vals = [[Fraction(0)] * n for _ in range(n)]
    for u, v, _ in graph.edges:
        vals[u][v] = vals[v][u] = Fraction(1)
    return StepGraphon((w,) * n, tuple(tuple(row) for row in vals))


def constant(
    c: RationalLike, value_range: tuple[RationalLike, RationalLike] | None = None
) -> StepGraphon:
    cf = parse_rational(c)
    return step_graphon([1], [[cf]], value_range)


def blowup(graphon: StepGraphon, k: int) -> StepGraphon:
    """Split every block into k equal copies; copy c of block i sits at c*B+i.

    The result is a pull-back of the original along a measure preserving
    map, hence weakly isomorphic to it (every density is preserved).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k == 1:
        return graphon
    b = graphon.block_count
    w = tuple(graphon.weights[i % b] / k for i in range(b * k))
    v = tuple(
        tuple(graphon.values[i % b][j % b] for j in range(b * k)) for i in range(b * k)
    )
    return StepGraphon(w, v, graphon.value_range)


def affine_rescale(graphon: StepGraphon, a: RationalLike, b: RationalLike) -> StepGraphon:
    """values -> a*values + b entrywise; the declared range follows along."""
    af, bf = parse_rational(a), parse_rational(b)
    if af == 0:
        raise ValueError("a must be nonzero")
    lo, hi = graphon.value_range
    ends = sorted((af * lo + bf, af * hi + bf))
    v = tuple(tuple(af * x + bf for x in row) for row in graphon.values)
    return StepGraphon(graphon.weights, v, (ends[0], ends[1]))


def block_of(graphon: StepGraphon, x: Fraction) -> int:
    """Block whose half-open interval [c_{i-1}, c_i) contains x.

    Zero-weight blocks get empty intervals and are never returned.
    """
    if not 0 <= x < 1:
        raise ValueError(f"coordinate {x} outside [0, 1)")
    cum = graphon.cumulative()
    # rightmost boundary <= x; equal boundaries (weight-0 blocks) are skipped
    return bisect_right(cum, x) - 1


def evaluate(graphon: StepGraphon, x, y) -> Fraction:
    """Kernel value at real coordinates in [0,1); exact rational result.

    Floats convert exactly (they are dyadic rationals), so the block
    convention has no rounding ambiguity.
    """
    xf, yf = Fraction(x), Fraction(y)
    return graphon.values[block_of(graphon, xf)][block_of(graphon, yf)]


def _identity(x):
    return x


def _ceil_double(c: Fraction) -> float:
    """The smallest double >= c."""
    d = float(c)
    return d if Fraction(d) >= c else math.nextafter(d, math.inf)


@dataclass(frozen=True)
class BlackBoxKernel:
    """Opaque symmetric bounded kernel; Monte Carlo paths only.

    The kernel's value at coordinates (x, y) is
    evaluator(points(x), points(y)), which is what calling the kernel
    returns. points maps a coordinate, or a column of them, to what the
    evaluator reads; the Monte Carlo estimator applies it once to each motif
    node's column and the evaluator once per edge. The default points is the
    identity, so an evaluator of coordinates needs nothing else. The pair
    may accept numpy arrays elementwise (the estimator probes for that and
    otherwise lifts it with np.frompyfunc), but only scalar behavior is part
    of the contract.
    """

    evaluator: Callable[[Any, Any], float]
    points: Callable[[Any], Any] = _identity

    def __call__(self, x, y):
        return self.evaluator(self.points(x), self.points(y))

    @classmethod
    def from_step_graphon(cls, graphon: StepGraphon) -> "BlackBoxKernel":
        """Float realization of a step graphon, vectorized over arrays: points
        gives intp block indices, and the evaluator gathers from the raveled
        float value table.

        Each cut is the smallest double at or above an exact block boundary,
        so for every float x in [0, 1) the block is the number of cuts <= x,
        which is block_of(graphon, Fraction(x)). An array of coordinates in
        [0, 1) is looked up in a guide table (Chen and Asau, 1974) of G cells
        of width 1/G, G the power of two in [64 B, 128 B), so that int(x * G)
        is the exact cell: a cell with no cut strictly inside it holds its
        block, and the few coordinates in a cell holding a cut go through
        searchsorted on the cuts. Scalars, and arrays with a coordinate
        outside [0, 1) or NaN, go through searchsorted alone.
        """
        b = graphon.block_count
        cuts = np.array([_ceil_double(c) for c in graphon.cumulative()[1:-1]])
        _, _, q, nv = graphon.integer_tables
        flat = (nv / q).astype(float).ravel()
        cells = 1 << (6 + (b - 1).bit_length())
        edges = np.arange(cells + 1) / cells
        first = np.searchsorted(cuts, edges[:-1], side="right")
        guide = np.where(first == np.searchsorted(cuts, edges[1:], side="left"), first, -1)

        def points(x):
            x = np.asarray(x, dtype=float)
            if x.ndim and x.size:
                with np.errstate(over="ignore"):
                    scaled = x * cells
                if scaled.min() >= 0 and scaled.max() < cells:
                    blocks = guide.take(scaled.astype(np.intp))
                    split = np.flatnonzero(blocks < 0)
                    if len(split):
                        blocks.flat[split] = np.searchsorted(cuts, x.flat[split], side="right")
                    return blocks
            return np.searchsorted(cuts, x, side="right")

        def evaluator(bx, by):
            return flat.take(bx * b + by)

        return cls(evaluator=evaluator, points=points)


# -- file format -------------------------------------------------------------


def parse_graphon(text: str) -> StepGraphon:
    """Parse the graphon file: {"weights": [...], "values": [[...]], "range": [lo, hi]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"graphon file is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "weights" not in data or "values" not in data:
        raise ValueError('graphon file needs "weights" and "values"')
    weights = data["weights"]
    values = data["values"]
    if not isinstance(weights, list) or not isinstance(values, list):
        raise ValueError('"weights" and "values" must be arrays')
    if not all(isinstance(row, list) for row in values):
        raise ValueError('"values" must be an array of arrays')
    rng = data.get("range")
    if rng is not None:
        if not isinstance(rng, list) or len(rng) != 2:
            raise ValueError('"range" must be a two-element array')
        rng = (rng[0], rng[1])
    return step_graphon(weights, values, rng)


def _json_array(items: list[str], depth: int) -> str:
    """JSON array of already encoded items, laid out as json.dumps(indent=1)
    lays out an array `depth` levels down."""
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


def serialize_graphon(graphon: StepGraphon) -> str:
    """Inverse of parse_graphon; emits the lower triangle mirrored, lowest terms.

    The text is json.dumps(indent=1) of the weights, values and, unless it is
    the default, the range, written in one join: each distinct value is
    encoded once, from the symmetric integer table.
    """
    _, _, q, table = graphon.integer_tables
    rows = table.tolist()
    token = {x: json.dumps(format_rational(Fraction(x, q))) for x in set().union(*rows)}
    rows_text = [_json_array(list(map(token.__getitem__, row)), 2) for row in rows]
    fields = {
        "weights": _json_array([json.dumps(format_rational(w)) for w in graphon.weights], 1),
        "values": _json_array(rows_text, 1),
    }
    if graphon.value_range != DEFAULT_RANGE:
        ends = [json.dumps(format_rational(x)) for x in graphon.value_range]
        fields["range"] = _json_array(ends, 1)
    return "{\n" + ",\n".join(f' "{key}": {text}' for key, text in fields.items()) + "\n}\n"
