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
from itertools import accumulate, chain
from typing import Any, Callable, Sequence

import numpy as np

from .graphs import LabeledMultigraph
from .rational import RationalLike, format_rational, parse_rational

DEFAULT_RANGE = (Fraction(0), Fraction(1))
_PLAIN_TOKENS = frozenset({str, int, Fraction})


@dataclass(frozen=True)
class StepGraphon:
    """Block i has weight _nw[i] / _r and the kernel is _table[i][j] / _q on
    the block-i x block-j rectangle, in lowest terms: the constructor divides
    out common factors, so equal graphons have equal fields. Build one with
    step_graphon; weights and values are derived views.
    """

    _r: int
    _nw: tuple[int, ...]
    _q: int
    _table: tuple[tuple[int, ...], ...]
    value_range: tuple[Fraction, Fraction] = DEFAULT_RANGE

    def __post_init__(self) -> None:
        validate(self)
        g = math.gcd(self._r, *self._nw)
        if g > 1:
            object.__setattr__(self, "_r", self._r // g)
            object.__setattr__(self, "_nw", tuple(x // g for x in self._nw))
        g = math.gcd(self._q, *chain.from_iterable(self._table))
        if g > 1:
            object.__setattr__(self, "_q", self._q // g)
            table = tuple(tuple(x // g for x in row) for row in self._table)
            object.__setattr__(self, "_table", table)

    @property
    def block_count(self) -> int:
        return len(self._nw)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._r) for x in self._nw)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self._q) for x in row) for row in self._table)

    @cached_property
    def integer_tables(self) -> tuple[int, tuple[int, ...], int, np.ndarray]:
        """(r, r * weights, q, q * values), r and q the least common denominators
        of the weights and of the values; the value table is a read-only object
        array of Python ints."""
        values = np.array(self._table, dtype=object)
        values.flags.writeable = False
        return self._r, self._nw, self._q, values

    @cached_property
    def table_top(self) -> int:
        """The largest |entry| of the integer value table, at least 1."""
        return max(1, *map(abs, chain.from_iterable(self._table)))

    def table_power(self, dtype: type, m: int) -> np.ndarray:
        """exact_power of the integer value table, made once per (dtype, m)
        and read-only."""
        key = (dtype, m)
        if key not in self._table_powers:
            power = exact_power(self.integer_tables[3], dtype, m)
            power.flags.writeable = False
            self._table_powers[key] = power
        return self._table_powers[key]

    @cached_property
    def _table_powers(self) -> dict[tuple[type, int], np.ndarray]:
        return {}

    @cached_property
    def _boundaries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._r) for c in accumulate(self._nw, initial=0))

    def cumulative(self) -> tuple[Fraction, ...]:
        """Block boundaries 0 = c_0 <= c_1 <= ... <= c_B = 1."""
        return self._boundaries


def exact_power(table: np.ndarray, dtype: type, m: int) -> np.ndarray:
    """table**m as a dtype array (np.float64, np.int64 or object) of integers,
    raised in exact integers, int64 on the way to float64, and converted
    once. The caller ensures that every entry fits dtype exactly."""
    if m == 1:
        return table.astype(dtype)
    exact = table.astype(object if dtype is object else np.int64) ** m
    return exact.astype(dtype, copy=False)


def step_graphon(
    weights: Sequence[RationalLike],
    values: Sequence[Sequence[RationalLike]],
    value_range: tuple[RationalLike, RationalLike] | None = None,
) -> StepGraphon:
    """Coerce loose rational data (ints, "p/q" strings) into a StepGraphon.

    Each distinct token is parsed once, in order of first appearance, and
    each cell filled with its token's int by lookup. Equal tokens share a
    parse only if they are str, int or Fraction: a table holding another
    type, such as a bool equal to 1, is first checked token by token.
    """

    def scaled(rows: Sequence[Sequence[RationalLike]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
        cells = list(chain.from_iterable(rows))
        if not set(map(type, cells)) <= _PLAIN_TOKENS:
            for x in cells:
                parse_rational(x)
        parsed = [(x, parse_rational(x)) for x in dict.fromkeys(cells)]
        den = math.lcm(*(f.denominator for _, f in parsed))
        ints = {x: f.numerator * (den // f.denominator) for x, f in parsed}
        return den, tuple(tuple(map(ints.__getitem__, row)) for row in rows)

    r, (nw,) = scaled([weights])
    q, table = scaled(values)
    if value_range is None:
        rng = DEFAULT_RANGE
    else:
        rng = (parse_rational(value_range[0]), parse_rational(value_range[1]))
    return StepGraphon(r, nw, q, table, rng)


def validate(graphon: StepGraphon) -> None:
    """Exact invariant check; raises ValueError with a distinct message per rule.

    Every rule is checked on the integer tables; only a failing symmetry or
    range check rescans the table, in row-major order, to name the first
    offending entry.
    """
    r, nw, q, table = graphon._r, graphon._nw, graphon._q, graphon._table
    lo, hi = graphon.value_range
    if lo > hi:
        raise ValueError(f"value_range is empty: [{lo}, {hi}]")
    if not nw:
        raise ValueError("graphon needs at least one block")
    if any(x < 0 for x in nw):
        raise ValueError("weights must be nonnegative")
    if sum(nw) != r:
        raise ValueError(f"weights must sum to 1, got {Fraction(sum(nw), r)}")
    b = len(nw)
    if len(table) != b or any(len(row) != b for row in table):
        raise ValueError(f"values must be a {b}x{b} matrix")
    if table != tuple(zip(*table)):
        i, j = next(
            (i, j) for i in range(b) for j in range(i + 1, b) if table[i][j] != table[j][i]
        )
        raise ValueError(f"values asymmetric at ({i},{j})")
    if not (lo * q <= min(map(min, table)) and max(map(max, table)) <= hi * q):
        for i in range(b):
            for j in range(b):
                if not lo * q <= table[i][j] <= hi * q:
                    v = Fraction(table[i][j], q)
                    raise ValueError(f"value {v} at ({i},{j}) outside range [{lo}, {hi}]")


def from_graph(graph: LabeledMultigraph) -> StepGraphon:
    """0/1 step graphon of a simple unlabeled graph: n equal blocks, adjacency values."""
    if not graph.is_simple:
        raise ValueError("from_graph needs a simple graph, got a multigraph")
    if not graph.is_unlabeled:
        raise ValueError("from_graph needs an unlabeled graph")
    n = graph.node_count
    rows = [[0] * n for _ in range(n)]
    for u, v, _ in graph.edges:
        rows[u][v] = rows[v][u] = 1
    return StepGraphon(n, (1,) * n, 1, tuple(map(tuple, rows)))


def constant(
    c: RationalLike, value_range: tuple[RationalLike, RationalLike] | None = None
) -> StepGraphon:
    return step_graphon([1], [[c]], value_range)


def blowup(graphon: StepGraphon, k: int) -> StepGraphon:
    """Split every block into k equal copies; copy c of block i sits at c*B+i.

    The result is a pull-back of the original along a measure preserving
    map, hence weakly isomorphic to it (every density is preserved): weights
    n_i over r*k, and the value table tiled k x k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k == 1:
        return graphon
    table = tuple(row * k for row in graphon._table) * k
    return StepGraphon(graphon._r * k, graphon._nw * k, graphon._q, table, graphon.value_range)


def affine_rescale(graphon: StepGraphon, a: RationalLike, b: RationalLike) -> StepGraphon:
    """values -> a*values + b entrywise; the declared range follows along."""
    af, bf = parse_rational(a), parse_rational(b)
    if af == 0:
        raise ValueError("a must be nonzero")
    lo, hi = graphon.value_range
    ends = sorted((af * lo + bf, af * hi + bf))
    # with a = s/d and b = t/d, a*x/q + b = (s*x + t*q) / (d*q)
    d, q = math.lcm(af.denominator, bf.denominator), graphon._q
    s, tq = int(af * d), int(bf * d) * q
    table = tuple(tuple(s * x + tq for x in row) for row in graphon._table)
    return StepGraphon(graphon._r, graphon._nw, d * q, table, (ends[0], ends[1]))


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
    i, j = block_of(graphon, Fraction(x)), block_of(graphon, Fraction(y))
    return Fraction(graphon._table[i][j], graphon._q)


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
    rows, q = graphon._table, graphon._q
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
