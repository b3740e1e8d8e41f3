"""Twin classes, quotients, anchor tagging, and the weak-isomorphism decision.

Two blocks are twins when their value rows agree on every column of positive
weight. Quotienting by the twin partition (after discarding weightless
blocks) is density preserving, and exact matching of the twin-free reduced
forms decides weak isomorphism for step graphons. Couplings between weakly
isomorphic graphons are built from the shared reduced form, class by class.

All of it computes on the integer tables of StepGraphon.integer_tables: the
weights and values as Python ints over their least common denominators, and
two graphons are compared at the lcm of their scales. Fractions are built
only for the results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .density import density_exact
from .graphons import StepGraphon
from .graphs import LabeledMultigraph, enumerate_simple_graphs
from .rational import format_rational, parse_rational
from .streams import DOMAIN_ANCHORS, draw_blocks, philox_stream, weight_thresholds

TagVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class BlockPartition:
    """class_of[b] is the class id of block b; ids are contiguous from 0."""

    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.class_of:
            raise ValueError("partition of zero blocks")
        ids = set(self.class_of)
        c = len(ids)
        if ids != set(range(c)):
            raise ValueError(f"class ids must be contiguous 0..{c - 1}, got {sorted(ids)}")

    @property
    def class_count(self) -> int:
        return max(self.class_of) + 1

    def members(self, class_id: int) -> list[int]:
        return [b for b, c in enumerate(self.class_of) if c == class_id]

    @classmethod
    def from_keys(cls, keys: Sequence[object]) -> "BlockPartition":
        """Group equal keys; class ids follow first appearance order."""
        seen: dict[object, int] = {}
        class_of = []
        for key in keys:
            if key not in seen:
                seen[key] = len(seen)
            class_of.append(seen[key])
        return cls(tuple(class_of))


def discrete_partition(block_count: int) -> BlockPartition:
    return BlockPartition(tuple(range(block_count)))


def parse_partition(text: str, block_count: int) -> BlockPartition:
    """Classes separated by '|', members by ',': "0,1|2" groups 0 with 1."""
    class_of: dict[int, int] = {}
    for cid, part in enumerate(text.split("|")):
        for token in part.split(","):
            token = token.strip()
            if not token:
                raise ValueError("empty partition member")
            b = int(token)
            if not 0 <= b < block_count:
                raise ValueError(f"block {b} out of range for {block_count} blocks")
            if b in class_of:
                raise ValueError(f"block {b} listed twice")
            class_of[b] = cid
    if len(class_of) != block_count:
        missing = sorted(set(range(block_count)) - set(class_of))
        raise ValueError(f"blocks {missing} missing from partition")
    return BlockPartition(tuple(class_of[b] for b in range(block_count)))


def _row_keys(
    graphon: StepGraphon, rows: Sequence[int], cols: Sequence[int]
) -> list[tuple[int, ...]]:
    """Integer value rows restricted to cols: equal keys mean equal rows."""
    table = graphon.integer_tables[3].tolist()
    return [tuple(table[i][j] for j in cols) for i in rows]


def twin_partition(graphon: StepGraphon) -> BlockPartition:
    """Group blocks whose rows agree on all positive-weight columns."""
    positive = [j for j, w in enumerate(graphon.integer_tables[1]) if w > 0]
    return BlockPartition.from_keys(_row_keys(graphon, range(graphon.block_count), positive))


def quotient(graphon: StepGraphon, partition: BlockPartition) -> StepGraphon:
    """Merge classes: weights add, values average with weight products.

    Classes of total weight zero are dropped; their value rows are not
    determined by the averaging relation and keeping them would break
    canonical forms.
    """
    if len(partition.class_of) != graphon.block_count:
        raise ValueError("partition size does not match block count")
    nw = graphon.integer_tables[1]
    members: list[list[int]] = [[] for _ in range(partition.class_count)]
    for b, cid in enumerate(partition.class_of):
        if nw[b] > 0:
            members[cid].append(b)
    return _merge_classes(graphon, [m for m in members if m])


def _merge_classes(graphon: StepGraphon, classes: list[list[int]]) -> StepGraphon:
    """Quotient onto the given classes of positive-weight blocks, in order.

    With integer weights nw at scale r and values nv at scale q, the class
    pair (S, T) gets weight W_S / r and value
    sum(nw_i nw_j nv_ij for i in S, j in T) / (q W_S W_T).
    """
    r, nw, q, nv = graphon.integer_tables
    order = [b for cls in classes for b in cls]
    starts = np.cumsum([0] + [len(cls) for cls in classes[:-1]])
    scaled = np.array([nw[b] for b in order], dtype=object)
    cells = scaled[:, None] * nv[np.ix_(order, order)] * scaled[None, :]
    raw = np.add.reduceat(np.add.reduceat(cells, starts, axis=0), starts, axis=1).tolist()
    del cells
    class_weight = [sum(nw[b] for b in cls) for cls in classes]
    weights = tuple(Fraction(x, r) for x in class_weight)
    values = tuple(
        tuple(Fraction(x, q * ws * wt) for x, wt in zip(row, class_weight))
        for row, ws in zip(raw, class_weight)
    )
    return StepGraphon(weights, values, graphon.value_range)


def twin_reduce(graphon: StepGraphon) -> StepGraphon:
    """Drop weightless blocks, then quotient by the twin partition."""
    return _twin_reduce_with_map(graphon)[0]


def _twin_reduce_with_map(graphon: StepGraphon) -> tuple[StepGraphon, dict[int, int]]:
    """Reduced form plus original positive-weight block -> reduced class."""
    kept = [b for b, w in enumerate(graphon.integer_tables[1]) if w > 0]
    # twins among the positive-weight blocks; every class has positive
    # weight, so class ids are the block indices of the reduced form
    partition = BlockPartition.from_keys(_row_keys(graphon, kept, kept))
    classes: list[list[int]] = [[] for _ in range(partition.class_count)]
    for b, cid in zip(kept, partition.class_of):
        classes[cid].append(b)
    block_map = dict(zip(kept, partition.class_of))
    return _merge_classes(graphon, classes), block_map


def anchor_tags(
    graphon: StepGraphon, anchors: Sequence[int]
) -> tuple[list[TagVector], BlockPartition]:
    """Per-block value profile against the anchor blocks, and its partition."""
    for a in anchors:
        if not 0 <= a < graphon.block_count:
            raise ValueError(f"anchor block {a} out of range")
    tags = [tuple(row[a] for a in anchors) for row in graphon.values]
    return tags, BlockPartition.from_keys(tags)


def random_anchors(graphon: StepGraphon, m: int, seed: int) -> list[int]:
    """m i.i.d. weight-distributed block indices from the anchor stream."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return []
    gen = philox_stream(seed, DOMAIN_ANCHORS)
    thresholds = weight_thresholds(graphon.weights)
    return [int(b) for b in draw_blocks(gen, thresholds, m)]


def anchored_quotient(graphon: StepGraphon, anchors: Sequence[int]) -> StepGraphon:
    """Quotient by the anchor-tag partition.

    Tags that separate exactly the twin classes reproduce twin_reduce; the
    empty anchor list collapses everything to the global average.
    """
    _, partition = anchor_tags(graphon, anchors)
    return quotient(graphon, partition)


@dataclass(frozen=True)
class WeakIsoVerdict:
    """Outcome of the reduced-form matching.

    bijection maps blocks of twin_reduce(H1) to blocks of twin_reduce(H2)
    and preserves weights and values exactly; witness names the first
    invariant that failed.
    """

    isomorphic: bool
    bijection: tuple[int, ...] | None = None
    witness: str | None = None

    def __post_init__(self) -> None:
        if self.isomorphic != (self.bijection is not None):
            raise ValueError("isomorphic verdicts carry a bijection, others do not")
        if self.isomorphic == (self.witness is not None):
            raise ValueError("exactly one of bijection/witness must be set")


def _common_scale(
    r1: StepGraphon, r2: StepGraphon
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Weights and values of both graphons as ints at shared denominators.

    Weights go to the lcm of the two weight scales, values to the lcm of the
    two value scales; both maps preserve equality and order.
    """
    ra, wa, qa, va = r1.integer_tables
    rb, wb, qb, vb = r2.integer_tables
    r, q = math.lcm(ra, rb), math.lcm(qa, qb)
    return (
        [x * (r // ra) for x in wa],
        [x * (r // rb) for x in wb],
        (va * (q // qa)).tolist(),
        (vb * (q // qb)).tolist(),
    )


def _row_profiles(weights: list[int], values: list[list[int]]) -> list[tuple]:
    """Per block: its weight and the sorted (value, weight) pairs of its row."""
    return [(w, tuple(sorted(zip(row, weights)))) for w, row in zip(weights, values)]


def _find_bijection(
    w1: list[int], v1: list[list[int]], w2: list[int], v2: list[list[int]]
) -> tuple[int, ...] | None:
    """Backtracking over blocks ordered by (weight, row profile)."""
    n = len(w1)
    profiles1 = _row_profiles(w1, v1)
    profiles2 = _row_profiles(w2, v2)
    order = sorted(range(n), key=profiles1.__getitem__)
    image = [-1] * n
    used = [False] * n

    def rec(d: int) -> bool:
        if d == n:
            return True
        i = order[d]
        want = profiles1[i]
        for j in range(n):
            if used[j] or profiles2[j] != want:
                continue
            ok = True
            for e in range(d):
                k = order[e]
                if v1[i][k] != v2[j][image[k]]:
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            if rec(d + 1):
                return True
            image[i] = -1
            used[j] = False
        return False

    if rec(0):
        return tuple(image)
    return None


def weak_iso(h1: StepGraphon, h2: StepGraphon) -> WeakIsoVerdict:
    """Decide weak isomorphism by exact matching of twin-free reduced forms."""
    return _match_reduced(twin_reduce(h1), twin_reduce(h2))


def _match_reduced(r1: StepGraphon, r2: StepGraphon) -> WeakIsoVerdict:
    """Match two twin-free reduced forms.

    Cheap invariants run first so the witness is as small as possible:
    block count, weight multiset, value multiset, then the backtracking
    search for a weight- and value-preserving block bijection. All of them
    compare ints at a common scale.
    """
    if r1.block_count != r2.block_count:
        return WeakIsoVerdict(
            False,
            witness=f"reduced block counts differ: {r1.block_count} vs {r2.block_count}",
        )
    w1, w2, v1, v2 = _common_scale(r1, r2)
    if sorted(w1) != sorted(w2):
        return WeakIsoVerdict(
            False,
            witness="weight multisets differ: "
            f"{[format_rational(w) for w in sorted(r1.weights)]} vs "
            f"{[format_rational(w) for w in sorted(r2.weights)]}",
        )
    if sorted(v for row in v1 for v in row) != sorted(v for row in v2 for v in row):
        return WeakIsoVerdict(False, witness="value multisets differ")
    bijection = _find_bijection(w1, v1, w2, v2)
    if bijection is None:
        return WeakIsoVerdict(
            False, witness="no weight- and value-preserving block bijection exists"
        )
    for i, bi in enumerate(bijection):
        assert w1[i] == w2[bi]
        assert all(v1[i][j] == v2[bi][bj] for j, bj in enumerate(bijection))
    return WeakIsoVerdict(True, bijection=bijection)


def render_verdict(verdict: WeakIsoVerdict) -> str:
    if verdict.isomorphic:
        assert verdict.bijection is not None
        pairs = ", ".join(f"{i} -> {j}" for i, j in enumerate(verdict.bijection))
        return f"Isomorphic\nreduced block mapping: {pairs}"
    return f"NotIsomorphic\nwitness: {verdict.witness}"


def find_distinguishing_graph(
    h1: StepGraphon, h2: StepGraphon, max_nodes: int
) -> LabeledMultigraph | None:
    """First simple graph (enumeration order) whose densities differ exactly.

    None means no distinguisher exists up to max_nodes, which is not a
    proof of weak isomorphism; use weak_iso for the decision.
    """
    for f in enumerate_simple_graphs(max_nodes):
        if density_exact(f, h1) != density_exact(f, h2):
            return f
    return None


def common_quotient(
    h1: StepGraphon, h2: StepGraphon
) -> tuple[StepGraphon, dict[int, int], dict[int, int]] | None:
    """Shared reduced form with block maps from both graphons onto it.

    Each positive-weight block maps to a block of U with the exact same
    row behavior: values_H(i,j) = values_U(map(i), map(j)). None when the
    graphons are not weakly isomorphic.
    """
    u, map1 = _twin_reduce_with_map(h1)
    r2, map2_raw = _twin_reduce_with_map(h2)
    verdict = _match_reduced(u, r2)
    if not verdict.isomorphic:
        return None
    assert verdict.bijection is not None
    inverse = {j: i for i, j in enumerate(verdict.bijection)}
    map2 = {orig: inverse[cls] for orig, cls in map2_raw.items()}
    return u, map1, map2


@dataclass(frozen=True)
class CouplingMatrix:
    """Joint block distribution with the two weight vectors as marginals."""

    masses: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.masses:
            raise ValueError("empty coupling")
        width = len(self.masses[0])
        for row in self.masses:
            if len(row) != width:
                raise ValueError("ragged mass matrix")
            if any(m.numerator < 0 for m in row):
                raise ValueError("negative mass")

    @property
    def row_count(self) -> int:
        return len(self.masses)

    @property
    def col_count(self) -> int:
        return len(self.masses[0])

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.masses)

    def col_sums(self) -> tuple[Fraction, ...]:
        return tuple(
            sum((row[j] for row in self.masses), Fraction(0))
            for j in range(self.col_count)
        )


def build_coupling(h1: StepGraphon, h2: StepGraphon) -> CouplingMatrix | None:
    """Independent-within-class coupling over the common quotient.

    masses[i][j] = p_i * p'_j / q_c when both blocks map to class c, else 0.
    Rows and columns cover all original blocks; weightless blocks get zero
    rows. None iff the graphons are not weakly isomorphic.
    """
    cq = common_quotient(h1, h2)
    if cq is None:
        return None
    u, map1, map2 = cq
    # with weights n_i / r_1, n'_j / r_2 and W_c = a / b, the mass of a pair
    # in class c is n_i n'_j b / (r_1 r_2 a)
    r1, n1 = h1.integer_tables[:2]
    r2, n2 = h2.integer_tables[:2]
    members1: list[list[int]] = [[] for _ in range(u.block_count)]
    members2: list[list[int]] = [[] for _ in range(u.block_count)]
    for i, c in map1.items():
        members1[c].append(i)
    for j, c in map2.items():
        members2[c].append(j)
    zero = Fraction(0)
    masses = [[zero] * h2.block_count for _ in range(h1.block_count)]
    for c, wc in enumerate(u.weights):
        den = r1 * r2 * wc.numerator
        for i in members1[c]:
            row, top = masses[i], n1[i] * wc.denominator
            for j in members2[c]:
                row[j] = Fraction(top * n2[j], den)
    return CouplingMatrix(tuple(tuple(row) for row in masses))


def serialize_coupling(coupling: CouplingMatrix) -> str:
    payload = {
        "rows": coupling.row_count,
        "cols": coupling.col_count,
        "masses": [[format_rational(m) for m in row] for row in coupling.masses],
    }
    return json.dumps(payload, indent=1) + "\n"


def parse_coupling(text: str) -> CouplingMatrix:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "masses" not in payload:
        raise ValueError("coupling file needs a 'masses' matrix")
    masses = tuple(
        tuple(parse_rational(entry) for entry in row) for row in payload["masses"]
    )
    coupling = CouplingMatrix(masses)
    for key, expect in (("rows", coupling.row_count), ("cols", coupling.col_count)):
        if key in payload and payload[key] != expect:
            raise ValueError(f"{key}={payload[key]} does not match matrix shape {expect}")
    return coupling
