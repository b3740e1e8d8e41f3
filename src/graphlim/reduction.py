"""Twin classes, quotients, anchor tagging, and the weak-isomorphism decision.

Two blocks are twins when their value rows agree on every column of positive
weight. Quotienting by the twin partition (after discarding weightless
blocks) is density preserving, and exact matching of the twin-free reduced
forms decides weak isomorphism for step graphons. Couplings between weakly
isomorphic graphons are built from the shared reduced form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


def twin_partition(graphon: StepGraphon) -> BlockPartition:
    """Group blocks whose rows agree on all positive-weight columns."""
    positive = [j for j, w in enumerate(graphon.weights) if w > 0]
    keys = [tuple(row[j] for j in positive) for row in graphon.values]
    return BlockPartition.from_keys(keys)


def quotient(graphon: StepGraphon, partition: BlockPartition) -> StepGraphon:
    """Merge classes: weights add, values average with weight products.

    Classes of total weight zero are dropped; their value rows are not
    determined by the averaging relation and keeping them would break
    canonical forms.
    """
    if len(partition.class_of) != graphon.block_count:
        raise ValueError("partition size does not match block count")
    c = partition.class_count
    class_weight = [Fraction(0)] * c
    for b, cid in enumerate(partition.class_of):
        class_weight[cid] += graphon.weights[b]
    keep = [cid for cid in range(c) if class_weight[cid] > 0]
    index = {cid: k for k, cid in enumerate(keep)}
    weights = tuple(class_weight[cid] for cid in keep)
    raw = [[Fraction(0)] * len(keep) for _ in keep]
    for i, wi in enumerate(graphon.weights):
        if wi == 0:
            continue
        ci = index[partition.class_of[i]]
        row = graphon.values[i]
        for j, wj in enumerate(graphon.weights):
            if wj == 0:
                continue
            raw[ci][index[partition.class_of[j]]] += wi * wj * row[j]
    values = tuple(
        tuple(raw[s][t] / (weights[s] * weights[t]) for t in range(len(keep)))
        for s in range(len(keep))
    )
    return StepGraphon(weights, values, graphon.value_range)


def _drop_zero_weight(graphon: StepGraphon) -> tuple[StepGraphon, list[int]]:
    kept = [b for b, w in enumerate(graphon.weights) if w > 0]
    if len(kept) == graphon.block_count:
        return graphon, kept
    weights = tuple(graphon.weights[b] for b in kept)
    values = tuple(tuple(graphon.values[i][j] for j in kept) for i in kept)
    return StepGraphon(weights, values, graphon.value_range), kept


def twin_reduce(graphon: StepGraphon) -> StepGraphon:
    """Drop weightless blocks, then quotient by the twin partition."""
    return _twin_reduce_with_map(graphon)[0]


def _twin_reduce_with_map(graphon: StepGraphon) -> tuple[StepGraphon, dict[int, int]]:
    """Reduced form plus original positive-weight block -> reduced class."""
    positive, kept = _drop_zero_weight(graphon)
    partition = twin_partition(positive)
    reduced = quotient(positive, partition)
    # every twin class of a zero-free graphon has positive weight, so the
    # quotient drops nothing and class ids survive as block indices
    block_map = {orig: partition.class_of[k] for k, orig in enumerate(kept)}
    return reduced, block_map


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


def _row_profile(graphon: StepGraphon, b: int) -> tuple:
    pairs = sorted(
        (graphon.values[b][j], graphon.weights[j]) for j in range(graphon.block_count)
    )
    return graphon.weights[b], tuple(pairs)


def _find_bijection(r1: StepGraphon, r2: StepGraphon) -> tuple[int, ...] | None:
    """Backtracking over blocks ordered by (weight, row profile)."""
    n = r1.block_count
    order = sorted(range(n), key=lambda b: _row_profile(r1, b))
    profiles2 = [_row_profile(r2, b) for b in range(n)]
    image = [-1] * n
    used = [False] * n

    def rec(d: int) -> bool:
        if d == n:
            return True
        i = order[d]
        want = _row_profile(r1, i)
        for j in range(n):
            if used[j] or profiles2[j] != want:
                continue
            ok = True
            for e in range(d):
                k = order[e]
                if r1.values[i][k] != r2.values[j][image[k]]:
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
    search for a weight- and value-preserving block bijection.
    """
    if r1.block_count != r2.block_count:
        return WeakIsoVerdict(
            False,
            witness=f"reduced block counts differ: {r1.block_count} vs {r2.block_count}",
        )
    w1 = sorted(r1.weights)
    w2 = sorted(r2.weights)
    if w1 != w2:
        return WeakIsoVerdict(
            False,
            witness="weight multisets differ: "
            f"{[format_rational(w) for w in w1]} vs {[format_rational(w) for w in w2]}",
        )
    v1 = sorted(v for row in r1.values for v in row)
    v2 = sorted(v for row in r2.values for v in row)
    if v1 != v2:
        return WeakIsoVerdict(False, witness="value multisets differ")
    bijection = _find_bijection(r1, r2)
    if bijection is None:
        return WeakIsoVerdict(
            False, witness="no weight- and value-preserving block bijection exists"
        )
    for i in range(r1.block_count):
        assert r1.weights[i] == r2.weights[bijection[i]]
        for j in range(r1.block_count):
            assert r1.values[i][j] == r2.values[bijection[i]][bijection[j]]
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
        if density_exact(f, h1).exact != density_exact(f, h2).exact:
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
            for m in row:
                if m < 0:
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
    masses = [
        [Fraction(0)] * h2.block_count for _ in range(h1.block_count)
    ]
    for i, ci in map1.items():
        for j, cj in map2.items():
            if ci == cj:
                masses[i][j] = h1.weights[i] * h2.weights[j] / u.weights[ci]
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
