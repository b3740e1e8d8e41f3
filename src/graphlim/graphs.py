"""Finite multigraphs with optional node labels, and the gluing algebra on them.

Graphs are immutable. Parallel edges are stored as one entry per unordered
pair with an aggregated multiplicity; loops are rejected everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Edge = tuple[int, int, int]  # (u, v, multiplicity) with u < v

MAX_ENUM_NODES = 7


class GraphParseError(ValueError):
    """Graph-file text violating the format; `reason` identifies the rule."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class LabeledMultigraph:
    """Multigraph on nodes 0..node_count-1; labels is a sorted (node, label) tuple."""

    node_count: int
    edges: tuple[Edge, ...] = ()
    labels: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        seen_pairs = set()
        prev = None
        for u, v, m in self.edges:
            if u == v:
                raise ValueError(f"loop edge at node {u}")
            if not (0 <= u < v < self.node_count):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
            if m < 1:
                raise ValueError("multiplicity must be positive")
            if (u, v) in seen_pairs:
                raise ValueError(f"duplicate edge entry for pair ({u},{v})")
            seen_pairs.add((u, v))
            if prev is not None and prev > (u, v):
                raise ValueError("edges must be sorted lexicographically")
            prev = (u, v)
        seen_nodes = set()
        seen_labels = set()
        prev_node = -1
        for node, lab in self.labels:
            if not 0 <= node < self.node_count:
                raise ValueError(f"labeled node {node} out of range")
            if lab < 0:
                raise ValueError("labels must be nonnegative")
            if node in seen_nodes or node <= prev_node:
                raise ValueError(f"node {node} labeled twice or labels unsorted")
            if lab in seen_labels:
                raise ValueError(f"label {lab} used twice")
            seen_nodes.add(node)
            seen_labels.add(lab)
            prev_node = node

    # -- structure helpers -------------------------------------------------

    @property
    def label_map(self) -> dict[int, int]:
        """node -> label"""
        return dict(self.labels)

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(lab for _, lab in self.labels)

    @property
    def is_unlabeled(self) -> bool:
        return not self.labels

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for _, _, m in self.edges)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self.edges)

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        for a, b, m in self.edges:
            if (a, b) == (u, v):
                return m
        return 0

    def adjacency(self) -> list[dict[int, int]]:
        """Per node: neighbor -> multiplicity."""
        adj: list[dict[int, int]] = [dict() for _ in range(self.node_count)]
        for u, v, m in self.edges:
            adj[u][v] = m
            adj[v][u] = m
        return adj


def multigraph(
    node_count: int,
    edges: Iterable[tuple[int, int] | tuple[int, int, int]] = (),
    labels: Mapping[int, int] | Iterable[tuple[int, int]] | None = None,
) -> LabeledMultigraph:
    """Build a graph from loose edge data, put in normal form: u < v, one
    entry per pair, multiplicities summed, pairs sorted."""
    agg: dict[tuple[int, int], int] = {}
    for entry in edges:
        if len(entry) == 2:
            u, v = entry  # type: ignore[misc]
            m = 1
        else:
            u, v, m = entry  # type: ignore[misc]
        if u == v:
            raise ValueError(f"loop edge at node {u}")
        if u > v:
            u, v = v, u
        agg[(u, v)] = agg.get((u, v), 0) + m
    edge_tuple = tuple((u, v, m) for (u, v), m in sorted(agg.items()))
    if labels is None:
        label_tuple: tuple[tuple[int, int], ...] = ()
    else:
        items = labels.items() if isinstance(labels, Mapping) else labels
        label_tuple = tuple(sorted(items))
    return LabeledMultigraph(node_count, edge_tuple, label_tuple)


def unlabel(graph: LabeledMultigraph) -> LabeledMultigraph:
    if graph.is_unlabeled:
        return graph
    return LabeledMultigraph(graph.node_count, graph.edges, ())


# -- file format -----------------------------------------------------------


def parse_graph(text: str) -> LabeledMultigraph:
    """Parse the graph file format.

    Header "n m", then m edge lines "u v [mult]", then optional
    "label <node> <label>" lines. Node ids are 0-based.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise GraphParseError("malformed-line", "empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError("malformed-line", f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError("malformed-line", f"bad header line: {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise GraphParseError("malformed-line", f"bad header counts: {lines[0]!r}")
    if len(lines) < 1 + m:
        raise GraphParseError("malformed-line", f"expected {m} edge lines")
    entries = []
    for idx in range(1, 1 + m):
        parts = lines[idx].split()
        if parts[0] == "label" or len(parts) not in (2, 3):
            raise GraphParseError("malformed-line", f"bad edge line: {lines[idx]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            mult = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise GraphParseError("malformed-line", f"bad edge line: {lines[idx]!r}") from None
        if mult < 1:
            raise GraphParseError("malformed-line", f"bad multiplicity: {lines[idx]!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError("node-range", f"node id out of range: {lines[idx]!r}")
        if u == v:
            raise GraphParseError("loop", f"loop edge: {lines[idx]!r}")
        entries.append((u, v, mult))
    labels: dict[int, int] = {}
    used_labels: set[int] = set()
    for idx in range(1 + m, len(lines)):
        parts = lines[idx].split()
        if len(parts) != 3 or parts[0] != "label":
            raise GraphParseError("malformed-line", f"bad label line: {lines[idx]!r}")
        try:
            node, lab = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphParseError("malformed-line", f"bad label line: {lines[idx]!r}") from None
        if not 0 <= node < n:
            raise GraphParseError("node-range", f"labeled node out of range: {lines[idx]!r}")
        if lab < 0:
            raise GraphParseError("malformed-line", f"negative label: {lines[idx]!r}")
        if node in labels or lab in used_labels:
            raise GraphParseError("duplicate-label", f"duplicate label line: {lines[idx]!r}")
        labels[node] = lab
        used_labels.add(lab)
    return multigraph(n, entries, labels)


def _check_edge_arrays(
    node_count: int, us: np.ndarray, vs: np.ndarray, mults: np.ndarray | None
) -> None:
    """The edge invariants of LabeledMultigraph, checked on whole arrays."""
    if us.ndim != 1 or us.shape != vs.shape or (mults is not None and mults.shape != us.shape):
        raise ValueError("edge arrays must be one-dimensional and of equal length")
    bad = (us < 0) | (us >= vs) | (vs >= node_count)
    if bad.any():
        k = int(np.argmax(bad))
        if us[k] == vs[k]:
            raise ValueError(f"loop edge at node {us[k]}")
        raise ValueError(f"edge ({us[k]},{vs[k]}) out of range or not normalized")
    if mults is not None and (mults < 1).any():
        raise ValueError("multiplicity must be positive")
    du, dv = np.diff(us), np.diff(vs)
    rising = (du > 0) | ((du == 0) & (dv > 0))
    if not rising.all():
        k = int(np.argmin(rising)) + 1
        if du[k - 1] == 0 and dv[k - 1] == 0:
            raise ValueError(f"duplicate edge entry for pair ({us[k]},{vs[k]})")
        raise ValueError("edges must be sorted lexicographically")


def format_edge_list(
    node_count: int,
    us: np.ndarray,
    vs: np.ndarray,
    mults: np.ndarray | None = None,
    labels: Sequence[tuple[int, int]] = (),
) -> str:
    """Graph-file text of the edges (us[k], vs[k], mults[k]); multiplicity 1
    throughout when mults is None.

    The arrays must satisfy what LabeledMultigraph enforces: endpoints in
    range, u < v, pairs strictly increasing, multiplicities at least 1. They
    are checked with numpy before anything is formatted.

    The text is built in numpy as one byte table, with no Python object per
    edge. Each id is formatted once, NUL-padded to the width w of the
    largest, behind a newline for the first endpoint and behind a space for
    the second. The names cover every id below the largest endpoint, or,
    when that is more than twice the edge count, just the endpoints where
    they stand. Edge k's row gathers the names of us[k] and vs[k] and
    " mults[k]" where that is not 1; dropping the NULs leaves the edge lines,
    decoded once. Without multiplicities the peak beyond the inputs is about
    three copies of the 2 (w + 1)-byte rows (the rows, their NUL mask and
    the text), 6 (w + 1) bytes per edge, and never less than the 20 bytes
    per edge of the checks.
    """
    LabeledMultigraph(node_count, (), tuple(labels))  # checks node count and labels
    us, vs = np.asarray(us), np.asarray(vs)
    if mults is not None:
        mults = np.asarray(mults)
    _check_edge_arrays(node_count, us, vs, mults)
    count = len(us)
    top = int(vs.max()) + 1 if count else 1
    if top <= 2 * count:
        ids = np.arange(top)  # object endpoints, from serialize_graph, become indices
        us, vs = us.astype(np.intp, copy=False), vs.astype(np.intp, copy=False)
    else:
        ids, us, vs = np.concatenate((us, vs)), np.arange(count), np.arange(count, 2 * count)
    names = ids.astype(f"S{len(str(top - 1))}")
    firsts, seconds = b"\n" + names, b" " + names
    heavy = np.flatnonzero(mults != 1) if mults is not None else ()
    if len(heavy):
        extra = np.array([f" {m}" for m in mults[heavy].tolist()], dtype=bytes)
        rows = np.zeros((count, 3), dtype=f"S{max(firsts.itemsize, extra.itemsize)}")
        rows[heavy, 2] = extra
    else:
        rows = np.empty((count, 2), dtype=firsts.dtype)
    rows[:, 0], rows[:, 1] = firsts.take(us), seconds.take(vs)
    cells = rows.view(np.uint8)
    body = cells[cells != 0]
    del rows, cells
    labels_text = "".join(f"\nlabel {node} {lab}" for node, lab in labels)
    return "".join((f"{node_count} {count}", str(body, "ascii"), labels_text, "\n"))


def serialize_graph(graph: LabeledMultigraph) -> str:
    """Inverse of parse_graph; edges sorted lexicographically, mult 1 omitted."""
    # numpy would infer float64 for a mix of int64 and uint64-range ints
    try:
        edges = np.array(graph.edges, dtype=np.int64)
    except OverflowError:
        edges = np.array(graph.edges, dtype=object)
    us, vs, mults = edges.reshape(-1, 3).T
    return format_edge_list(graph.node_count, us, vs, mults, graph.labels)


# -- gluing algebra ----------------------------------------------------------


def product(f1: LabeledMultigraph, f2: LabeledMultigraph) -> LabeledMultigraph:
    """Glue along shared labels; parallels created by merging are retained.

    Nodes of f1 keep their ids. A node of f2 whose label also appears in f1
    is identified with the f1 node; the rest are appended in f2 order.
    Unlabeled graphs therefore combine into a disjoint union.
    """
    f1_by_label = {lab: node for node, lab in f1.labels}
    mapping: dict[int, int] = {}
    next_id = f1.node_count
    f2_labels = f2.label_map
    for node in range(f2.node_count):
        lab = f2_labels.get(node)
        if lab in f1_by_label:
            mapping[node] = f1_by_label[lab]
        else:
            mapping[node] = next_id
            next_id += 1
    edges = [*f1.edges, *((mapping[u], mapping[v], m) for u, v, m in f2.edges)]
    labels = {**f1.label_map, **{mapping[node]: lab for node, lab in f2.labels}}
    return multigraph(next_id, edges, labels)


def _without_one_copy(graph: LabeledMultigraph, u: int, v: int) -> list[Edge]:
    """The edges of graph less one parallel copy between u < v."""
    return [(a, b, m - ((a, b) == (u, v))) for a, b, m in graph.edges if (a, b, m) != (u, v, 1)]


def subdivide_edge(
    graph: LabeledMultigraph, pair: tuple[int, int], new_nodes: int
) -> LabeledMultigraph:
    """Replace one parallel copy between `pair` by a path through fresh nodes."""
    u, v = pair
    if u > v:
        u, v = v, u
    if new_nodes < 0:
        raise ValueError("new_nodes must be nonnegative")
    if graph.multiplicity(u, v) < 1:
        raise ValueError(f"pair ({u},{v}) carries no edge")
    if new_nodes == 0:
        return graph
    path = [u, *range(graph.node_count, graph.node_count + new_nodes), v]
    edges = _without_one_copy(graph, u, v) + list(zip(path, path[1:]))
    return multigraph(graph.node_count + new_nodes, edges, graph.labels)


def edge_power(graph: LabeledMultigraph, q: int) -> LabeledMultigraph:
    if q < 1:
        raise ValueError("q must be a positive integer")
    edges = tuple((u, v, m * q) for u, v, m in graph.edges)
    return LabeledMultigraph(graph.node_count, edges, graph.labels)


def star_multigraph(exponents: Sequence[int]) -> LabeledMultigraph:
    """Center node 0; leaf i sits at node i, labeled i, joined by exponents[i-1] parallels.

    Zero-exponent leaves stay present (isolated but labeled).
    """
    if not exponents:
        raise ValueError("need at least one exponent")
    if any(k < 0 for k in exponents):
        raise ValueError("exponents must be nonnegative")
    if all(k == 0 for k in exponents):
        raise ValueError("at least one exponent must be positive")
    m = len(exponents)
    edges = tuple((0, i, k) for i, k in enumerate(exponents, start=1) if k > 0)
    labels = tuple((i, i) for i in range(1, m + 1))
    return LabeledMultigraph(m + 1, edges, labels)


# -- isomorphism and enumeration ---------------------------------------------


def are_isomorphic(f1: LabeledMultigraph, f2: LabeledMultigraph) -> bool:
    """Label-preserving multigraph isomorphism, by backtracking.

    Labeled nodes must map to nodes carrying the same label. Intended for
    the small graphs in this package; no attempt at large-scale performance.
    """
    if f1.node_count != f2.node_count or len(f1.edges) != len(f2.edges):
        return False
    if sorted(m for _, _, m in f1.edges) != sorted(m for _, _, m in f2.edges):
        return False
    if f1.label_set != f2.label_set:
        return False
    adj1, adj2 = f1.adjacency(), f2.adjacency()
    deg1 = [sorted(adj1[x].values()) for x in range(f1.node_count)]
    deg2 = [sorted(adj2[x].values()) for x in range(f2.node_count)]
    if sorted(map(tuple, deg1)) != sorted(map(tuple, deg2)):
        return False
    lab1, lab2 = f1.label_map, f2.label_map
    by_label2 = {lab: node for node, lab in f2.labels}
    n = f1.node_count
    mapping = [-1] * n
    used = [False] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        if x in lab1:
            candidates: Iterable[int] = [by_label2[lab1[x]]]
        else:
            candidates = range(n)
        for y in candidates:
            if used[y] or deg1[x] != deg2[y] or lab2.get(y) != lab1.get(x):
                continue
            ok = True
            for x2, mult in adj1[x].items():
                if mapping[x2] >= 0 and adj2[y].get(mapping[x2]) != mult:
                    ok = False
                    break
            if ok:
                for x2 in range(x):
                    if x2 not in adj1[x] and mapping[x2] in adj2[y]:
                        ok = False
                        break
            if ok:
                mapping[x] = y
                used[y] = True
                if extend(x + 1):
                    return True
                mapping[x] = -1
                used[y] = False
        return False

    return extend(0)


def _canonical_code(n: int, adj: list[int]) -> tuple[int, ...]:
    """Maximal sequence of row prefixes over all node orders.

    Entry d encodes adjacency of the d-th placed node to nodes placed
    before it, as a d-bit integer; maximizing the sequence lexicographically
    gives a canonical form. Among the orders that extend one prefix, only
    those placing a node of the largest next code can reach the maximum, so
    the search branches on those nodes alone. Exponential in the worst case,
    fine below 8 nodes.
    """
    best: list[int] | None = None
    placed: list[int] = []
    prefix: list[int] = []
    in_placed = [False] * n

    def rec() -> None:
        nonlocal best
        d = len(placed)
        if d == n:
            if best is None or prefix > best:
                best = list(prefix)
            return
        codes = {}
        for x in range(n):
            if not in_placed[x]:
                code = 0
                for i, y in enumerate(placed):
                    if adj[x] >> y & 1:
                        code |= 1 << i
                codes[x] = code
        top = max(codes.values())
        # invariant: prefix >= best[:d]; prune only on a tight prefix
        if best is not None and top < best[d] and prefix == best[:d]:
            return
        prefix.append(top)
        for x in [x for x, c in codes.items() if c == top]:
            placed.append(x)
            in_placed[x] = True
            rec()
            in_placed[x] = False
            placed.pop()
        prefix.pop()

    rec()
    assert best is not None
    return tuple(best)


def _graph_from_code(n: int, code: tuple[int, ...]) -> LabeledMultigraph:
    edges = []
    for d in range(n):
        for i in range(d):
            if code[d] >> i & 1:
                edges.append((i, d))
    return multigraph(n, edges)


def enumerate_simple_graphs(max_nodes: int) -> Iterator[LabeledMultigraph]:
    """One representative per isomorphism class of connected simple graphs,
    2..max_nodes nodes, unlabeled, in a fixed deterministic order.

    Grows each (n-1)-node class by one node attached to every nonempty
    neighbor subset, then dedups by canonical code. Every connected graph
    arises this way (remove a spanning-tree leaf).
    """
    if max_nodes < 2:
        raise ValueError("max_nodes must be at least 2")
    if max_nodes > MAX_ENUM_NODES:
        raise ValueError(f"max_nodes {max_nodes} exceeds limit {MAX_ENUM_NODES}")
    prev: list[tuple[int, ...]] = [(0,)]  # the single node, as its code
    for n in range(2, max_nodes + 1):
        seen: dict[tuple[int, ...], None] = {}
        for parent in prev:
            pn = n - 1
            adj = [0] * pn
            for d in range(pn):
                for i in range(d):
                    if parent[d] >> i & 1:
                        adj[i] |= 1 << d
                        adj[d] |= 1 << i
            for subset in range(1, 1 << pn):
                ext = adj + [subset]
                for y in range(pn):
                    if subset >> y & 1:
                        ext[y] = adj[y] | (1 << pn)
                seen.setdefault(_canonical_code(n, ext), None)
        ordered = sorted(seen, key=lambda c: (sum(bin(x).count("1") for x in c), c))
        for code in ordered:
            yield _graph_from_code(n, code)
        prev = ordered
