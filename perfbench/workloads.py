"""Seeded inputs and op lists for the three benchmark workloads.

A workload is a fixed template of op slots. Every slot has VARIANTS input
variants, each generated from its own key, so its reference output can be
computed once and stored (`refs/<workload>.json`). A run's seed picks one
variant per slot; the same seed always gives the same inputs. The program
under test sees only the files written here.

This module does not import graphlim: generating inputs must not depend on
the code being measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

VARIANTS = 16
WORKLOADS = ("exact-density", "structure", "sampling")
COMMANDS = (
    "density", "anchored-density", "twin-reduce", "weak-iso", "blowup",
    "quotient", "spectrum", "couple", "sample", "converge",
)


@dataclass
class Op:
    """One graphlim invocation: argv with `@name` placeholders for files."""

    slot: str
    cmd: str
    argv: list[str]
    files: dict[str, str]
    check: str  # "exact", "spectrum" or "mc"
    out: str | None = None  # file name given to -o
    ref_key: str = ""  # "<slot>/<variant>", filled in by build_ops
    oracle: bool = False  # expected value recomputed by tests/oracles.py

    def input_digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.argv).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()[:24]

    def materialize(self, root: Path) -> list[str]:
        """Write the input files under root; return argv with real paths."""
        d = root / self.ref_key.replace("/", "_")
        d.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (d / name).write_text(text)
        return [str(d / a[1:]) if a.startswith("@") else a for a in self.argv]


# -- motifs ------------------------------------------------------------------


def _graph_text(n: int, edges, labels=()) -> str:
    lines = [f"{n} {len(edges)}"]
    for e in edges:
        lines.append(" ".join(str(x) for x in (e if len(e) == 3 and e[2] != 1 else e[:2])))
    lines += [f"label {node} {lab}" for node, lab in labels]
    return "\n".join(lines) + "\n"


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _complete(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


# name -> (node count, edges); edges may carry a multiplicity
MOTIFS: dict[str, tuple[int, list]] = {
    "K2": (2, _complete(2)),
    "P3": (3, _path(3)),
    "K3": (3, _complete(3)),
    "P4": (4, _path(4)),
    "C4": (4, _cycle(4)),
    "S4": (4, [(0, 1), (0, 2), (0, 3)]),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K4": (4, _complete(4)),
    "C5": (5, _cycle(5)),
    "bull": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "house": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "S5": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "K3+K2": (5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    "C6": (6, _cycle(6)),
    "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "P6": (6, _path(6)),
    "P7": (7, _path(7)),
    "C7": (7, _cycle(7)),
    # edge multiplicity 2-3
    "K3m2": (3, [(0, 1, 2), (0, 2, 1), (1, 2, 1)]),
    "P3m23": (3, [(0, 1, 2), (1, 2, 3)]),
    "C4m3": (4, [(0, 1, 3), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
    "K4m2": (4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 2)]),
    "C5m2": (5, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (0, 4, 1)]),
    # disconnected
    "C4+K2": (6, _cycle(4) + [(4, 5)]),
    "2K3": (6, _complete(3) + [(3, 4), (3, 5), (4, 5)]),
    "P3+P3": (6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
}


def motif_text(name: str, labels=()) -> str:
    n, edges = MOTIFS[name]
    return _graph_text(n, [e if len(e) == 3 else (e[0], e[1], 1) for e in edges], labels)


# -- graphons ----------------------------------------------------------------


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _values(rng: random.Random, b: int, style: str) -> list[list[Fraction]]:
    """Symmetric b x b values from a fixed histogram per style, shuffled.

    Fixed histograms keep the work per input similar from seed to seed:
    the zero pruning of the exact engine, the size of the rationals parsed
    and the edge density of W-random samples depend on them."""
    n = b * (b + 1) // 2
    if style == "dense":  # k/7, k = 1..7
        pick = [Fraction(k % 7 + 1, 7) for k in range(n)]
    elif style == "zero":  # 60% zeros, the rest k/7
        zeros = round(0.6 * n)
        pick = [Fraction(0)] * zeros + [Fraction(k % 7 + 1, 7) for k in range(n - zeros)]
    elif style == "01":  # half ones
        pick = [Fraction(k % 2) for k in range(n)]
    elif style == "mixed":  # 30% zeros, 20% ones, the rest k/7
        pick = [Fraction(0)] * round(0.3 * n) + [Fraction(1)] * round(0.2 * n)
        pick += [Fraction(k % 6 + 1, 7) for k in range(n - len(pick))]
    elif style == "sparse":  # k/7 for k in 0, 0, 1, 1, 2, 3: mean 1/6
        pick = [Fraction((0, 0, 1, 1, 2, 3)[k % 6], 7) for k in range(n)]
    else:
        raise ValueError(style)
    rng.shuffle(pick)
    vals = [[Fraction(0)] * b for _ in range(b)]
    cells = ((i, j) for i in range(b) for j in range(i, b))
    for (i, j), x in zip(cells, pick):
        vals[i][j] = vals[j][i] = x
    return vals


@dataclass
class Graphon:
    weights: list[Fraction]
    values: list[list[Fraction]]

    @property
    def blocks(self) -> int:
        return len(self.weights)

    def text(self) -> str:
        return json.dumps({
            "weights": [_frac(w) for w in self.weights],
            "values": [[_frac(x) for x in row] for row in self.values],
        }) + "\n"


def random_graphon(rng: random.Random, b: int, style: str, padding: int = 0,
                   equal_weights: bool = False) -> Graphon:
    """b positive blocks (integer weights 1..5 in a fixed histogram, shuffled
    and normalised, or all equal) plus `padding` zero-weight blocks with
    values of the same style."""
    raw = [1] * b if equal_weights else [k % 5 + 1 for k in range(b)]
    rng.shuffle(raw)
    total = sum(raw)
    weights = [Fraction(x, total) for x in raw] + [Fraction(0)] * padding
    return Graphon(weights, _values(rng, b + padding, style))


def permuted_blowup(rng: random.Random, g: Graphon, k: int) -> tuple[Graphon, list[list[int]]]:
    """k equal copies of every block, shuffled; also the copy classes."""
    b = g.blocks
    perm = list(range(b * k))
    rng.shuffle(perm)  # old index c*b+i -> new index perm[c*b+i]
    weights = [Fraction(0)] * (b * k)
    values = [[Fraction(0)] * (b * k) for _ in range(b * k)]
    for old in range(b * k):
        weights[perm[old]] = g.weights[old % b] / k
        for old2 in range(b * k):
            values[perm[old]][perm[old2]] = g.values[old % b][old2 % b]
    classes = [sorted(perm[c * b + i] for c in range(k)) for i in range(b)]
    return Graphon(weights, values), classes


def perturbed(rng: random.Random, g: Graphon) -> Graphon:
    """Change one symmetric value pair between positive-weight blocks."""
    live = [i for i, w in enumerate(g.weights) if w > 0]
    i, j = rng.choice(live), rng.choice(live)
    values = [row[:] for row in g.values]
    old = values[i][j]
    new = old + Fraction(1, 7) if old <= Fraction(1, 2) else old - Fraction(1, 7)
    values[i][j] = values[j][i] = new
    return Graphon(list(g.weights), values)


def partition_text(classes: list[list[int]]) -> str:
    return "|".join(",".join(str(x) for x in sorted(c)) for c in sorted(classes))


# -- op slots ----------------------------------------------------------------

STYLES = ("dense", "zero", "01")


def _exact_density_slots():
    """(slot id, factory) pairs. Motif size falls as B grows so that one pass
    of the depth-first engine stays a few seconds: B^|V(F)| block maps on a
    dense graphon, fewer where zeros prune."""
    small = ["K3", "P4", "C4", "S4", "paw", "K4", "C5", "bull", "house", "S5", "K3+K2"]
    multi = ["K3m2", "P3m23", "C4m3", "K4m2", "C5m2"]
    plan = {
        (8, "dense"): small + ["C6", "K33", "prism", "P6", "C7"] + multi + ["C4+K2", "2K3"],
        (8, "zero"): small + ["C6", "K33", "prism", "P6", "P7", "C7"] + multi + ["P3+P3"],
        (8, "01"): small + ["C6", "K33", "prism", "P6", "P7", "C7", "C4+K2"],
        (12, "dense"): ["K3", "C4", "K4", "paw", "C5", "house", "K3m2", "C4m3", "K3+K2"],
        (12, "zero"): ["K3", "C4", "C5", "bull", "C6", "K33", "prism", "P6", "C5m2", "2K3"],
        (12, "01"): ["K3", "C4", "C5", "house", "C6", "K33", "prism", "P6", "P3+P3"],
        (16, "dense"): ["K3", "C4", "K4", "S4", "K3m2", "C4m3"],
        (16, "zero"): ["K3", "C4", "C5", "house", "C6", "P6", "K4m2"],
        (16, "01"): ["K3", "C4", "C5", "bull", "C6", "prism", "S5"],
    }
    slots = []
    for (b, style), motifs in plan.items():
        for name in motifs:
            slots.append((f"d-{b}{style}-{name}", _density_op(b, style, name)))
    anchored = [
        (8, "dense", "C5", 1), (8, "dense", "house", 2), (8, "zero", "C6", 1),
        (8, "zero", "P6", 2), (8, "01", "K4", 1), (8, "01", "C6", 2),
        (12, "dense", "C4", 1), (12, "dense", "C5", 2), (12, "zero", "C6", 2),
        (12, "01", "house", 1), (16, "dense", "K3", 1), (16, "dense", "C4", 2),
        (16, "zero", "C5", 1), (16, "zero", "C6", 2), (16, "01", "P6", 2),
        (16, "01", "bull", 1),
    ]
    for b, style, name, pins in anchored:
        slots.append((f"a-{b}{style}-{name}-{pins}", _anchored_op(b, style, name, pins)))
    # tiny inputs whose expected value tests/oracles.py recomputes each run
    for k, name in enumerate(["K3", "C4", "paw", "C5", "bull", "K3m2"]):
        slots.append((f"o-{name}", _oracle_op(STYLES[k % 3], name)))
    return slots


def _density_op(b, style, name):
    def build(rng):
        return Op("", "density", ["--graph", "@f.txt", "--graphon", "@h.json"],
                  {"f.txt": motif_text(name), "h.json": random_graphon(rng, b, style).text()},
                  "exact")
    return build


def _anchored_op(b, style, name, pins):
    def build(rng):
        labels = [(node, lab + 1) for lab, node in enumerate(rng.sample(range(MOTIFS[name][0]), pins))]
        anchors = ",".join(f"{lab}={rng.randrange(b)}" for _, lab in labels)
        return Op("", "anchored-density",
                  ["--graph", "@f.txt", "--graphon", "@h.json", "--anchors", anchors],
                  {"f.txt": motif_text(name, labels), "h.json": random_graphon(rng, b, style).text()},
                  "exact")
    return build


def _oracle_op(style, name):
    def build(rng):
        op = _density_op(4, style, name)(rng)
        op.oracle = True
        return op
    return build


def _structure_slots():
    """Most families sit at one size and style (B = 16, mixed values, 2-fold
    blowups), so that each command's median latency falls among like
    inputs, not between sizes."""
    slots = []
    for r in range(4):
        slots += _structure_family(f"8{STYLES[r % 3]}{r}", 8, 1, STYLES[r % 3], 2 + r % 3, (4, 5)[r % 2])
    for r in range(6):
        slots += _structure_family(f"16mixed{r}", 16, 2, "mixed", 2)
    slots += _structure_family("32dense", 32, 2, "dense", 4)  # 136 blocks after blowup
    for r in range(12):
        slots.append((f"s-16spec{r}", _spectrum_op(16, 2, "mixed")))
    return slots


def _spectrum_op(b, pad, style):
    def build(rng):
        h = random_graphon(rng, b, style, pad)
        return Op("", "spectrum", ["@h.json"], {"h.json": h.text()}, "spectrum")
    return build


def _structure_family(tag, b, pad, style, k, distinguisher=None):
    """Ops on a base graphon H (b blocks plus pad weightless ones) and a
    shuffled k-fold blowup of it."""

    def pair(rng):
        h = random_graphon(rng, b, style, pad)
        g, classes = permuted_blowup(rng, h, k)
        return h, g, classes

    def twin_reduce(rng):
        _, g, _ = pair(rng)
        return Op("", "twin-reduce", ["@g.json"], {"g.json": g.text()}, "exact")

    def blowup(rng):
        h, _, _ = pair(rng)
        return Op("", "blowup", ["@h.json", "--k", str(k), "-o", "@out.json"],
                  {"h.json": h.text()}, "exact", out="out.json")

    def quotient(rng):
        _, g, classes = pair(rng)
        return Op("", "quotient", ["@g.json", "--partition", partition_text(classes), "-o", "@out.json"],
                  {"g.json": g.text()}, "exact", out="out.json")

    def iso(rng):
        h, g, _ = pair(rng)
        return Op("", "weak-iso", ["@h.json", "@g.json"],
                  {"h.json": h.text(), "g.json": g.text()}, "exact")

    def non_iso(rng):
        h, g, _ = pair(rng)
        argv = ["@h.json", "@g.json"]
        if distinguisher is not None:
            argv += ["--distinguisher-max-nodes", str(distinguisher)]
        return Op("", "weak-iso", argv,
                  {"h.json": h.text(), "g.json": perturbed(rng, g).text()}, "exact")

    def couple(rng):
        h, g, _ = pair(rng)
        return Op("", "couple", ["@h.json", "@g.json", "-o", "@out.json"],
                  {"h.json": h.text(), "g.json": g.text()}, "exact", out="out.json")

    return [(f"s-{tag}-{name}", fn) for name, fn in (
        ("twin", twin_reduce), ("blowup", blowup), ("quot", quotient), ("iso", iso),
        ("noniso", non_iso), ("couple", couple), ("spec", _spectrum_op(b, pad, style)))]


def _sampling_slots():
    """Equal block weights: the edge density of a W-random graph, which sets
    the cost of building and counting it, is then the same for every seed.
    Every converge and sample size runs at 8 and at 16 blocks, but each
    converge motif at only one of them, so that a pass is short enough for
    several passes in a run."""
    slots = []
    sizes = ((8, 500), (16, 500), (8, 500), (16, 500), (8, 1000), (16, 1000),
             (8, 500), (16, 500), (8, 500), (16, 500))
    for i, (b, n) in enumerate(sizes):
        slots.append((f"p-{b}-n{n}-{i}", _sample_op(b, n)))
    for b, motif, sizes, reps in ((8, "K2", "50,100,200", 20), (16, "K3", "50,100,200", 20),
                                  (8, "P3", "50,100,200", 20), (16, "C4", "25,50,100", 10)):
        slots.append((f"c-{b}-{motif}", _converge_op(b, motif, sizes, reps)))
    for b, motif, n in ((8, "K3", 200_000), (16, "C5", 200_000), (8, "C5", 200_000),
                        (16, "K3", 200_000), (8, "C5", 1_000_000)):
        slots.append((f"m-{b}-{motif}-{n // 1000}k", _mc_op(b, motif, n)))
    return slots


def _sample_op(b, n):
    def build(rng):
        return Op("", "sample", ["@h.json", "--n", str(n), "--seed", str(rng.randrange(1 << 30)),
                                 "-o", "@out.txt"],
                  {"h.json": random_graphon(rng, b, "sparse", equal_weights=True).text()}, "exact", out="out.txt")
    return build


def _converge_op(b, motif, sizes, reps):
    def build(rng):
        return Op("", "converge", ["@h.json", "--graph", "@f.txt", "--sizes", sizes,
                                   "--reps", str(reps), "--seed", str(rng.randrange(1 << 30))],
                  {"h.json": random_graphon(rng, b, "sparse", equal_weights=True).text(), "f.txt": motif_text(motif)},
                  "exact")
    return build


def _mc_op(b, motif, n):
    def build(rng):
        return Op("", "density", ["--graph", "@f.txt", "--graphon", "@h.json", "--mc", str(n),
                                  "--seed", str(rng.randrange(1 << 30))],
                  {"f.txt": motif_text(motif), "h.json": random_graphon(rng, b, "sparse", equal_weights=True).text()},
                  "mc")
    return build


def _cross_slots(skip: set[str], count: int):
    """A light sample of every command the workload does not centre on, so
    that each per-command latency is measured on every workload. All ops of
    a command have one shape (8 dense blocks, one motif), so that their
    median does not depend on which variants a seed picks; `count` ops per
    command."""
    slots = []
    for r in range(count):
        fam = dict(_structure_family(f"x{r}", 8, 0, "dense", 2))
        wanted = {
            "density": (f"x-density-{r}", _density_op(8, "dense", "C4")),
            "anchored-density": (f"x-anchored-{r}", _anchored_op(8, "dense", "C4", 1)),
            "twin-reduce": (f"x-twin-{r}", fam[f"s-x{r}-twin"]),
            "weak-iso": (f"x-iso-{r}", fam[f"s-x{r}-iso"]),
            "blowup": (f"x-blowup-{r}", fam[f"s-x{r}-blowup"]),
            "quotient": (f"x-quot-{r}", fam[f"s-x{r}-quot"]),
            "spectrum": (f"x-spec-{r}", fam[f"s-x{r}-spec"]),
            "couple": (f"x-couple-{r}", fam[f"s-x{r}-couple"]),
            "sample": (f"x-sample-{r}", _sample_op(8, 200)),
            "converge": (f"x-converge-{r}", _converge_op(8, "K2", "20,40", 5)),
        }
        slots += [v for cmd, v in wanted.items() if cmd not in skip]
    return slots


def slots(workload: str):
    """Op slots of a workload. Sampling takes more light ops so that a pass
    has at least 100 distinct ops, ten of them beyond the 90th percentile.
    The light ops are spread evenly through the pass, so that their times
    sample the whole of it, not one stretch of machine load."""
    if workload == "exact-density":
        own, count = _exact_density_slots(), 9
        skip = {"density", "anchored-density"}
    elif workload == "structure":
        own, count = _structure_slots(), 9
        skip = {"twin-reduce", "weak-iso", "blowup", "quotient", "spectrum", "couple"}
    elif workload == "sampling":
        own, count = _sampling_slots(), 13
        skip = {"sample", "converge", "density"}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cross = _cross_slots(skip, count)
    at = sorted([((i + 1) / (len(own) + 1), 0, i) for i in range(len(own))]
                + [((j + 1) / (len(cross) + 1), 1, j) for j in range(len(cross))])
    return [(own, cross)[kind][k] for _, kind, k in at]


def build_op(workload: str, slot: str, factory, variant: int) -> Op:
    rng = random.Random(f"{workload}|{slot}|{variant}")
    op = factory(rng)
    op.slot = slot
    op.ref_key = f"{slot}/{variant}"
    return op


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass: one seeded variant per slot, template order."""
    pick = random.Random(f"{workload}|seed|{seed}")
    return [build_op(workload, slot, factory, pick.randrange(VARIANTS))
            for slot, factory in slots(workload)]
