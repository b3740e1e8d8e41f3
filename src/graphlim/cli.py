"""Command-line front end.

Every subcommand is a thin adapter around one library call: read files,
call, print. Exit codes: 0 success, 1 domain error (bad input data,
infeasible request), 2 usage error, 3 internal error. Diagnostics go to
standard error; results to standard output or -o.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .density import anchored_density, density_exact, density_mc
from .graphons import BlackBoxKernel, StepGraphon, blowup, parse_graphon, serialize_graphon
from .graphs import GraphParseError, LabeledMultigraph, parse_graph, serialize_graph
from .rational import format_float, format_rational
from .reduction import (
    build_coupling,
    find_distinguishing_graph,
    parse_partition,
    quotient,
    render_verdict,
    serialize_coupling,
    twin_reduce,
    weak_iso,
)
from .sampling import convergence_experiment, serialize_sample, to_csv
from .spectral import eigendecompose, kernel_matrix


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> LabeledMultigraph:
    return parse_graph(_read(path))


def _load_graphon(path: str) -> StepGraphon:
    return parse_graphon(_read(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc


def _parse_anchor_spec(spec: str) -> dict[int, int]:
    anchors: dict[int, int] = {}
    if not spec.strip():
        return anchors
    for chunk in spec.split(","):
        if "=" not in chunk:
            raise ValueError(f"anchor '{chunk}' is not label=block")
        label_text, block_text = chunk.split("=", 1)
        label, block = int(label_text), int(block_text)
        if label in anchors:
            raise ValueError(f"label {label} anchored twice")
        anchors[label] = block
    return anchors


def _parse_sizes(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad size list '{spec}'") from exc


def _cmd_density(args: argparse.Namespace) -> int:
    motif = _load_graph(args.graph)
    graphon = _load_graphon(args.graphon)
    if args.mc is not None:
        kernel = BlackBoxKernel.from_step_graphon(graphon)
        print(density_mc(motif, kernel, args.mc, args.seed))
    else:
        print(format_rational(density_exact(motif, graphon)))
    return 0


def _cmd_anchored_density(args: argparse.Namespace) -> int:
    motif = _load_graph(args.graph)
    graphon = _load_graphon(args.graphon)
    anchors = _parse_anchor_spec(args.anchors)
    print(format_rational(anchored_density(motif, graphon, anchors)))
    return 0


def _cmd_twin_reduce(args: argparse.Namespace) -> int:
    _emit(serialize_graphon(twin_reduce(_load_graphon(args.graphon))), args.output)
    return 0


def _cmd_weak_iso(args: argparse.Namespace) -> int:
    h1 = _load_graphon(args.graphon1)
    h2 = _load_graphon(args.graphon2)
    verdict = weak_iso(h1, h2)
    print(render_verdict(verdict))
    if not verdict.isomorphic and args.distinguisher_max_nodes is not None:
        found = find_distinguishing_graph(h1, h2, args.distinguisher_max_nodes)
        if found is None:
            print(f"no distinguishing graph with up to {args.distinguisher_max_nodes} nodes")
        else:
            d1, d2 = (format_rational(density_exact(found, h)) for h in (h1, h2))
            print(f"distinguishing graph (densities {d1} vs {d2}):")
            sys.stdout.write(serialize_graph(found))
    return 0


def _cmd_blowup(args: argparse.Namespace) -> int:
    _emit(serialize_graphon(blowup(_load_graphon(args.graphon), args.k)), args.output)
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    graphon = _load_graphon(args.graphon)
    partition = parse_partition(args.partition, graphon.block_count)
    _emit(serialize_graphon(quotient(graphon, partition)), args.output)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spectrum = eigendecompose(kernel_matrix(_load_graphon(args.graphon)))
    for ev in spectrum.eigenvalues:
        print(format_float(ev))
    return 0


def _cmd_couple(args: argparse.Namespace) -> int:
    coupling = build_coupling(_load_graphon(args.graphon1), _load_graphon(args.graphon2))
    if coupling is None:
        print("not weakly isomorphic: no coupling exists", file=sys.stderr)
        return 1
    _emit(serialize_coupling(coupling), args.output)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _emit(serialize_sample(_load_graphon(args.graphon), args.n, args.seed), args.output)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    report = convergence_experiment(
        _load_graphon(args.graphon),
        _load_graph(args.graph),
        _parse_sizes(args.sizes),
        args.reps,
        args.seed,
    )
    sys.stdout.write(to_csv(report))
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The graphlim parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="graphlim",
        description="Exact homomorphism densities, reductions and sampling "
        "for step graphons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="t(F,H), exact or Monte Carlo")
    p.add_argument("--graph", required=True, help="motif file")
    p.add_argument("--graphon", required=True, help="step graphon file")
    p.add_argument("--mc", type=int, default=None, metavar="N", help="estimate with N samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("anchored-density", help="t(F,H) with labeled nodes pinned")
    p.add_argument("--graph", required=True)
    p.add_argument("--graphon", required=True)
    p.add_argument("--anchors", required=True, help='e.g. "1=0,2=3"; empty pins nothing')
    p.set_defaults(handler=_cmd_anchored_density)

    p = sub.add_parser("twin-reduce", help="canonical twin-free form")
    p.add_argument("graphon")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(handler=_cmd_twin_reduce)

    p = sub.add_parser("weak-iso", help="decide weak isomorphism")
    p.add_argument("graphon1")
    p.add_argument("graphon2")
    p.add_argument("--distinguisher-max-nodes", type=int, default=None, metavar="K")
    p.set_defaults(handler=_cmd_weak_iso)

    p = sub.add_parser("blowup", help="split each block into k equal copies")
    p.add_argument("graphon")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(handler=_cmd_blowup)

    p = sub.add_parser("quotient", help="merge blocks by a partition")
    p.add_argument("graphon")
    p.add_argument("--partition", required=True, help='classes like "0,1|2"')
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("spectrum", help="kernel eigenvalues, one per line")
    p.add_argument("graphon")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("couple", help="coupling matrix of two weakly isomorphic graphons")
    p.add_argument("graphon1")
    p.add_argument("graphon2")
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(handler=_cmd_couple)

    p = sub.add_parser("sample", help="draw a W-random graph")
    p.add_argument("graphon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("converge", help="density convergence experiment as CSV")
    p.add_argument("graphon")
    p.add_argument("--graph", required=True)
    p.add_argument("--sizes", required=True, help='comma list like "50,100,200"')
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_converge)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.handler(args)
    except (ValueError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
