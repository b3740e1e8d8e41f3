"""One workload in one process: set up, then a closed loop of graphlim ops.

Started by run.py. Each op is one `graphlim` subcommand called in-process
through `graphlim.cli.run(argv)`, one at a time; stdout (and the -o file)
is captured and checked. The op list repeats in whole passes until the
time is up. With --trace 1 the first half of the time runs untraced and
the second half traced, so the difference of the two pass times is the
tracing overhead.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OP_LIMIT_S = 30  # an op running longer than this fails
# The machine's speed swings by up to a factor of two from one second to the
# next (other tenants), so every time is also reported scaled to a reference
# speed: multiplied by PROBE_REF_MS over the time probe_ms() takes around it.
# PROBE_REF_MS is the probe's time on an undisturbed core of the 2-vCPU x86-64
# machine the bounds were set on.
PROBE_ITERS = 300
PROBE_REF_MS = 1.6

WARMUP_FILES = {
    "g.json": '{"weights": ["1/2", "1/2"], "values": [["1/2", "1/3"], ["1/3", "1/4"]]}\n',
    "k2.txt": "2 1\n0 1\n",
    "lab.txt": "2 1\n0 1\nlabel 0 1\n",
}
WARMUP_ARGV = [
    ["density", "--graph", "@k2.txt", "--graphon", "@g.json"],
    ["density", "--graph", "@k2.txt", "--graphon", "@g.json", "--mc", "1000"],
    ["anchored-density", "--graph", "@lab.txt", "--graphon", "@g.json", "--anchors", "1=0"],
    ["twin-reduce", "@g.json"],
    ["weak-iso", "@g.json", "@g.json"],
    ["blowup", "@g.json", "--k", "2"],
    ["quotient", "@g.json", "--partition", "0|1"],
    ["spectrum", "@g.json"],
    ["couple", "@g.json", "@g.json"],
    ["sample", "@g.json", "--n", "10", "--seed", "1"],
    ["converge", "@g.json", "--graph", "@k2.txt", "--sizes", "5,10", "--reps", "2", "--seed", "1"],
]


class OpTimeout(BaseException):
    """Raised inside an op that outlives OP_LIMIT_S; cli.run does not catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def call_cli(cli, argv: list[str], out_path: Path | None):
    """Run one op; returns (exit code or None, stdout, stderr, file bytes, seconds)."""
    if out_path is not None and out_path.exists():
        out_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter_ns()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except OpTimeout:
        err.write(f"time limit of {OP_LIMIT_S}s exceeded")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = (time.perf_counter_ns() - t0) / 1e9
    data = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return rc, out.getvalue(), err.getvalue(), data, seconds


def oracle_value(op) -> str:
    """Exact density of a small oracle op by brute-force enumeration."""
    from graphlim import parse_graph, parse_graphon
    from graphlim.rational import format_rational
    from oracles import brute_density_exact

    value = brute_density_exact(parse_graph(op.files["f.txt"]), parse_graphon(op.files["h.json"]))
    return format_rational(value) + "\n"


def load_refs(workload: str) -> dict:
    return json.loads((HERE / "refs" / f"{workload}.json").read_text())


class Runner:
    def __init__(self, cli, ops, argvs, tmp: Path, refs: dict, oracles: dict):
        self.cli, self.ops, self.argvs, self.tmp = cli, ops, argvs, tmp
        self.refs, self.oracles = refs, oracles

    def run_op(self, i: int) -> tuple[float, str | None, bool]:
        """Seconds, then judge()'s reason (None if the result is right) and
        whether the op failed its check."""
        op, argv = self.ops[i], self.argvs[i]
        out_path = Path(argv[argv.index("-o") + 1]) if op.out else None
        rc, stdout, stderr, data, seconds = call_cli(self.cli, [op.cmd] + argv, out_path)
        return (seconds,) + judge(op, self.refs[op.ref_key], self.oracles.get(op.ref_key),
                                  rc, stdout, stderr, data)


def judge(op, ref, oracle, rc, stdout, stderr, data):
    """(reason the op gave no correct result or None, whether it failed its check).

    An op that exits with an error gives no result. It fails its check
    unless the reference run failed on the same input in the same way:
    same exit code, same last stderr line. That is the known failure of
    the seed's Jacobi solver on some `structure` spectra; it lowers
    ok_ops_frac but is not a failed op. Any other error, a time-out or a
    wrong output fails the check."""
    if rc != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        if (rc, last) == (ref["rc"], ref.get("err")):
            return f"exit {rc} as in the reference: {last}", False
        return f"exit {rc}: {last}", True
    if oracle is not None and stdout != oracle:
        return f"brute-force oracle gives {oracle.strip()}, got {stdout.strip()}", True
    wrong = checks.check_output(op, ref, stdout, data)
    return wrong, wrong is not None


def setup(args):
    """Import, input generation, file writing and warm-up. Returns the
    runner and the set-up time since the process was spawned, scaled by
    the probes taken at the start and the end of set-up."""
    p_start = probe_ms()
    sys.path.insert(0, str(args.root / "src"))
    sys.path.insert(0, str(args.root / "tests"))
    from graphlim import cli

    ops = workloads.build_ops(args.workload, args.seed)
    refs = load_refs(args.workload)
    for op in ops:
        entry = refs["entries"].get(op.ref_key)
        if entry is None or entry["inp"] != op.input_digest():
            raise SystemExit(f"reference for {op.ref_key} is missing or stale; "
                             "regenerate with perfbench/make_refs.py")
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    argvs = [op.materialize(tmp) for op in ops]
    oracles = {op.ref_key: oracle_value(op) for op in ops if op.oracle}
    warm = tmp / "warmup"
    warm.mkdir()
    for name, text in WARMUP_FILES.items():
        (warm / name).write_text(text)
    for argv in WARMUP_ARGV:
        call_cli(cli, [str(warm / a[1:]) if a.startswith("@") else a for a in argv], None)
    runner = Runner(cli, ops, argvs, tmp, refs["entries"], oracles)
    raw = (time.monotonic_ns() - args.spawned_ns) / 1e9
    return runner, raw * 2 * PROBE_REF_MS / (p_start + probe_ms()), raw


def probe_ms() -> float:
    """Time of a fixed stretch of pure-Python rational arithmetic,
    independent of graphlim: how fast the machine runs at this moment."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERS):
        acc += Fraction(i % 7 + 1, i % 13 + 2) * Fraction(3, i)
    return (time.perf_counter_ns() - t0) / 1e6


def run_phase(runner: Runner, budget: float, tracer=None) -> dict:
    """Whole passes while the next one is expected to fit in budget seconds.

    Each op's time is also scaled to the reference machine speed by the
    probes taken just before and just after it."""
    start = time.monotonic()
    passes, raw_passes, lat, per_pass, probes = [], [], [], [], []
    failures: dict[str, str] = {}
    failed = 0
    before = probe_ms()
    while True:
        first = len(tracer.spans) if tracer else 0
        total = raw_total = 0.0
        for i, op in enumerate(runner.ops):
            span = tracer.open("cli.run") if tracer else None
            seconds, reason, check_failed = runner.run_op(i)
            if span:
                tracer.close(span)
            after = probe_ms()
            scaled = seconds * 2 * PROBE_REF_MS / (before + after)
            probes.append(after)
            before = after
            total += scaled
            raw_total += seconds
            lat.append((op.cmd, scaled, reason is not None, seconds))
            if reason is not None:
                failures.setdefault(op.ref_key, reason)
                failed += check_failed
        passes.append(total)
        raw_passes.append(raw_total)
        if tracer:
            k = total / raw_total
            per_pass.append({key: v * k if key.endswith("ms") else v
                             for key, v in tracer.take_pass(first).items()})
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > budget:
            break
    return {"passes": passes, "raw_passes": raw_passes, "lat": lat, "failures": failures,
            "failed": failed, "per_pass": per_pass,
            "probe_ms": statistics.quantiles(probes, n=4) if len(probes) > 1 else probes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    runner, setup_s, raw_setup_s = setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        if args.trace:
            plain = run_phase(runner, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(runner, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            spans_file = args.out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            with spans_file.open("w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end]) + "\n")
        else:
            plain, traced, spans_file = run_phase(runner, args.seconds), None, None
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    import numpy

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "plain": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "ops_per_pass": len(runner.ops),
    }
    if traced is not None:
        layer = {k: statistics.median(p[k] for p in traced["per_pass"])
                 for k in traced["per_pass"][0]}
        layer["trace.overhead_s"] = (statistics.median(traced["passes"])
                                     - statistics.median(plain["passes"]))
        result.update(traced=traced, layer=layer, spans_file=str(spans_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
