"""graphlim benchmark: three seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-density --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. Workloads: exact-density, structure, sampling (BENCHMARK.json says
why each exists); `--workload all` runs the three one after another. A
workload runs in a child process (worker.py) after eight set-up-only
children, so set-up time is the median of nine fresh set-ups and peak
memory belongs to that workload alone.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones plus
the tracing overhead. Every op's output is checked (worker.judge): `failed`
counts the ops that fail their check, that is an error, a time-out or a
wrong output, except an error the reference run (refs/) gave on the same
input in the same way. ok_ops_frac is the share of ops that gave a correct
result, so the seed's known Jacobi failures on some `structure` spectra
lower it without failing the run. Times are scaled to a
reference machine speed by a probe timed around every op (worker.py),
because the machine's speed can swing by a factor of two; the raw wall
times are in the record. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the record of the run, with
sample counts and versions, is written under .perfbench/records/.

Self-tests: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
RUN_LIMIT_S = 170  # the whole run, set-ups included


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def end_to_end(res: dict) -> tuple[dict, dict]:
    """Metrics of the untraced passes, in reference-speed time (worker.py).

    An op's latency is the median of its repetitions in the run (one per
    pass); percentiles and per-command medians are taken over the distinct
    ops of a pass."""
    plain = res["plain"]
    n = res["ops_per_pass"]
    per_op = [statistics.median(s for _, s, _, _ in plain["lat"][i::n]) * 1000 for i in range(n)]
    cmds = [cmd for cmd, _, _, _ in plain["lat"][:n]]
    p90 = statistics.quantiles(per_op, n=10)[8]
    values = {
        "pass_s": statistics.median(plain["passes"]),
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": p90,
        "ok_ops_frac": 1 - sum(f for _, _, f, _ in plain["lat"]) / len(plain["lat"]),
        "setup_s": res["setup_median_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    counts = {"ops_per_pass": n, "passes": len(plain["passes"]),
              "ops_beyond_p90": sum(x > p90 for x in per_op), "setups": SETUP_REPS}
    for cmd in sorted(set(cmds)):
        xs = [x for x, c in zip(per_op, cmds) if c == cmd]
        values[f"cmd.{cmd}.p50_ms"] = statistics.median(xs)
        counts[f"cmd.{cmd}"] = len(xs)
    return values, counts


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(workload: str, args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(out_dir), "--spawned-ns", str(time.monotonic_ns())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, spec: dict, out_dir: Path) -> dict:
    """One workload end to end: set-ups, measured run, record, report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(workload, args, out_dir, deadline, True) for _ in range(SETUP_REPS - 1)]
    res = spawn(workload, args, out_dir, deadline, False)
    setups.append(res)
    res["setup_median_s"] = statistics.median(s["setup_s"] for s in setups)

    values, counts = end_to_end(res)
    lat = res["plain"]["lat"] + (res["traced"]["lat"] if args.trace else [])
    failures = dict(res["plain"]["failures"], **(res["traced"]["failures"] if args.trace else {}))
    failed = res["plain"]["failed"] + (res["traced"]["failed"] if args.trace else 0)
    if args.trace:
        values.update(res["layer"])
        counts["traced_passes"] = len(res["traced"]["passes"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": stamp,
        "metrics": {name: dict(m, **({"samples": counts[name[:-7]]}
                                      if name.startswith("cmd.") else {}))
                    for name, m in metrics.items()},
        "samples": counts, "probe_ms_quartiles": res["plain"]["probe_ms"],
        "attempted": len(lat), "failed": failed,
        "no_result": sum(f for _, _, f, _ in lat), "failures": failures,
        "setup_s_all": [s["setup_s"] for s in setups],
        "raw_setup_s_all": [s["raw_setup_s"] for s in setups],
        "pass_s_all": res["plain"]["passes"], "raw_pass_s_all": res["plain"]["raw_passes"],
        "git_rev": git_rev(), "src_digest": src_digest(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "spans_file": res.get("spans_file"),
    }
    rec_dir = out_dir / "records"
    rec_dir.mkdir(exist_ok=True)
    rec_path = rec_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"samples: {counts['ops_per_pass']} distinct ops x {counts['passes']} passes, "
          f"{counts['ops_beyond_p90']} ops beyond p90; record {rec_path.relative_to(ROOT)}")
    for key, reason in sorted(failures.items()):
        print(f"no result: {key}: {reason}")
    return {"correct": failed == 0, "attempted": len(lat), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for need in ("src/graphlim/cli.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            return fail(f"{need} not found: run from the root of a graphlim source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args, spec, out_dir)
        except RuntimeError as exc:
            return fail(f"{workload}: {exc}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
