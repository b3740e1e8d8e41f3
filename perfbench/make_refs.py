"""Regenerate refs/<workload>.json: the reference output of every variant
of every op slot, computed by the program as it is now.

    python3 perfbench/make_refs.py [workload ...]

Run only on a commit whose outputs are known good (the references were
made from the code the benchmark was introduced with). Exact densities on
small inputs are cross-checked against the brute-force oracles in
tests/oracles.py before they are stored.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli  # noqa: E402

ORACLE_MAX_TERMS = 20_000  # brute force sums B^|V(F)| terms


def oracle_check(op) -> str | None:
    from graphlim import parse_graph, parse_graphon
    from graphlim.rational import format_rational
    from oracles import brute_anchored, brute_density_exact

    motif = parse_graph(op.files["f.txt"])
    graphon = parse_graphon(op.files["h.json"])
    free = motif.node_count - len(motif.labels)
    if graphon.block_count ** free > ORACLE_MAX_TERMS:
        return None
    if op.cmd == "density":
        value = brute_density_exact(motif, graphon)
    else:
        spec = op.argv[op.argv.index("--anchors") + 1]
        anchors = dict(tuple(int(x) for x in pin.split("=")) for pin in spec.split(","))
        value = brute_anchored(motif, graphon, anchors)
    return format_rational(value) + "\n"


def dump_refs(workload: str, entries: dict) -> str:
    """JSON with one reference per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries)]
    return (f'{{"workload": {json.dumps(workload)}, "variants": {workloads.VARIANTS}, '
            f'"entries": {{\n' + ",\n".join(lines) + "\n}}\n")


def make(workload: str) -> None:
    from graphlim import cli

    entries, oracle_checked = {}, 0
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".perfbench"))
    try:
        for slot, factory in workloads.slots(workload):
            for v in range(workloads.VARIANTS):
                op = workloads.build_op(workload, slot, factory, v)
                argv = op.materialize(tmp)
                out_path = Path(argv[argv.index("-o") + 1]) if op.out else None
                rc, stdout, stderr, data, _ = call_cli(cli, [op.cmd] + argv, out_path)
                entry = {"inp": op.input_digest(), "rc": rc, "sha": checks.digest(stdout, data)}
                if len(stdout) <= 120:
                    entry["text"] = stdout
                if op.check == "mc":
                    plain = list(argv)
                    i = plain.index("--mc")
                    del plain[i:i + 2]
                    rc2, exact, _, _, _ = call_cli(cli, [op.cmd] + plain, None)
                    assert rc2 == 0, exact
                    entry["exact"] = exact.strip()
                if op.cmd in ("density", "anchored-density") and op.check == "exact" and rc == 0:
                    expect = oracle_check(op)
                    if expect is not None:
                        assert expect == stdout, (op.ref_key, expect, stdout)
                        oracle_checked += 1
                if rc != 0:
                    entry["err"] = stderr.strip().splitlines()[-1]
                    print(f"{workload} {op.ref_key}: exit {rc}: {stderr.strip().splitlines()[-1]}")
                entries[op.ref_key] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "refs").mkdir(exist_ok=True)
    (HERE / "refs" / f"{workload}.json").write_text(dump_refs(workload, entries))
    print(f"{workload}: {len(entries)} references, {oracle_checked} checked by brute force")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        make(name)
