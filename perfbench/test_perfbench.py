"""Self-tests of the benchmark harness (not of graphlim)."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tracing
import workloads
from worker import HERE, Runner, load_refs, run_phase


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    a = workloads.build_ops(workload, 11)
    b = workloads.build_ops(workload, 11)
    assert [(o.ref_key, o.argv, o.files) for o in a] == [(o.ref_key, o.argv, o.files) for o in b]
    c = workloads.build_ops(workload, 12)
    assert [o.ref_key for o in a] != [o.ref_key for o in c]


def test_every_input_has_a_current_reference():
    for workload in workloads.WORKLOADS:
        entries = load_refs(workload)["entries"]
        for op in workloads.build_ops(workload, 0):
            assert entries[op.ref_key]["inp"] == op.input_digest()


class PrintingCli:
    """Stands in for graphlim.cli: prints a fixed answer."""

    def __init__(self, answer):
        self.answer = answer

    def run(self, argv):
        print(self.answer, end="")
        return 0


def _one_density_op(tmp_path):
    op = next(o for o in workloads.build_ops("exact-density", 0) if o.cmd == "density")
    ref = load_refs("exact-density")["entries"][op.ref_key]
    return op, ref, op.materialize(tmp_path)


def test_a_wrong_rational_counts_as_failed(tmp_path):
    op, ref, argv = _one_density_op(tmp_path)
    right = ref["text"]
    num, _, den = right.strip().partition("/")
    wrong = f"{int(num) + 1}/{den}\n" if den else f"{int(num) + 1}\n"

    good = run_phase(Runner(PrintingCli(right), [op], [argv], tmp_path, {op.ref_key: ref}, {}), 0)
    assert good["failures"] == {} and good["failed"] == 0

    bad = run_phase(Runner(PrintingCli(wrong), [op], [argv], tmp_path, {op.ref_key: ref}, {}), 0)
    assert list(bad["failures"]) == [op.ref_key]
    assert bad["failed"] == 1
    assert [no_result for _, _, no_result, _ in bad["lat"]] == [True]


class FailingCli:
    """Stands in for graphlim.cli: exits with an error."""

    def __init__(self, rc, message):
        self.rc, self.message = rc, message

    def run(self, argv):
        print(self.message, file=sys.stderr)
        return self.rc


def test_only_the_references_own_error_is_not_a_failed_op(tmp_path):
    entries = load_refs("structure")["entries"]
    op = next(o for seed in range(20) for o in workloads.build_ops("structure", seed)
              if entries[o.ref_key]["rc"] != 0)
    ref = entries[op.ref_key]
    argv = op.materialize(tmp_path)

    def phase(cli):
        return run_phase(Runner(cli, [op], [argv], tmp_path, {op.ref_key: ref}, {}), 0)

    same = phase(FailingCli(ref["rc"], ref["err"]))
    assert same["failed"] == 0 and list(same["failures"]) == [op.ref_key]
    assert [no_result for _, _, no_result, _ in same["lat"]] == [True]
    assert phase(FailingCli(ref["rc"], "error: something else"))["failed"] == 1
    assert phase(FailingCli(2, ref["err"]))["failed"] == 1


def test_self_time_of_nested_calls():
    now = [0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 10

    def outer():
        now[0] += 5
        inner_w()
        now[0] += 3
        inner_w()
        now[0] += 2

    inner_w = tracer.wrap(inner, "density.density_exact")
    outer_w = tracer.wrap(outer, "reduction.weak_iso")
    span = tracer.open("cli.run")
    now[0] += 1
    outer_w()
    now[0] += 4
    tracer.close(span)

    out = tracer.take_pass(0)
    assert out["reduction.weak_iso.ms"] == 30 / 1e6
    assert out["density.density_exact.ms"] == 20 / 1e6
    assert out["reduction.self_ms"] == 10 / 1e6
    assert out["density.self_ms"] == 20 / 1e6
    assert out["cli.self_ms"] == 5 / 1e6
    assert out["density.density_exact.calls"] == 2
    assert out["reduction.weak_iso.calls"] == 1
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]


def test_recursion_is_counted_once_and_overlaps_once():
    spans = [tracing.Span(0, None, "graphons.blowup", 0, 100),
             tracing.Span(1, 0, "graphons.blowup", 10, 60),
             tracing.Span(2, 0, "graphons.validate", 50, 70)]
    out = tracing.summarize(spans)
    assert out["graphons.blowup.ms"] == 100 / 1e6
    # the outer span's children cover [10, 70] once, overlap included
    assert out["graphons.self_ms"] == (40 + 50 + 20) / 1e6
    assert tracing.covered([(10, 60), (50, 70), (90, 120)], 0, 100) == 70


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    import graphlim.cli
    import graphlim.density
    import graphlim.reduction

    (tmp_path / "h.json").write_text('{"weights": ["1"], "values": [["1/2"]]}')
    (tmp_path / "f.txt").write_text(workloads.motif_text("K3"))
    original = graphlim.density.density_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert graphlim.reduction.density_exact is not original
        assert graphlim.cli.density_exact is graphlim.density.density_exact
        with redirect_stdout(io.StringIO()) as out:
            graphlim.cli.run(["density", "--graph", str(tmp_path / "f.txt"),
                              "--graphon", str(tmp_path / "h.json")])
    finally:
        tracer.uninstall()
    assert graphlim.reduction.density_exact is original
    assert out.getvalue() == "1/8\n"
    assert tracer.calls["density.density_exact"] == 1
    assert tracer.calls["graphons.parse_graphon"] == 1
    assert tracer.calls["graphons.validate"] == 1


def test_benchmark_spec_lists_what_the_harness_measures():
    spec = json.loads((Path(HERE).parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.self_ms" for layer in tracing.LAYERS} <= names
    assert {f"cmd.{c}.p50_ms" for c in workloads.COMMANDS} <= {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
