import json
from fractions import Fraction as F

import pytest

from graphlim import parse_coupling, parse_graph, parse_graphon, serialize_graph
from graphlim.cli import run
from graphlim.corpus import complete_graph

BIPARTITE = """{
  "weights": ["1/2", "1/2"],
  "values": [["0", "1"], ["1", "0"]]
}
"""
HALF = '{"weights": ["1"], "values": [["1/2"]]}\n'
TRIANGLE = "3 3\n0 1\n0 2\n1 2\n"
DOUBLE_EDGE = "2 1\n0 1 2\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("b.json", BIPARTITE),
        ("half.json", HALF),
        ("k3.txt", TRIANGLE),
        ("double.txt", DOUBLE_EDGE),
        ("c4.txt", C4),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_density_goldens(files, capsys):
    assert run(["density", "--graph", files["k3.txt"], "--graphon", files["b.json"]]) == 0
    assert capsys.readouterr().out == "0\n"
    assert run(["density", "--graph", files["c4.txt"], "--graphon", files["b.json"]]) == 0
    assert capsys.readouterr().out == "1/8\n"
    assert run(["density", "--graph", files["double.txt"], "--graphon", files["b.json"]]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_density_mc(files, capsys):
    code = run(
        ["density", "--graph", files["k3.txt"], "--graphon", files["half.json"],
         "--mc", "2000", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "±" in out and out.strip().endswith("(2000)")
    mean = float(out.split("±")[0])
    assert abs(mean - 0.125) < 0.05


def test_anchored_density(files, capsys):
    motif = files["dir"] / "labeled.txt"
    motif.write_text("2 1\n0 1\nlabel 0 1\n")
    code = run(
        ["anchored-density", "--graph", str(motif), "--graphon", files["b.json"],
         "--anchors", "1=0"]
    )
    assert code == 0
    assert capsys.readouterr().out == "1/2\n"
    assert run(
        ["anchored-density", "--graph", str(motif), "--graphon", files["b.json"],
         "--anchors", "1=0,1=1"]
    ) == 1


def test_twin_reduce_roundtrip(files, capsys):
    blown = files["dir"] / "blown.json"
    assert run(["blowup", files["b.json"], "--k", "3", "-o", str(blown)]) == 0
    assert parse_graphon(blown.read_text()).block_count == 6
    assert run(["twin-reduce", str(blown)]) == 0
    reduced = parse_graphon(capsys.readouterr().out)
    assert reduced == parse_graphon(BIPARTITE)


def test_quotient(files, capsys):
    assert run(["quotient", files["b.json"], "--partition", "0,1"]) == 0
    q = parse_graphon(capsys.readouterr().out)
    assert q.block_count == 1 and q.values[0][0] == F(1, 2)
    assert run(["quotient", files["b.json"], "--partition", "0|0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_spectrum_golden(files, capsys):
    assert run(["spectrum", files["b.json"]]) == 0
    assert capsys.readouterr().out == "0.500000000000\n-0.500000000000\n"


# two valid 4-block graphons on which a Jacobi rotation solver failed, with a
# math domain error and with no convergence after 50 sweeps
SPECTRUM_HARD = [
    {
        "weights": ["1/3", "1/3", "2/15", "1/5"],
        "values": [["1", "1/7", "0", "1"], ["1/7", "4/7", "3/7", "3/7"],
                   ["0", "3/7", "1", "1"], ["1", "3/7", "1", "6/7"]],
    },
    {
        "weights": ["1/2", "1/10", "3/10", "1/10"],
        "values": [["1", "1", "1", "6/7"], ["1", "3/7", "1/7", "1"],
                   ["1", "1/7", "0", "6/7"], ["6/7", "1", "6/7", "6/7"]],
    },
]


@pytest.mark.parametrize("graphon", SPECTRUM_HARD)
def test_spectrum_on_hard_graphons(graphon, tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(graphon))
    assert run(["spectrum", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_weak_iso_isomorphic(files, capsys):
    blown = files["dir"] / "blown.json"
    run(["blowup", files["b.json"], "--k", "2", "-o", str(blown)])
    assert run(["weak-iso", files["b.json"], str(blown)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Isomorphic\n")
    assert "reduced block mapping" in out


def test_weak_iso_negative_with_distinguisher(files, capsys):
    code = run(
        ["weak-iso", files["b.json"], files["half.json"],
         "--distinguisher-max-nodes", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("NotIsomorphic\n")
    assert "witness:" in out
    assert "densities 0 vs 1/8" in out
    found = parse_graph(out.split("):\n", 1)[1])
    assert found == complete_graph(3)


def test_weak_iso_distinguisher_inconclusive(files, capsys):
    # same edge density, so nothing on 2 nodes separates them
    code = run(
        ["weak-iso", files["b.json"], files["half.json"],
         "--distinguisher-max-nodes", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("NotIsomorphic\n")
    assert "no distinguishing graph with up to 2 nodes" in out


def test_couple_golden(files, capsys):
    blown = files["dir"] / "blown.json"
    run(["blowup", files["b.json"], "--k", "2", "-o", str(blown)])
    assert run(["couple", files["b.json"], str(blown)]) == 0
    cp = parse_coupling(capsys.readouterr().out)
    assert cp.masses == (
        (F(1, 4), F(0), F(1, 4), F(0)),
        (F(0), F(1, 4), F(0), F(1, 4)),
    )
    data = json.loads(json.dumps({"rows": cp.row_count}))
    assert data["rows"] == 2


def test_couple_failure(files, capsys):
    assert run(["couple", files["b.json"], files["half.json"]]) == 1
    assert "no coupling exists" in capsys.readouterr().err


def test_sample_and_converge(files, capsys):
    out = files["dir"] / "g.txt"
    assert run(["sample", files["b.json"], "--n", "30", "--seed", "4", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.node_count == 30 and g.is_simple
    assert serialize_graph(g) == out.read_text()

    code = run(
        ["converge", files["b.json"], "--graph", files["k3.txt"],
         "--sizes", "10,20", "--reps", "3", "--seed", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "motif,n,rep_count,median_err,max_err"
    assert len(lines) == 3 and lines[1].startswith("K3,10,3,")


def test_exit_codes(files, capsys):
    assert run([]) == 2
    assert run(["density", "--graph", files["k3.txt"]]) == 2
    assert run(["density", "--graph", "/nope.txt", "--graphon", files["b.json"]]) == 1
    capsys.readouterr()
    bad = files["dir"] / "bad.json"
    bad.write_text('{"weights": ["1/2"], "values": [["0", "1"], ["1", "0"]]}')
    assert run(["twin-reduce", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_unwritable_output_is_a_domain_error(files, capsys):
    missing = files["dir"] / "missing" / "out.json"
    for target in (missing, files["dir"]):
        assert run(["twin-reduce", files["b.json"], "-o", str(target)]) == 1
        assert f"error: cannot write {target}:" in capsys.readouterr().err


def test_malformed_graph_reports_reason(files, capsys):
    bad = files["dir"] / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert run(["density", "--graph", str(bad), "--graphon", files["b.json"]]) == 1
    assert "loop" in capsys.readouterr().err
