import json
from pathlib import Path

import pytest

from latcoh.cli import main

S3 = "plumbing v1\nvertex a -1\n"
RP3 = "plumbing v1\nvertex a -2\n"
CHAIN22 = "plumbing v1\nvertex a -2\nvertex b -2\nedge a b +\n"
BAD_WEIGHT = "plumbing v1\nvertex a x\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.graph"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_s3(graph_file, capsys):
    code, out, _ = run(capsys, "compute", graph_file(S3), "--max-depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 1
    rec = doc["classes"][0]
    assert rec["towers"] == [{"bottom": 0}] and rec["torsions"] == []
    assert rec["stabilized"] is True


def test_compute_all_classes_and_selector(graph_file, capsys):
    path = graph_file(CHAIN22)
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3
    code, out, _ = run(capsys, "compute", path, "--class", "1")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 1


def test_compute_parse_error_exits_one(graph_file, capsys):
    code, _, err = run(capsys, "compute", graph_file(BAD_WEIGHT))
    assert code == 1
    assert "malformed weight" in err


def test_compute_degenerate_without_bounds(graph_file, capsys):
    code, _, err = run(capsys, "compute", graph_file("plumbing v1\nvertex a 0\n"))
    assert code == 1
    assert "explicit base" in err or "degenerate" in err


def test_compute_degenerate_with_bounds_unstabilized(graph_file, capsys):
    bounds = json.dumps({"xmin": [-3], "xmax": [3]})
    code, out, _ = run(capsys, "compute",
                       graph_file("plumbing v1\nvertex a 0\n"),
                       "--max-depth", "2", "--bounds", bounds)
    assert code == 2
    assert json.loads(out)["classes"][0]["stabilized"] is False


def test_compute_reports_are_reproducible(graph_file, capsys):
    path = graph_file(RP3)
    _, out1, _ = run(capsys, "compute", path, "--max-depth", "3")
    _, out2, _ = run(capsys, "compute", path, "--max-depth", "3")
    assert out1 == out2


def test_triangle_passes(graph_file, capsys):
    code, out, _ = run(capsys, "triangle", graph_file(RP3),
                       "--vertex", "a", "--max-depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ses"]["passed"] is True
    assert doc["les"]["exact"] is True


def test_triangle_missing_vertex_is_usage_error(graph_file, capsys):
    code, _, err = run(capsys, "triangle", graph_file(RP3))
    assert code == 1
    assert "--vertex" in err


def test_triangle_unknown_vertex(graph_file, capsys):
    code, _, err = run(capsys, "triangle", graph_file(RP3), "--vertex", "zz")
    assert code == 1


def test_verify_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--seed", "42", "--graphs", "4")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--seed", "42", "--graphs", "4")
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True and doc["report_hash"]


def test_verify_table_output(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--graphs", "4",
                       "--format", "table")
    assert code == 0
    assert "report hash" in out


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["compute"]) == 1  # missing graph argument


def test_compute_e8_json(capsys):
    code, out, _ = run(capsys, "compute", "demos/data/e8.graph",
                       "--max-depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 1
    rec = doc["classes"][0]
    assert rec["towers"] == [{"bottom": 0}]
    assert rec["torsions"] == [] and rec["stabilized"] is True


def test_triangle_chain22_and_determinism(capsys):
    code, out1, _ = run(capsys, "triangle", "demos/data/chain22.graph",
                        "--vertex", "b", "--max-depth", "3")
    assert code == 0
    code, out2, _ = run(capsys, "triangle", "demos/data/chain22.graph",
                        "--vertex", "b", "--max-depth", "3")
    assert out1 == out2


def test_verify_exits_three_on_mutation(capsys):
    from latcoh import faults
    with faults.injected("b-parity-skip"):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--graphs", "4")
    assert code == 3
    doc = json.loads(out)
    assert not doc["passed"]
    failing = [s for s in doc["suites"] if not s["passed"]]
    assert failing and failing[0]["failures"]


# Report hashes of the JSON output, pinned on the demo graphs: refactors of
# the kernel must leave every byte of stdout as it was.
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
PINNED = [
    (("compute", "s3.graph"),
     "d5ea67dccacbb9b4240fd5dfa815bea3096d670535031fcb37f3024d03a353b3"),
    (("compute", "rp3.graph"),
     "f5b4c20c0180d404fd9fa18132a4578136c2e29699727840bc799c5169bcc7cb"),
    (("compute", "chain22.graph"),
     "539ff0426642f3e3523532446c23b9f8077de381d37272b8085b7d03c92a63cc"),
    (("compute", "star232.graph"),
     "f87cd7ab0062db7600d81d5ab7140515aaa0844a592966c27ee107c8c5268862"),
    (("triangle", "chain22.graph", "--vertex", "b"),
     "a213b82556f8fecfb6b6d69c2b2712cc5f99036f1c45f879f2f2e203aefa2f63"),
    (("verify", "--seed", "42"),
     "fcf92508f70ccd8995864b256fc9bd16196f2f6a4ab2d682d853126537c24689"),
]


@pytest.mark.parametrize("argv, expected", PINNED,
                         ids=[" ".join(a) for a, _ in PINNED])
def test_pinned_report_hashes(capsys, argv, expected):
    argv = [str(DATA / a) if a.endswith(".graph") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report_hash"] == expected


BAD_BOUNDS = {
    "short vectors": '{"xmin": [-3], "xmax": [3]}',
    "non-characteristic base": '{"base": [1, 1], "xmin": [-3, -3], "xmax": [3, 3]}',
    "missing key": '{"xmin": [-3, -3]}',
    "not an object": "[1, 2]",
    "not integers": '{"xmin": [-3, "a"], "xmax": [3, 3]}',
}


@pytest.mark.parametrize("bounds", list(BAD_BOUNDS.values()), ids=list(BAD_BOUNDS))
def test_compute_rejects_malformed_bounds(graph_file, capsys, bounds):
    code, out, err = run(capsys, "compute", graph_file(CHAIN22),
                         "--bounds", bounds)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", ["short vectors", "missing key",
                                  "not an object", "not integers"])
def test_triangle_rejects_malformed_bounds(graph_file, capsys, case):
    code, out, err = run(capsys, "triangle", graph_file(CHAIN22),
                         "--vertex", "b", "--bounds", BAD_BOUNDS[case])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_bounded_class_records_report_their_own_base(graph_file, capsys):
    from latcoh import parse_graph, spinc_representatives
    bases = [list(c.base) for c in spinc_representatives(parse_graph(CHAIN22))]
    code, out, _ = run(capsys, "compute", graph_file(CHAIN22), "--max-depth",
                       "2", "--bounds", '{"xmin": [-4, -4], "xmax": [4, 4]}')
    assert code == 0
    records = json.loads(out)["classes"]
    assert len(bases) == len(records) == 3
    for rec in records:
        assert rec["region"]["base"] == bases[rec["class_index"]]
