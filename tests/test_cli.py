import ast
import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from latcoh import faults
from latcoh.cli import main
from test_graph import BAD_JSON_GRAPHS

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


@pytest.mark.parametrize("doc, needle", BAD_JSON_GRAPHS)
def test_malformed_json_graph_is_one_error_line(graph_file, capsys, doc,
                                                needle):
    code, out, err = run(capsys, "compute", graph_file(doc, "g.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and needle in err
    assert err.count("\n") == 1


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


def test_out_of_memory_is_one_error_line(graph_file, capsys, monkeypatch):
    from latcoh import engine

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(engine, "class_cells", exhausted)
    code, out, err = run(capsys, "compute", graph_file(CHAIN22),
                         "--max-depth", "4")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: compute ran out of memory at --max-depth 4; rerun with a "
        "smaller --max-depth"]


def test_triangle_chain22_and_determinism(capsys):
    code, out1, _ = run(capsys, "triangle", "demos/data/chain22.graph",
                        "--vertex", "b", "--max-depth", "3")
    assert code == 0
    code, out2, _ = run(capsys, "triangle", "demos/data/chain22.graph",
                        "--vertex", "b", "--max-depth", "3")
    assert out1 == out2


def test_triangle_samples_the_chain_maps_once(capsys, monkeypatch):
    # verify_ses samples whether A and B commute with the coboundaries, and
    # les_check folds in that verdict instead of sampling again.  Every
    # module binding of the sampler is counted, so a second import of it
    # cannot hide a second call.
    import sys
    from latcoh import triangle
    sample = triangle._chain_map_sample
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.partition(".")[0] == "latcoh"
                and getattr(mod, "_chain_map_sample", None) is sample):
            monkeypatch.setattr(mod, "_chain_map_sample", counted)
    code = main(["triangle", "demos/data/chain22.graph", "--vertex", "b",
                 "--max-depth", "3"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1


def test_verify_exits_three_on_mutation(capsys):
    with faults.injected("b-parity-skip"):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--graphs", "4")
    assert code == 3
    doc = json.loads(out)
    assert not doc["passed"]
    failing = [s for s in doc["suites"] if not s["passed"]]
    assert failing and failing[0]["failures"]


# Report hashes and exit codes of the JSON output, pinned on the demo
# graphs: refactors of the kernel must leave every byte of stdout as it was.
# E8 is the one n = 8 graph and twonode the one with two bad vertices.
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
PINNED = [
    (("compute", "s3.graph"),
     "2796d29e28b11e120494ddae09b33437f8c05586a8de983ab4eb70bec660473d", 0),
    (("compute", "rp3.graph"),
     "faf75bc8dd053c05935fe15d8aa22665ec1b368d7bb336799dcc072fce4cfb96", 0),
    (("compute", "chain22.graph"),
     "ffa4eeb1a426e8b9deda92b3fe500c0c4a054ef97718f441db0f4e700ae5a9eb", 0),
    (("compute", "star232.graph"),
     "b02d1fefa0133f83c8baa459d5c40fc1550b2ec6d294eaca4948425f2e1bf618", 0),
    (("compute", "e8.graph", "--max-depth", "2"),
     "4f5e78a360349d13fff5b04daf13fbcffcee222cb5cf49ed96645ddc4508d007", 0),
    (("compute", "twonode.graph", "--max-depth", "4"),
     "ad4aa139e884af90d86f2c4e55dfebe0dc07d738f30a3495d46f0cb713d07185", 0),
    (("compute", "e8.graph", "--max-depth", "3"),
     "e356d11542618d9acbb87603ff401c4ec3b92c35bbd935e1dc1e9df092d8cd9b", 0),
    # Its reduction reads columns whole on a collision.
    (("compute", "twonode.graph", "--max-depth", "3"),
     "97223371b321638c3118120685076998d4647f6e13012f07bfdd275eee0a1447", 2),
    (("triangle", "chain22.graph", "--vertex", "b"),
     "06e326a165d0efe1aa0bb5ddfcc5e4dc10d67c66f2c20d363b8eb5a0dd41b320", 0),
    (("triangle", "star232.graph", "--vertex", "b"),
     "9c2cb07a0d7690a4658f6ccae1b03f6597e4971e3e668c5d5f0b6b1724d310ae", 0),
    (("verify", "--seed", "42"),
     "fcf92508f70ccd8995864b256fc9bd16196f2f6a4ab2d682d853126537c24689", 0),
]


@pytest.mark.parametrize("name", ["s3.graph", "rp3.graph", "chain22.graph",
                                  "star232.graph", "twonode.graph",
                                  "e8.graph"])
def test_a_reduction_without_the_bottom_tower_exits_four(capsys, name):
    # The shift-sign fault breaks the coboundary so that the lightest point
    # of class 0 is paired: there is no degree-0 tower at bottom 0, which a
    # correct answer always has, so no answer is printed.
    with faults.injected("delta-coface-shift-sign"):
        code, out, err = run(capsys, "compute", str(DATA / name),
                             "--max-depth", "2")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: class 0 (base ")
    assert "degree 0 has tower bottoms [" in err
    assert "no tower at bottom 0" in err


def test_a_summand_where_a_tree_has_none_exits_four(capsys):
    # Under the weight fault chain22 (a tree, no bad vertex) gets degree-1
    # summands; H^q vanishes for q >= 1 there, so no answer is printed
    # instead of a "raise --max-depth" hint.
    with faults.injected("cube-weight-parity-offset"):
        code, out, err = run(capsys, "compute", str(DATA / "chain22.graph"),
                             "--max-depth", "3")
    assert (code, out, err.count("\n")) == (4, "", 1)
    assert err.startswith("error: class ")
    assert ("has summands, but a tree with 0 bad vertices has none in "
            "degree >= 1") in err


@pytest.mark.parametrize("argv, expected, exit_code", PINNED,
                         ids=[" ".join(a) for a, *_ in PINNED])
def test_pinned_report_hashes(capsys, argv, expected, exit_code):
    argv = [str(DATA / a) if a.endswith(".graph") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert json.loads(out)["report_hash"] == expected


# sha256 of stdout and the exit code of the benchmark's verify corpus, with
# no fault and under each seeded fault (seed 42), and of the held-out seed 7:
# hoisting work out of the verification loops must leave every byte of each
# report, and each verdict, as it was.
VERIFY_PINS = [
    ("42", None,
     "ebf7c071576d513cad99e5a0a653a4530fafd977b50f12d09ceb0e0825959f78", 0),
    ("42", "cube-weight-parity-offset",
     "208d66ff79b4494a62fa7bb91f6b9de7e2d7f7acea9afd5f20d6548fec417068", 3),
    ("42", "delta-coface-shift-sign",
     "5500fde951ce25211fd19a91064a5f769778bd90e168b849ff40efeabe89f595", 3),
    ("42", "b-parity-skip",
     "6ed4b0a336fa3fecc385731345f28202a528150c7ab7c1912c248c4eb84d99bd", 3),
    ("42", "c-drop-quadratic",
     "1fa918c4b6c324e24be838c208617fb0f20517e094913c263c26b3cff28dbcbb", 3),
    ("42", "c-always-first-case",
     "0d456524b7814365f386b6b72e2b719a7a611ae3bb81e6c28e021461f5760a14", 3),
    ("7", None,
     "72a7c89699ec80488e322d0d5a69eb7b4a6b12f15271523e9900bccb83cc0a7b", 0),
]


@pytest.mark.parametrize("seed, fault, expected, exit_code", VERIFY_PINS,
                         ids=["seed %s %s" % (seed, fault or "no fault")
                              for seed, fault, *_ in VERIFY_PINS])
def test_verify_corpus_is_pinned_under_each_fault(capsys, seed, fault,
                                                  expected, exit_code):
    argv = ("verify", "--seed", seed, "--graphs", "48")
    if fault is None:
        code, out, _ = run(capsys, *argv)
    else:
        with faults.injected(fault):
            code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# sha256 of stdout, the exit code and the first stderr line of the
# benchmark's triangle runs (cap 3), with no fault and under each fault:
# rebuilding the long-exact-sequence pieces must leave every byte of each
# report, and each failure, as it was.  A lattice fault breaks a law on the
# first class of G+ that each side's certificate checks (exit 4).
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
NO_TREE_SUMMAND = (": degree 2 has summands, but a tree with %d bad vertices "
                   "has none in degree >= 1")
NO_BOTTOM_TOWER = (": degree 0 has tower bottoms %s but no tower at bottom 0, "
                   "which the lightest point always gives")
TRIANGLE_PINS = [
    ("chain22.graph", None,
     "cb5fba1b2c2e06e5371920d6d3463f21b183e4c1e4eeb31897d3685dfe545677", 0, ""),
    ("chain22.graph", "cube-weight-parity-offset", EMPTY, 4,
     "error: G+ class 0 (base [0, 1])" + NO_TREE_SUMMAND % 0),
    ("chain22.graph", "delta-coface-shift-sign", EMPTY, 4,
     "error: G+ class 0 (base [0, 1])" + NO_BOTTOM_TOWER % [6]),
    ("chain22.graph", "b-parity-skip",
     "c63fbaabc3533be3143d126ea82b18e931488c91d8cd7d79cae41129be93006b", 3, ""),
    ("chain22.graph", "c-drop-quadratic",
     "353c970e2b978b6a1528e2dd1a17011b9ae00ea029880ef242b85cdb70651b57", 3, ""),
    ("chain22.graph", "c-always-first-case",
     "a236d8effc5320859c04d477e3fbc536c39ec6e33e9fede0c93c44dd3173aa83", 3, ""),
    ("star232.graph", None,
     "1f36b0d5e71b3d6711ed2c41044ae375772332bf5e07f340b0c3086890128c0f", 0, ""),
    ("star232.graph", "cube-weight-parity-offset", EMPTY, 4,
     "error: G+ class 0 (base [0, 0, 0])" + NO_TREE_SUMMAND % 0),
    ("star232.graph", "delta-coface-shift-sign", EMPTY, 4,
     "error: G+ class 0 (base [0, 0, 0])" + NO_BOTTOM_TOWER % [6, 6]),
    ("star232.graph", "b-parity-skip",
     "6a13846dd1c362665e648dc9e5f60752bf0004e53f54b1a6414c815c3742955d", 3, ""),
    ("star232.graph", "c-drop-quadratic",
     "9ee0f93107d90c56d5a127ce1ea7553e7907f3c0e1076cd68d11465f02445e62", 3, ""),
    ("star232.graph", "c-always-first-case",
     "8b5be590cadfabe0f692c16cc40a5bf01341b40461dbd7e3f8fe0b23e3535e9e", 3, ""),
]


@pytest.mark.parametrize("name, fault, expected, exit_code, first_err",
                         TRIANGLE_PINS,
                         ids=["%s %s" % (name, fault or "no fault")
                              for name, fault, *_ in TRIANGLE_PINS])
def test_triangle_corpus_is_pinned_under_each_fault(capsys, name, fault,
                                                    expected, exit_code,
                                                    first_err):
    argv = ("triangle", str(DATA / name), "--vertex", "b")
    if fault is None:
        code, out, err = run(capsys, *argv)
    else:
        with faults.injected(fault):
            code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    assert err.split("\n")[0] == first_err


@pytest.mark.parametrize("fault", (None,) + tuple(faults.FAULTS))
def test_triangle_at_cap_eight_fails_only_under_a_fault(capsys, fault):
    # At caps of 7 and more the old t-margin failed ker_b_equals_im_a with
    # no fault active; the proven margin passes, and each fault still fails.
    argv = ("triangle", str(DATA / "chain22.graph"), "--vertex", "b",
            "--max-depth", "8")
    with faults.injected(fault) if fault else contextlib.nullcontext():
        code, out, _ = run(capsys, *argv)
    if fault is None:
        assert code == 0 and json.loads(out)["ses"]["passed"] is True
    else:
        assert code != 0


def test_region_too_small_hints_wider_bounds_or_a_smaller_cap(capsys):
    # A larger --max-depth widens the t-margin, so it cannot help here.
    code, out, err = run(capsys, "triangle", str(DATA / "chain22.graph"),
                         "--vertex", "b", "--bounds",
                         '{"xmin":[-1,-1],"xmax":[1,1]}')
    assert (code, out) == (2, "")
    assert err.split("\n") == [
        "error: t-window [-1, 1] cannot fit margin 10; increase the region "
        "or lower the U cap",
        "hint: rerun with wider --bounds or a smaller --max-depth", ""]


def test_bounds_that_miss_the_zero_of_r_are_too_small(capsys):
    # The window fits the t-margin, but the zero s0 of r (t-offset 1 or 2)
    # lies below it, where the lemma of _t_margin no longer holds: with no
    # fault this window used to fail ker_b_equals_im_a (exit 3).
    code, out, err = run(capsys, "triangle", str(DATA / "chain22.graph"),
                         "--vertex", "b", "--max-depth", "1", "--bounds",
                         '{"xmin":[-6,12],"xmax":[6,50]}')
    assert (code, out) == (2, "")
    assert err.split("\n") == [
        "error: t-window [12, 50] needs the zero of r in [17, 47], but it is "
        "at t-offset 2",
        "hint: rerun with wider --bounds or a smaller --max-depth", ""]


def test_bars_in_a_box_too_large_to_read_ask_for_a_larger_cap(capsys,
                                                             graph_file):
    # twonode with v6 set to -3, at v6: G+ class 0 may have bars ending far
    # above cap 1, and the box that holds them is far beyond the basis cap.
    # Only a larger --max-depth can help, so the hint asks for nothing else.
    text = (DATA / "twonode.graph").read_text().replace("vertex v6 -2",
                                                        "vertex v6 -3")
    code, out, err = run(capsys, "triangle", graph_file(text), "--vertex",
                         "v6", "--max-depth", "1", "--bounds",
                         '{"xmin":[-2,-2,-2,-2,-2,-2,-14],'
                         '"xmax":[2,2,2,2,2,2,14]}')
    assert (code, out) == (2, "")
    first, second, rest = err.split("\n")
    assert first.startswith(
        "error: G+ class 0 (base [1, 1, 1, 1, 1, 1, 0]): its bars may end "
        "as high as level 16277, above the U cap 1, and the box ")
    assert first.endswith("that holds them is too large: region volume "
                          "1192373664768 exceeds the basis cap")
    assert (second, rest) == ("hint: rerun with a larger --max-depth", "")


def test_a_chain_level_window_over_the_basis_cap_is_refused(capsys,
                                                            graph_file,
                                                            monkeypatch):
    # The same triple with no --bounds: its default window has 9^6 * 2^7
    # (y, S) blocks, counted before verify_ses builds any.  It used to run
    # for minutes and reach 1.3 GB.
    from latcoh import triangle

    def no_interior(region):
        raise AssertionError("the blocks were built before the size guard")

    monkeypatch.setattr(triangle, "_interior_y", no_interior)
    text = (DATA / "twonode.graph").read_text().replace("vertex v6 -2",
                                                        "vertex v6 -3")
    code, out, err = run(capsys, "triangle", graph_file(text), "--vertex",
                         "v6", "--max-depth", "1")
    assert (code, out) == (1, "")
    assert err.split("\n") == [
        "error: the chain-level window has 68024448 (y, S) blocks, above "
        "the basis cap 5000000; pass a smaller window with --bounds", ""]


# The same for star1337 at vertex a (cap 1), whose homology triangle needs
# a grading window one level above the cap (pad 1): its classes have a
# torsion bar ending at level 1, and no bar ends higher.  Under c-drop-quadratic an image of
# A leaves every piece of G, which makes A's column broken (exit 3).
STAR1337 = "error: G+ class 0 (base [1, 0, 1, 1])"
STAR1337_PINS = [
    (None,
     "a0984eca2484dc7431309b59435647b0b9805b90bbbf68a2b4ec3755f3d2a0f8", 0, ""),
    ("cube-weight-parity-offset", EMPTY, 4, STAR1337 + NO_TREE_SUMMAND % 1),
    ("delta-coface-shift-sign", EMPTY, 4, STAR1337 + NO_BOTTOM_TOWER % [2]),
    ("b-parity-skip",
     "79acde1e10dd3d9de4e451aae80dd8da84e394b54b83830f2ad2ba25ef527001", 3, ""),
    ("c-drop-quadratic",
     "97a8d864203dc79437a41a5168beb3395545dd89764f61527bd4f4f361a7aa09", 3, ""),
    ("c-always-first-case",
     "56fbbafafadf84f1e2eac68a1cc24533174e1ce4024e02da4598f25a7d6401ed", 3, ""),
]


@pytest.mark.parametrize("fault, expected, exit_code, first_err",
                         STAR1337_PINS,
                         ids=[fault or "no fault"
                              for fault, *_ in STAR1337_PINS])
def test_star1337_triangle_is_pinned_under_each_fault(capsys, fault, expected,
                                                      exit_code, first_err):
    argv = ("triangle", str(DATA / "star1337.graph"), "--vertex", "a",
            "--max-depth", "1")
    with faults.injected(fault) if fault else contextlib.nullcontext():
        code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    assert err.split("\n")[0] == first_err
    if fault is None:
        les = json.loads(out)["les"]
        assert (les["grading_pad"], les["exact"]) == (1, True)
        assert les["table"][1]["dim_plus"] == les["table"][1]["dim_g"] == 1


# Which path sees which fault: the exit code of each path under each fault.
# A path that never reads the faulted step exits 0 (compute reads neither A,
# B nor the exponent c); 3 is a failed verification, 4 an answer that
# breaks a law of every correct one (no bottom tower, a summand where a
# tree's cohomology vanishes, on a tree with no bad vertex anything but the
# one tower at 0, or a cell whose face the bank lacks), on the compute
# path or on a side of the triangle.
VISIBILITY_PATHS = {
    "compute rp3": ("compute", "rp3.graph", "--max-depth", "3"),
    "compute chain22": ("compute", "chain22.graph", "--max-depth", "3"),
    "compute e8 cap 1": ("compute", "e8.graph", "--max-depth", "1"),
    "triangle chain22": ("triangle", "chain22.graph", "--vertex", "b",
                         "--max-depth", "1"),
    "verify seed 7": ("verify", "--seed", "7", "--graphs", "4"),
}
VISIBILITY = {
    "compute rp3": [4, 4, 0, 0, 0],
    "compute chain22": [4, 4, 0, 0, 0],
    "compute e8 cap 1": [4, 4, 0, 0, 0],
    "triangle chain22": [4, 4, 3, 3, 3],
    "verify seed 7": [3, 3, 3, 3, 3],
}


def _visibility_cells():
    for path, codes in VISIBILITY.items():
        for fault, code in zip(faults.FAULTS, codes):
            yield pytest.param(path, fault, code, id="%s-%s" % (path, fault))


@pytest.mark.parametrize("path, fault, exit_code", _visibility_cells())
def test_fault_visibility_matrix(capsys, path, fault, exit_code):
    argv = [str(DATA / a) if a.endswith(".graph") else a
            for a in VISIBILITY_PATHS[path]]
    with faults.injected(fault):
        code, _, _ = run(capsys, *argv)
    assert code == exit_code


# The compute-path mutation matrix: compute on every demo graph, at caps 1
# and 2, under either lattice fault is a wrong answer (exit 4), never an
# answer (exit 0) or a window too small (exit 2).
@pytest.mark.parametrize("fault", ["cube-weight-parity-offset",
                                   "delta-coface-shift-sign"])
@pytest.mark.parametrize("cap", ["1", "2"])
@pytest.mark.parametrize("graph", sorted(p.name for p in DATA.glob("*.graph")))
def test_compute_mutation_matrix(capsys, graph, cap, fault):
    with faults.injected(fault):
        code, _, _ = run(capsys, "compute", str(DATA / graph),
                         "--max-depth", cap)
    assert code == 4


def test_each_fault_acts_at_one_fault_site():
    # Each fault's name appears once in the package, as the argument of
    # faults.is_active, and no other code reads the fault state.
    src = Path(__file__).resolve().parent.parent / "src" / "latcoh"
    names, reads = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "faults.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "faults", path.name
                assert all(alias.asname is None for alias in node.names
                           if alias.name == "faults"), path.name
            elif isinstance(node, ast.Constant) and node.value in faults.FAULTS:
                names.append(node.value)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "faults"):
                assert node.attr == "is_active", (path.name, node.attr)
            elif (isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "faults.is_active"):
                (arg,) = node.args
                assert isinstance(arg, ast.Constant), path.name
                reads.append(arg.value)
    assert sorted(names) == sorted(reads) == sorted(faults.FAULTS)


# Top-level names that no code in the package reads, each with its reason.
UNREAD_IN_SRC = {
    "faults.injected": "the one-fault context manager of the tests",
    "lattice.absolute_q": "absolute gradings, which reports do not carry "
                          "yet (ROADMAP item 7); demo 01 prints one",
    "lattice.delta_squared_check": "the one-call delta-squared test of a "
                                   "Region, public API",
    "lattice.split_key": "(x, S) of a cube key, for readers outside the "
                         "kernel; demo 01 prints cofaces with it",
    "lattice.truncation_region": "perfbench/spans.py wraps the name "
                                 "(ROADMAP item 4)",
}


def test_each_top_level_name_is_read_in_src():
    # Every top-level name of a module is read somewhere in the package
    # outside its own definition and __init__.py, or is listed above.
    src = Path(__file__).resolve().parent.parent / "src" / "latcoh"
    defined, reads = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign):
                own = {stmt.target.id}
            else:
                own = set()
            defined += ["%s.%s" % (path.stem, name) for name in own
                        if not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    reads.add(name)
    unread = {name for name in defined if name.split(".")[1] not in reads}
    assert unread == set(UNREAD_IN_SRC)


BAD_BOUNDS = {
    "short vectors": '{"xmin": [-3], "xmax": [3]}',
    "non-characteristic base": '{"base": [1, 1], "xmin": [-3, -3], "xmax": [3, 3]}',
    "missing key": '{"xmin": [-3, -3]}',
    "not an object": "[1, 2]",
    "not integers": '{"xmin": [-3, "a"], "xmax": [3, 3]}',
    "unread key": '{"xmn": [1, 1], "xmin": [-3, -3], "xmax": [3, 3]}',
}


@pytest.mark.parametrize("bounds", list(BAD_BOUNDS.values()), ids=list(BAD_BOUNDS))
def test_compute_rejects_malformed_bounds(graph_file, capsys, bounds):
    code, out, err = run(capsys, "compute", graph_file(CHAIN22),
                         "--bounds", bounds)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", ["short vectors", "missing key",
                                  "not an object", "not integers",
                                  "unread key"])
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


@pytest.mark.parametrize("key", ['"base": [1, 1]', '"mcap": 7'])
def test_triangle_rejects_bounds_keys_it_does_not_read(graph_file, capsys, key):
    bounds = '{%s, "xmin": [-20, -20], "xmax": [20, 20]}' % key
    code, out, err = run(capsys, "triangle", graph_file(CHAIN22), "--vertex",
                         "b", "--max-depth", "1", "--bounds", bounds)
    assert code == 1 and out == ""
    assert err.startswith("error:") and key.split(":")[0] in err


RANGE = "outside the packed offset range [-32766, 32766]"


@pytest.mark.parametrize("text", [S3, "plumbing v1\nvertex a 0\n"],
                         ids=["definite", "degenerate"])
def test_bounds_beyond_the_packed_offset_range_exit_one(graph_file, capsys,
                                                        text):
    # A small box at large coordinates.
    code, out, err = run(capsys, "compute", graph_file(text), "--bounds",
                         '{"xmin": [40000], "xmax": [40002]}')
    assert code == 1 and out == ""
    assert err == 'error: --bounds "xmin" coordinate 0 is 40000, %s\n' % RANGE


def test_triangle_bounds_beyond_the_packed_offset_range_exit_one(graph_file,
                                                                 capsys):
    code, out, err = run(capsys, "triangle", graph_file(CHAIN22), "--vertex",
                         "b", "--bounds",
                         '{"xmin": [-3, -3], "xmax": [3, 32767]}')
    assert code == 1 and out == ""
    assert err == 'error: --bounds "xmax" coordinate 1 is 32767, %s\n' % RANGE


def test_sublevel_set_beyond_the_packed_offset_range_exits_one(capsys):
    # S3's class weighs x(x + 1)/2, so the sublevel set of U cap 6e8 reaches
    # x = -34640, and that of 5.36e8 stays within the range.
    code, out, err = run(capsys, "compute", str(DATA / "s3.graph"),
                         "--max-depth", "600000000")
    assert code == 1 and out == ""
    assert err == "error: offset coordinate 0 is -34640, %s\n" % RANGE
    code, out, _ = run(capsys, "compute", str(DATA / "s3.graph"),
                       "--max-depth", "536000000")
    assert code == 0
    (rec,) = json.loads(out)["classes"]
    assert rec["region"]["xmax"] == [32741]
    assert rec["towers"] == [{"bottom": 0}] and rec["stabilized"]


@pytest.mark.parametrize("spinc", ["-1", "3", "7", "x"])
def test_compute_rejects_class_out_of_range(graph_file, capsys, spinc):
    code, out, err = run(capsys, "compute", graph_file(CHAIN22), "--class", spinc)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "[0, 3)" in err


def test_clipped_window_is_not_stabilized(graph_file, capsys):
    code, out, _ = run(capsys, "compute", graph_file(CHAIN22), "--max-depth",
                       "2", "--class", "2", "--bounds",
                       '{"xmin": [0, 0], "xmax": [0, 0]}')
    assert code == 2
    (rec,) = json.loads(out)["classes"]
    assert rec["region"]["xmin"] == [0, 0] and rec["stabilized"] is False


def test_compute_non_definite_without_bounds_is_usage_error(graph_file, capsys):
    code, out, err = run(capsys, "compute",
                         graph_file("plumbing v1\nvertex a 1\n"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--bounds" in err


def test_compute_rejects_bounds_keys_it_does_not_read(graph_file, capsys):
    code, out, err = run(capsys, "compute", graph_file(CHAIN22), "--max-depth",
                         "1", "--bounds",
                         '{"mcap": 7, "xmin": [-4, -4], "xmax": [4, 4]}')
    assert code == 1 and out == ""
    assert err.startswith("error:") and '"mcap"' in err


@pytest.mark.parametrize("argv", [["compute"], ["triangle", "--vertex", "a"]],
                         ids=["compute", "triangle"])
def test_seed_is_verify_only(graph_file, capsys, argv):
    code, out, err = run(capsys, *argv, graph_file(RP3), "--max-depth", "1",
                         "--seed", "1")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_max_depth_is_not_a_verify_option(capsys):
    code, out, err = run(capsys, "verify", "--max-depth", "3")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --max-depth 3" in err


@pytest.mark.parametrize("argv", [["compute"], ["triangle", "--vertex", "a"]],
                         ids=["compute", "triangle"])
def test_negative_max_depth_is_usage_error(graph_file, capsys, argv):
    code, out, err = run(capsys, *argv, graph_file(CHAIN22), "--max-depth",
                         "-1")
    assert code == 1 and out == ""
    assert "argument --max-depth: must be at least 0, got -1" in err


@pytest.mark.parametrize("graphs", ["0", "-3"])
def test_verify_needs_at_least_one_graph(capsys, graphs):
    code, out, err = run(capsys, "verify", "--graphs", graphs)
    assert code == 1 and out == ""
    assert "argument --graphs: must be at least 1, got %s" % graphs in err


@pytest.mark.parametrize("weight, side", [("1", "G"), ("-1", "G+")])
def test_triangle_non_definite_side_is_usage_error(graph_file, capsys,
                                                   weight, side):
    # vertex a 1 fails on G itself; vertex a -1 raises to weight 0 on G+.
    code, out, err = run(capsys, "triangle",
                         graph_file("plumbing v1\nvertex a %s\n" % weight),
                         "--vertex", "a", "--max-depth", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and " %s (weights" % side in err
    assert "hint" not in err


def _towers(rec):
    return [t["bottom"] for t in rec["towers"]]


def test_twonode_summands_at_the_top_grading_are_not_towers(capsys):
    # Class 0 has three degree-0 summands and one degree-1 summand reaching
    # grading 2 mcap at U cap 1; the structure theorem allows one tower in
    # degree 0 only, so the answer cannot be certified.  Class 1 has just
    # its tower.
    code, out, _ = run(capsys, "compute", str(DATA / "twonode.graph"),
                       "--max-depth", "1")
    assert code == 2
    recs = {(r["class_index"], r["degree"]): r
            for r in json.loads(out)["classes"]}
    assert _towers(recs[(0, 0)]) == [0, 2, 2]
    assert _towers(recs[(0, 1)]) == [2]
    assert not recs[(0, 0)]["stabilized"] and not recs[(0, 1)]["stabilized"]
    assert _towers(recs[(1, 0)]) == [0] and recs[(1, 0)]["stabilized"]


def test_twonode_is_certified_at_u_cap_two(capsys):
    code, out, _ = run(capsys, "compute", str(DATA / "twonode.graph"),
                       "--max-depth", "2")
    assert code == 0
    recs = json.loads(out)["classes"]
    assert all(r["stabilized"] for r in recs)
    assert [_towers(r) for r in recs if r["degree"] == 0] == [[0], [0]]
    assert all(not r["towers"] for r in recs if r["degree"] > 0)
