import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh import (DegenerateFormError, ParseError, UnknownVertexError,
                    bad_vertices, delete_vertex, determinant, graph_hash,
                    increment_weight, intersection_matrix,
                    is_negative_definite, make_graph, parse_graph,
                    spinc_representatives)
from latcoh.exact import solve_fraction
from latcoh.graph import is_tree
from latcoh.suites import random_graph

from conftest import chain, e8, vertex

TEXT = """\
plumbing v1
# a lens space chain
vertex a -2
vertex b -3
edge a b +
"""


def test_parse_text_format():
    g = parse_graph(TEXT)
    assert g.vertices == ("a", "b")
    assert g.weights == (-2, -3)
    assert intersection_matrix(g) == ((-2, 1), (1, -3))


def test_parse_json_format():
    doc = json.dumps({"vertices": [{"id": "a", "weight": -2},
                                   {"id": "b", "weight": -3}],
                      "edges": [{"from": "a", "to": "b", "sign": "+"}]})
    assert parse_graph(doc) == parse_graph(TEXT)


def _json_graph(weight=-2, sign="+", ids=("a", "b"), **top):
    doc = {"vertices": [{"id": ids[0], "weight": weight},
                        {"id": ids[1], "weight": -3}],
           "edges": [{"from": ids[0], "to": ids[1], "sign": sign}]}
    doc.update(top)
    return json.dumps(doc)


# Malformed JSON graphs, each with a word of the ParseError it must raise.
BAD_JSON_GRAPHS = [
    pytest.param(_json_graph(edges=3), "'edges' must be a list", id="edges-3"),
    pytest.param(_json_graph(edges=None), "'edges' must be a list",
                 id="edges-null"),
    pytest.param(_json_graph(vertices={"a": -2}), "'vertices' must be a list",
                 id="vertices-object"),
    pytest.param(_json_graph(weight=-2.7), "integer", id="weight-float"),
    pytest.param(_json_graph(weight=True), "integer", id="weight-true"),
    pytest.param(_json_graph(weight="-2"), "integer", id="weight-string"),
    pytest.param(_json_graph(sign=1.9), "sign", id="sign-float"),
    pytest.param(_json_graph(sign="x"), "sign", id="sign-x"),
    pytest.param(_json_graph(sign=True), "sign", id="sign-true"),
    pytest.param(_json_graph(ids=("a b", "b")), "bad vertex id", id="id-space"),
    pytest.param(_json_graph(ids=(5, "b")), "bad vertex id", id="id-int"),
    pytest.param(_json_graph(edge=[]), 'unknown keys "edge"', id="key-edge"),
    pytest.param(_json_graph().replace('"weight": -3', '"weight": -3, "w": 1'),
                 'unknown keys "w"', id="record-key"),
]


@pytest.mark.parametrize("doc, needle", BAD_JSON_GRAPHS)
def test_parse_json_errors(doc, needle):
    with pytest.raises(ParseError, match=needle):
        parse_graph(doc)


def test_parse_json_integer_signs():
    assert parse_graph(_json_graph(sign=1)) == parse_graph(TEXT)
    assert parse_graph(_json_graph(sign=-1)).edges == ((0, 1, -1),)


def test_parse_single_vertex():
    g = parse_graph("plumbing v1\nvertex a -2\n")
    assert intersection_matrix(g) == ((-2,),)


@pytest.mark.parametrize("text,needle", [
    ("vertex a -2\n", "header"),
    ("plumbing v1\nvertex a -2\nvertex a -3\n", "duplicate"),
    ("plumbing v1\nvertex a -2\nedge a c +\n", "undeclared"),
    ("plumbing v1\nvertex a -2\nedge a a +\n", "self-loop"),
    ("plumbing v1\nvertex a x\n", "malformed weight"),
    ("plumbing v1\nvertex a -2\nvertex b -2\nedge a b *\n", "sign"),
])
def test_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert needle in str(err.value)


def test_intersection_form_examples():
    assert intersection_matrix(vertex(-2)) == ((-2,),)
    g = make_graph(([("a", -2), ("b", -2)], [("a", "b")]))
    assert intersection_matrix(g) == ((-2, 1), (1, -2))
    # Opposite-sign double edge cancels.
    g = make_graph(([("a", 0), ("b", 0)], [("a", "b", 1), ("a", "b", -1)]))
    assert intersection_matrix(g) == ((0, 0), (0, 0))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intersection_form_symmetric(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    g = random_graph(random.Random(seed))
    m = intersection_matrix(g)
    assert all(m[i][j] == m[j][i] for i in range(g.n) for j in range(g.n))


def test_determinant_examples():
    assert determinant(vertex(-2)) == -2
    assert determinant(chain(-2, -2)) == 3  # 2x2 cofactor: 4 - 1
    assert abs(determinant(e8())) == 1


def test_negative_definite():
    assert is_negative_definite(vertex(-2))
    assert not is_negative_definite(vertex(0))
    g = make_graph(([("a", -1), ("b", -1)], [("a", "b")]))
    assert not is_negative_definite(g)  # determinant 0


def test_negative_definite_against_sign_sweep():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, max_vertices=4)
        m = intersection_matrix(g)
        n = g.n
        vals = []
        grid = [()]
        for _ in range(n):
            grid = [x + (t,) for x in grid for t in range(-3, 4)]
        for x in grid:
            if any(x):
                vals.append(sum(x[i] * m[i][j] * x[j]
                                for i in range(n) for j in range(n)))
        form_neg = all(v < 0 for v in vals)
        assert is_negative_definite(g) == form_neg


def test_bad_vertices():
    assert bad_vertices(vertex(-2)) == frozenset()
    g = make_graph(([("a", -1), ("b", -2), ("c", -2)],
                    [("a", "b"), ("a", "c")]))
    assert bad_vertices(g) == {"a"}  # -1 + 2 > 0
    g = make_graph(([("a", -2), ("b", -2), ("c", -2)],
                    [("a", "b"), ("a", "c")]))
    assert bad_vertices(g) == frozenset()  # -2 + 2 = 0 is not bad


def test_is_tree():
    assert is_tree(vertex(-2)) and is_tree(chain(-2, -2, -3)) and is_tree(e8())
    loop = make_graph(([("a", -2), ("b", -2), ("c", -2)],
                       [("a", "b"), ("b", "c"), ("c", "a")]))
    double = make_graph(([("a", -2), ("b", -2)],
                         [("a", "b"), ("a", "b", -1)]))
    # n - 1 edges, but a cycle and an isolated vertex.
    apart = make_graph(([("a", -2), ("b", -2), ("c", -2), ("d", -2)],
                        [("a", "b"), ("b", "c"), ("c", "a")]))
    assert not any(map(is_tree, (loop, double, apart)))


def test_delete_vertex():
    assert delete_vertex(vertex(-2), "a").n == 0
    g = chain(-2, -3, -2)
    mid = delete_vertex(g, "v1")
    assert mid.vertices == ("v0", "v2") and mid.edges == ()
    end = delete_vertex(g, "v2")
    assert end.vertices == ("v0", "v1") and len(end.edges) == 1
    with pytest.raises(UnknownVertexError):
        delete_vertex(g, "zz")


def test_delete_vertex_matches_matrix_minor():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, max_vertices=5)
        if g.n < 2:
            continue
        k = rng.randrange(g.n)
        sub = delete_vertex(g, g.vertices[k])
        m = intersection_matrix(g)
        minor = tuple(tuple(m[i][j] for j in range(g.n) if j != k)
                      for i in range(g.n) if i != k)
        assert intersection_matrix(sub) == minor


def test_increment_weight_and_commutation():
    g = vertex(-2)
    assert increment_weight(g, "a").weights == (-1,)
    assert increment_weight(increment_weight(g, "a"), "a").weights == (0,)
    g = chain(-2, -3, -2)
    a = delete_vertex(increment_weight(g, "v0"), "v2")
    b = increment_weight(delete_vertex(g, "v2"), "v0")
    assert a == b


def test_spinc_representatives_rank_one():
    # Coset oracle: even integers modulo 4.
    brute = sorted({k % 4 for k in range(-20, 20, 2)})
    reps = spinc_representatives(vertex(-2))
    assert [c.base for c in reps] == [(0,), (2,)]
    assert sorted(c.base[0] for c in reps) == brute
    assert len(spinc_representatives(vertex(-1))) == 1
    assert len(spinc_representatives(chain(-2, -2))) == 3


def test_spinc_count_matches_determinant():
    rng = random.Random(11)
    seen = 0
    while seen < 15:
        g = random_graph(rng, max_vertices=4)
        det = determinant(g)
        if det == 0 or abs(det) > 30:
            continue
        seen += 1
        assert len(spinc_representatives(g)) == abs(det)


def test_spinc_representatives_inequivalent():
    rng = random.Random(5)
    seen = 0
    while seen < 10:
        g = random_graph(rng, max_vertices=3)
        det = determinant(g)
        if det == 0 or abs(det) > 12:
            continue
        seen += 1
        m = intersection_matrix(g)
        two_m = [[2 * x for x in row] for row in m]
        reps = spinc_representatives(g)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                diff = [p - q for p, q in zip(a.base, b.base)]
                x = solve_fraction(two_m, diff)
                assert any(f.denominator != 1 for f in x)


def test_spinc_degenerate_raises():
    with pytest.raises(DegenerateFormError):
        spinc_representatives(vertex(0))


def test_characteristic_parity_of_representatives():
    for g in (vertex(-2), chain(-2, -3), e8()):
        for cls in spinc_representatives(g):
            assert all((c - w) % 2 == 0
                       for c, w in zip(cls.base, g.weights))


def test_empty_graph():
    g = delete_vertex(vertex(-2), "a")
    assert determinant(g) == 1
    assert is_negative_definite(g)
    assert [c.base for c in spinc_representatives(g)] == [()]


def test_graph_hash_stable_under_edge_order():
    g1 = make_graph(([("a", -2), ("b", -2), ("c", -2)],
                     [("a", "b"), ("b", "c")]))
    g2 = make_graph(([("a", -2), ("b", -2), ("c", -2)],
                     [("b", "c"), ("a", "b")]))
    assert graph_hash(g1) == graph_hash(g2)
    assert graph_hash(g1) != graph_hash(increment_weight(g1, "a"))
