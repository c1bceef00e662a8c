"""Weighted plumbing graphs and their intersection lattices.

A plumbing graph is a finite graph with an integer weight m(v) at each
vertex and a sign on each edge.  It determines a symmetric bilinear form on
the free module spanned by the vertex classes: the diagonal entry at v is
m(v) and the off-diagonal entry at (v, w) is the signed number of edges
between v and w.  This module handles parsing, the form itself, spin-c
class enumeration, and the two surgery moves on graphs (deleting a vertex,
bumping a weight by one).

All types are immutable values; every function is pure, so everything here
can be shared freely across threads.
"""

import functools
import hashlib
import json
import re
from dataclasses import dataclass

from . import exact


class LatcohError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LatcohError):
    pass


class UnknownVertexError(LatcohError):
    pass


class DegenerateFormError(LatcohError):
    pass


_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class PlumbingGraph:
    """Vertices in declaration order, parallel weights, and signed edges.

    Edges are stored as (i, j, sign) index triples with multiplicity;
    self-loops are rejected on construction.  The vertex order fixes the
    coordinate order of every downstream lattice computation.
    """

    vertices: tuple
    weights: tuple
    edges: tuple

    def __post_init__(self):
        seen = set()
        for vid in self.vertices:
            if vid in seen:
                raise ParseError("duplicate vertex id %r" % vid)
            seen.add(vid)
        n = len(self.vertices)
        for i, j, sign in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError("edge endpoint out of range: (%d, %d)" % (i, j))
            if i == j:
                raise ParseError("self-loop at vertex %r" % self.vertices[i])
            if sign not in (1, -1):
                raise ParseError("edge sign must be +1 or -1, got %r" % (sign,))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vid: str) -> int:
        try:
            return self.vertices.index(vid)
        except ValueError:
            raise UnknownVertexError("unknown vertex %r" % vid) from None

    @functools.cached_property
    def _matrix(self) -> tuple:
        """The intersection matrix, computed once per graph and dropped
        with it; read it through ``intersection_matrix``."""
        n = self.n
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = self.weights[i]
        for i, j, sign in self.edges:
            m[i][j] += sign
            m[j][i] += sign
        return tuple(tuple(row) for row in m)

    @functools.cached_property
    def pair_sums(self) -> tuple:
        """By mask T, the sum of M_ij over i < j in T; kept as M is."""
        sums = [0]
        for j, row in enumerate(self._matrix):
            across = [0]        # by mask T below j: the sum of M_ij, i in T
            for mij in row[:j]:
                across += [a + mij for a in across]
            sums += [s + a for s, a in zip(sums, across)]
        return tuple(sums)

    def degree(self, i: int) -> int:
        return sum(1 for a, b, _ in self.edges for e in (a, b) if e == i)


def make_graph(spec) -> PlumbingGraph:
    """Build a graph from [(id, weight), ...] plus (id, id, sign) edges.

    ``spec`` is a pair (vertices, edges); edge signs default to +1 when a
    2-tuple is given.  Convenience for tests and demos.
    """
    vspec, espec = spec
    vertices = tuple(v for v, _ in vspec)
    weights = tuple(int(w) for _, w in vspec)
    lookup = {v: i for i, v in enumerate(vertices)}
    edges = []
    for e in espec:
        a, b = e[0], e[1]
        sign = e[2] if len(e) > 2 else 1
        if a not in lookup or b not in lookup:
            raise ParseError("edge (%r, %r) references an undeclared vertex" % (a, b))
        edges.append((lookup[a], lookup[b], int(sign)))
    return PlumbingGraph(vertices, weights, tuple(edges))


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the plumbing graph file format (or its JSON equivalent).

    Text format: a ``plumbing v1`` header, then ``vertex <id> <weight>`` and
    ``edge <id> <id> <+|->`` records, ``#`` comments.  JSON form: an object
    with ``vertices`` ([{id, weight}]) and ``edges`` ([{from, to, sign}]).
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    lines = text.splitlines()
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            records.append((lineno, line))
    if not records:
        raise ParseError("empty graph file")
    lineno, header = records[0]
    if header != "plumbing v1":
        raise ParseError("line %d: expected header 'plumbing v1', got %r" % (lineno, header))

    vertices, weights, vindex = [], [], {}
    edge_records = []
    for lineno, line in records[1:]:
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 3:
                raise ParseError("line %d: vertex record needs '<id> <weight>'" % lineno)
            vid, wtok = tokens[1], tokens[2]
            if not _ID_RE.match(vid):
                raise ParseError("line %d: bad vertex id %r" % (lineno, vid))
            if vid in vindex:
                raise ParseError("line %d: duplicate vertex id %r" % (lineno, vid))
            try:
                w = int(wtok)
            except ValueError:
                raise ParseError("line %d: malformed weight %r for vertex %r"
                                 % (lineno, wtok, vid)) from None
            vindex[vid] = len(vertices)
            vertices.append(vid)
            weights.append(w)
        elif kind == "edge":
            edge_records.append((lineno, line, tokens))
        else:
            raise ParseError("line %d: unknown record %r" % (lineno, kind))

    edges = []
    for lineno, line, tokens in edge_records:
        if len(tokens) != 4:
            raise ParseError("line %d: edge record needs '<id> <id> <+|->'" % lineno)
        a, b, stok = tokens[1], tokens[2], tokens[3]
        for vid in (a, b):
            if vid not in vindex:
                raise ParseError("line %d: edge %r references undeclared vertex %r"
                                 % (lineno, line, vid))
        if a == b:
            raise ParseError("line %d: self-loop at vertex %r" % (lineno, a))
        if stok not in ("+", "-"):
            raise ParseError("line %d: edge sign must be '+' or '-', got %r" % (lineno, stok))
        edges.append((vindex[a], vindex[b], 1 if stok == "+" else -1))
    return PlumbingGraph(tuple(vertices), tuple(weights), tuple(edges))


def _json_id(value):
    if not isinstance(value, str) or not _ID_RE.fullmatch(value):
        raise ParseError("bad vertex id %r in JSON graph" % (value,))
    return value


def _parse_json(text: str) -> PlumbingGraph:
    """The JSON form, checked like the text format: ids as there, integer
    weights, signs "+", "-", 1 or -1, and no unknown key (a misspelt
    "edges" would otherwise drop every edge)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError("bad JSON graph: %s" % err) from None
    fields = {"vertices": {"id", "weight"}, "edges": {"from", "to", "sign"}}
    obj.setdefault("edges", [])
    unknown = obj.keys() - fields.keys()
    for key, names in fields.items():
        recs = obj.get(key)
        if not (isinstance(recs, list)
                and all(isinstance(rec, dict) for rec in recs)):
            raise ParseError("JSON graph %r must be a list of objects" % key)
        unknown.update(k for rec in recs for k in rec.keys() - names)
    if unknown:
        raise ParseError("JSON graph has unknown keys %s"
                         % ", ".join(map(json.dumps, sorted(unknown))))
    vspec = []
    for v in obj["vertices"]:
        vid, w = _json_id(v.get("id")), v.get("weight")
        # bool is an int subclass; true is not a weight.
        if type(w) is not int:
            raise ParseError("weight of vertex %r must be an integer, got %r"
                             % (vid, w))
        vspec.append((vid, w))
    edges = []
    for e in obj["edges"]:
        sign = e.get("sign")
        if sign in ("+", "-"):
            sign = 1 if sign == "+" else -1
        if type(sign) is not int or sign not in (1, -1):
            raise ParseError("edge sign must be '+', '-', 1 or -1, got %r"
                             % (sign,))
        edges.append((_json_id(e.get("from")), _json_id(e.get("to")), sign))
    return make_graph((vspec, edges))


def intersection_matrix(graph: PlumbingGraph) -> tuple:
    return graph._matrix


def determinant(graph: PlumbingGraph) -> int:
    """Exact determinant of the intersection form."""
    return exact.det_bareiss(intersection_matrix(graph))


def is_negative_definite(graph: PlumbingGraph) -> bool:
    """Whether the intersection form is negative definite: one Bareiss
    elimination of -M with no row swap and every pivot positive."""
    neg = [[-x for x in row] for row in intersection_matrix(graph)]
    return exact.definite_rows(neg) is not None


def bad_vertices(graph: PlumbingGraph) -> frozenset:
    """Vertices with m(v) + deg(v) > 0, degree counted with multiplicity."""
    return frozenset(
        vid for i, vid in enumerate(graph.vertices)
        if graph.weights[i] + graph.degree(i) > 0
    )


def is_tree(graph: PlumbingGraph) -> bool:
    """Whether the graph is connected and has n - 1 edges, so no cycle and
    no multiple edge."""
    seen, todo = set(), [0]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo += [a + b - i for a, b, _ in graph.edges if i in (a, b)]
    return len(seen) == graph.n and len(graph.edges) == graph.n - 1


def delete_vertex(graph: PlumbingGraph, vid: str) -> PlumbingGraph:
    """The graph with ``vid`` and all incident edges removed; the remaining
    vertex order is preserved."""
    k = graph.index(vid)
    remap = {}
    vertices, weights = [], []
    for i, v in enumerate(graph.vertices):
        if i != k:
            remap[i] = len(vertices)
            vertices.append(v)
            weights.append(graph.weights[i])
    edges = tuple(
        (remap[i], remap[j], s) for i, j, s in graph.edges if i != k and j != k
    )
    return PlumbingGraph(tuple(vertices), tuple(weights), edges)


def increment_weight(graph: PlumbingGraph, vid: str) -> PlumbingGraph:
    """The same graph with m(v) raised by one."""
    k = graph.index(vid)
    weights = tuple(w + 1 if i == k else w for i, w in enumerate(graph.weights))
    return PlumbingGraph(graph.vertices, weights, graph.edges)


def characteristic_base(graph: PlumbingGraph) -> tuple:
    """The diagonal vector, the simplest characteristic vector."""
    return tuple(graph.weights)


@dataclass(frozen=True)
class SpincClass:
    """A spin-c class: a canonical characteristic representative plus its
    ordinal within the enumeration."""

    base: tuple
    index: int


def spinc_representatives(graph: PlumbingGraph) -> list:
    """Canonical representatives of characteristic vectors modulo twice the
    lattice, one per spin-c class.

    Representatives are reduced modulo the Hermite column form of 2M to the
    least nonnegative residue on each pivot, then sorted; there are exactly
    ``abs(determinant(graph))`` of them.  Raises DegenerateFormError when the
    form is singular; callers should then supply an explicit base vector.
    """
    n = graph.n
    m = intersection_matrix(graph)
    det = exact.det_bareiss(m)
    if det == 0:
        raise DegenerateFormError(
            "intersection form is degenerate; supply an explicit base "
            "characteristic vector instead of enumerating spin-c classes")
    if n == 0:
        return [SpincClass((), 0)]
    h = exact.hermite_column_form(m)
    h2 = [[2 * x for x in row] for row in h]
    base = characteristic_base(graph)
    reps = set()
    stack = [()]
    for i in range(n):
        stack = [z + (r,) for z in stack for r in range(h[i][i])]
    for z in stack:
        k = tuple(base[i] + 2 * z[i] for i in range(n))
        reps.add(exact.reduce_mod_columns(k, h2))
    assert len(reps) == abs(det)
    return [SpincClass(k, i) for i, k in enumerate(sorted(reps))]


def graph_hash(graph: PlumbingGraph) -> str:
    """Content hash of a graph; embedded in reports for reproducibility."""
    payload = json.dumps(
        {
            "vertices": [[v, w] for v, w in zip(graph.vertices, graph.weights)],
            "edges": sorted((min(i, j), max(i, j), s) for i, j, s in graph.edges),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
