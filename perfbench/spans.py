"""Span recorder for the traced benchmark run.

Wraps public latcoh functions from outside the package: ``src/`` is not
changed.  Each wrapped call records a span (name, start, end, parent) in
memory; the worker writes them out when its pass ends.  Counts are read
from the objects the wrapped functions return (``CellBank``,
``GradedGF2Complex.bases``, ``SesReport``, ``SuiteResult``).

Functions called hundreds of thousands of times per pass (``cube_weight``,
``_a_targets``, ``c_exponent_closed``, ``Region.contains``) get no span:
their time is self time of the enclosing span, so wrapper cost does not
distort the shares.
"""

import functools
import json
import time

# Per-layer metrics, in the order BENCHMARK.json lists them.  Every ``_s``
# metric is the inclusive time of its span per pass, except
# ``engine.homology_s``, which is self time (its children, delta_matrix
# and kernel, have metrics of their own).  A layer a workload does not
# run reads 0.
TIMED = {
    "exact.sublevel_s": "exact.sublevel",
    "engine.class_cells_s": "engine.class_cells",
    "engine.complex_s": "engine.complex",
    "engine.delta_matrix_s": "engine.delta_matrix",
    "engine.presentation_s": "engine.presentation",
    "gf2.kernel_s": "gf2.kernel",
    "gf2.rank_s": "gf2.rank",
    "engine.les_s": "engine.les",
    "triangle.verify_ses_s": "triangle.verify_ses",
    "lattice.delta_s": "lattice.delta",
    "lattice.monotonicity_s": "lattice.monotonicity",
    "lattice.truncation_region_s": "lattice.truncation_region",
    "suites.delta_squared_s": "suites.delta_squared",
    "suites.chain_maps_s": "suites.chain_maps",
    "suites.c_formula_s": "suites.c_formula",
    "suites.kernel_s": "suites.kernel",
    "graph.parse_s": "graph.parse",
    "graph.spinc_s": "graph.spinc",
}
SELF_TIMED = {"engine.homology_s": "engine.homology"}
COUNTED = ("exact.sublevel_points", "engine.points", "engine.cells",
           "engine.basis_triples", "engine.les_attempts",
           "triangle.ses_blocks", "triangle.ses_columns",
           "triangle.chain_map_samples", "lattice.delta_calls",
           "suites.checked")
RATIOS = ("engine.mask_hit_ratio", "engine.stabilize_rounds",
          "engine.stabilize_useful_ratio", "trace.overhead")


def unit(key) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key in RATIOS else "count"


class Recorder:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []          # [name id, start ns, end ns, parent index]
        self._stack = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.counts.update(masks=0, stabilize_calls=0, presentations=0)

    def open(self, name) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self._stack.remove(idx)

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, keyed as in BENCHMARK.json."""
        inclusive = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, start, end, parent in self.spans:
            dur = end - start
            self_ns[nid] += dur
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= dur
            # Count a span once even if it nests inside a span of its name.
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                inclusive[nid] += dur

        def secs(table, name):
            nid = self._name_ids.get(name)
            return 0.0 if nid is None else table[nid] / 1e9

        out = {key: secs(inclusive, name) for key, name in TIMED.items()}
        out.update({key: secs(self_ns, name)
                    for key, name in SELF_TIMED.items()})
        c = self.counts
        out.update({key: c[key] for key in COUNTED})
        out["engine.mask_hit_ratio"] = (c["engine.cells"] / c["masks"]
                                        if c["masks"] else 0.0)
        calls, pres = c["stabilize_calls"], c["presentations"]
        out["engine.stabilize_rounds"] = pres / calls if calls else 0.0
        out["engine.stabilize_useful_ratio"] = calls / pres if pres else 0.0
        return out

    def dump(self, fh, label):
        """Append this pass's spans to ``fh`` as one JSON line."""
        fh.write(json.dumps({"pass": label, "names": self.names,
                             "fields": ["name", "start_ns", "end_ns", "parent"],
                             "spans": self.spans}, separators=(",", ":")))
        fh.write("\n")


def _traced(rec, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec.counts, args, result)
        return result
    return traced


def _traced_generator(rec, name, fn, counter):
    # The span opens at the first next() and closes when the generator is
    # exhausted or closed, so it covers consumption, not just the call.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            rec.close(idx)
            rec.counts[counter] += n
    return traced


def _bump(key):
    def after(counts, args, result):
        counts[key] += 1
    return after


def _bank_counts(counts, args, bank):
    n_points = len(bank.points)
    counts["engine.points"] += n_points
    counts["engine.cells"] += len(bank.cells)
    counts["masks"] += n_points << bank.graph.n


def _complex_counts(counts, args, result):
    counts["engine.basis_triples"] += sum(len(b) for b in args[0].bases.values())


def _ses_counts(counts, args, report):
    counts["triangle.ses_blocks"] += report.blocks
    counts["triangle.ses_columns"] += report.dim_domain
    counts["triangle.chain_map_samples"] += report.chain_map_samples


def _suite_counts(counts, args, result):
    counts["suites.checked"] += result.checked


def install(latcoh) -> Recorder:
    """Wrap the layer entry points of an imported ``latcoh`` package.

    A name bound by ``from ... import`` in another module is a separate
    binding, so each function is replaced at every module that holds it.
    """
    from latcoh import cli, engine, exact, gf2, graph, lattice, suites, triangle

    rec = Recorder()

    def patch(name, sites, attr, after=None):
        fn = getattr(sites[0], attr)
        wrapped = _traced(rec, name, fn, after)
        for mod in sites + (latcoh,):
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)

    patch("graph.parse", (graph, cli), "parse_graph")
    patch("graph.spinc", (graph, cli, engine, suites), "spinc_representatives")
    exact.enumerate_sublevel = _traced_generator(
        rec, "exact.sublevel", exact.enumerate_sublevel, "exact.sublevel_points")
    patch("engine.class_cells", (engine,), "class_cells", _bank_counts)
    patch("engine.stabilize", (engine,), "stabilize", _bump("stabilize_calls"))
    patch("engine.presentation_data", (engine,), "_presentation_data",
          _bump("presentations"))
    patch("engine.presentation", (engine,), "module_presentation")
    patch("engine.les", (engine,), "les_check")
    patch("engine.les_attempt", (engine,), "_les_attempt",
          _bump("engine.les_attempts"))
    patch("gf2.kernel", (gf2,), "kernel_basis")
    patch("gf2.rank", (gf2,), "rank")
    patch("triangle.verify_ses", (triangle,), "verify_ses", _ses_counts)
    patch("lattice.delta", (lattice, triangle), "delta",
          _bump("lattice.delta_calls"))
    patch("lattice.monotonicity", (lattice,), "weight_monotonicity_check")
    patch("lattice.truncation_region", (lattice, engine), "truncation_region")
    for suite in ("delta_squared", "chain_maps", "c_formula", "kernel"):
        patch("suites." + suite, (suites,), "suite_" + suite, _suite_counts)

    cx = engine.GradedGF2Complex
    cx.__init__ = _traced(rec, "engine.complex", cx.__init__, _complex_counts)
    cx.delta_matrix = _traced(rec, "engine.delta_matrix", cx.delta_matrix)
    hom = engine.ComplexHomology
    hom.__init__ = _traced(rec, "engine.homology", hom.__init__)
    return rec
