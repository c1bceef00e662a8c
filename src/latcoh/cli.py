"""Command-line front end.

Three commands: ``compute`` (lattice cohomology per spin-c class),
``triangle`` (chain-level and homology-level surgery triangle checks), and
``verify`` (seeded randomized property suites).  JSON output is the stable
surface; identical inputs and seeds give byte-identical reports.  Tables
are for humans and may change.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from . import engine, suites, triangle
from .graph import (DegenerateFormError, LatcohError, SpincClass,
                    characteristic_base, graph_hash, parse_graph,
                    spinc_representatives)
from .lattice import (BasisCapError, DescentError, Region,
                      RegionTooSmallError)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABILIZED = 2
EXIT_SUITE_FAILED = 3


@dataclass
class RunConfig:
    command: str
    graph_path: str = None
    vertex: str = None
    max_depth: int = 3
    spinc: str = "all"
    bounds: str = None
    format: str = "json"
    seed: int = 0
    graphs: int = 12


def _emit(payload, fmt, table_fn):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        print(text)
    else:
        table_fn(payload)


def _report_hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load_graph(cfg):
    with open(cfg.graph_path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _bounds_spec(cfg):
    """The --bounds JSON object: integer lists "xmin", "xmax" and optional
    "base", optional integer "mcap"; None when the option is absent."""
    if cfg.bounds is None:
        return None
    spec = json.loads(cfg.bounds)
    if not isinstance(spec, dict) or not {"xmin", "xmax"} <= spec.keys():
        raise LatcohError('--bounds needs a JSON object with "xmin" and "xmax"')
    for key in ("base", "xmin", "xmax"):
        vals = spec.get(key, [])
        if not isinstance(vals, list) or any(type(v) is not int for v in vals):
            raise LatcohError("--bounds %r must be a list of integers" % key)
    if type(spec.get("mcap", 0)) is not int:
        raise LatcohError('--bounds "mcap" must be an integer')
    return spec


def cmd_compute(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    spec = _bounds_spec(cfg)
    bounds = None
    if spec is not None:
        bounds = Region(graph, tuple(spec.get("base", characteristic_base(graph))),
                        tuple(spec["xmin"]), tuple(spec["xmax"]),
                        spec.get("mcap", cfg.max_depth))
    try:
        classes = spinc_representatives(graph)
    except DegenerateFormError:
        if bounds is None:
            raise
        classes = [SpincClass(bounds.base, 0)]
    if cfg.spinc != "all":
        classes = [classes[int(cfg.spinc)]]

    records = []
    all_stable = True
    for cls in classes:
        pres = engine.stabilize(graph, cls, cfg.max_depth, bounds=bounds)
        all_stable = all_stable and pres.stabilized
        records.extend(pres.to_json())
    payload = {"graph_hash": graph_hash(graph), "max_depth": cfg.max_depth,
               "classes": records}
    payload["report_hash"] = _report_hash(payload)

    def table(p):
        print("graph %s  (U cap %d)" % (p["graph_hash"][:12], p["max_depth"]))
        for r in p["classes"]:
            towers = ", ".join(str(t["bottom"]) for t in r["towers"]) or "-"
            tors = ", ".join("%d^%d" % (t["bottom"], t["length"])
                             for t in r["torsions"]) or "-"
            print("  class %-3d degree %d  towers[%s] torsions[%s]%s"
                  % (r["class_index"], r["degree"], towers, tors,
                     "" if r["stabilized"] else "  UNSTABILIZED"))

    _emit(payload, cfg.format, table)
    return EXIT_OK if all_stable else EXIT_UNSTABILIZED


def cmd_triangle(cfg: RunConfig) -> int:
    graph = _load_graph(cfg)
    if cfg.vertex is None:
        print("error: triangle requires --vertex <id>", file=sys.stderr)
        return EXIT_ERROR
    ctx = triangle.triangle_context(graph, cfg.vertex)
    spec = _bounds_spec(cfg)
    if spec is not None:
        region = triangle.TriangleRegion(ctx, tuple(spec["xmin"]),
                                         tuple(spec["xmax"]), cfg.max_depth)
    else:
        region = triangle.default_region(ctx, cfg.max_depth)
    ses = triangle.verify_ses(ctx, region)
    les = engine.les_check(ctx, cfg.max_depth)
    payload = {"ses": ses.to_json(), "les": les.to_json()}
    payload["report_hash"] = _report_hash(payload)

    def table(p):
        s = p["ses"]
        print("short exact sequence at vertex %s:" % cfg.vertex)
        for key in ("a_injective", "b_surjective", "ba_zero",
                    "ker_b_equals_im_a", "ker_b_equals_d", "chain_maps_ok"):
            print("  %-18s %s" % (key, s[key]))
        print("homology triangle exact: %s" % p["les"]["exact"])
        for row in p["les"]["table"]:
            print("  " + " ".join("%s=%s" % kv for kv in sorted(row.items())))

    _emit(payload, cfg.format, table)
    return EXIT_OK if (ses.passed and les.exact) else EXIT_UNSTABILIZED


def cmd_verify(cfg: RunConfig) -> int:
    payload = suites.run_all(cfg.seed, cfg.graphs)
    payload["report_hash"] = _report_hash(payload)

    def table(p):
        for s in p["suites"]:
            print("%-20s graphs=%-3d checked=%-6d %s"
                  % (s["name"], s["graphs"], s["checked"],
                     "ok" if s["passed"] else "FAILED"))
            for f in s["failures"]:
                print("   counterexample: %s" % json.dumps(f, sort_keys=True))
        print("report hash %s" % p["report_hash"])

    _emit(payload, cfg.format, table)
    return EXIT_OK if payload["passed"] else EXIT_SUITE_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcoh",
        description="Lattice cohomology of weighted plumbing graphs over "
                    "GF(2), with surgery-triangle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_graph=True):
        if needs_graph:
            p.add_argument("graph", help="graph file (text or JSON form)")
        p.add_argument("--max-depth", type=int, default=3, metavar="M",
                       help="U-power cap (default 3)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compute", help="lattice cohomology per spin-c class")
    common(p)
    p.add_argument("--class", dest="spinc", default="all", metavar="IDX",
                   help="class index, or 'all'")
    p.add_argument("--bounds", default=None,
                   help='explicit region JSON {"xmin":[..],"xmax":[..]}')

    p = sub.add_parser("triangle", help="verify the surgery exact triangle")
    common(p)
    p.add_argument("--vertex", default=None, help="distinguished vertex id")
    p.add_argument("--bounds", default=None)

    p = sub.add_parser("verify", help="run the randomized property suites")
    common(p, needs_graph=False)
    p.add_argument("--graphs", type=int, default=12,
                   help="corpus size (default 12)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit:
        return EXIT_ERROR
    cfg = RunConfig(command=ns.command,
                    graph_path=getattr(ns, "graph", None),
                    vertex=getattr(ns, "vertex", None),
                    max_depth=getattr(ns, "max_depth", 3),
                    spinc=getattr(ns, "spinc", "all"),
                    bounds=getattr(ns, "bounds", None),
                    format=ns.format if hasattr(ns, "format") else "json",
                    seed=getattr(ns, "seed", 0),
                    graphs=getattr(ns, "graphs", 12))
    handler = {"compute": cmd_compute, "triangle": cmd_triangle,
               "verify": cmd_verify}[cfg.command]
    try:
        return handler(cfg)
    except (RegionTooSmallError, engine.NonStabilizingError) as err:
        print("error: %s" % err, file=sys.stderr)
        print("hint: rerun with a larger --max-depth or wider bounds",
              file=sys.stderr)
        return EXIT_UNSTABILIZED
    except (DescentError, BasisCapError, DegenerateFormError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR
    except (LatcohError, OSError, ValueError, IndexError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
