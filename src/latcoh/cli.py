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

from . import engine, suites, triangle
from .graph import (DegenerateFormError, LatcohError, SpincClass,
                    characteristic_base, graph_hash, is_negative_definite,
                    parse_graph, spinc_representatives)
from .lattice import Region, RegionTooSmallError, check_offset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABILIZED = 2
EXIT_SUITE_FAILED = 3
EXIT_INVARIANT = 4


def _emit(payload, fmt, table_fn):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        print(text)
    else:
        table_fn(payload)


def _report_hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load_graph(args):
    with open(args.graph, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _bounds_spec(args, optional=()):
    """The --bounds JSON object: integer lists "xmin", "xmax" and those of
    the keys named in ``optional`` (integer lists too) the command reads;
    None when the option is absent.  A key the command does not read is an
    error, not silently ignored, and so is an offset beyond the packed
    offset range."""
    if args.bounds is None:
        return None
    spec = json.loads(args.bounds)
    if not isinstance(spec, dict) or not {"xmin", "xmax"} <= spec.keys():
        raise LatcohError('--bounds needs a JSON object with "xmin" and "xmax"')
    unread = sorted(spec.keys() - {"xmin", "xmax", *optional})
    if unread:
        raise LatcohError("%s --bounds does not read %s"
                          % (args.command, ", ".join(map(json.dumps, unread))))
    for key in ("base", "xmin", "xmax"):
        vals = spec.get(key, [])
        if not isinstance(vals, list) or any(type(v) is not int for v in vals):
            raise LatcohError("--bounds %r must be a list of integers" % key)
    for key in ("xmin", "xmax"):
        check_offset(spec[key], "--bounds %s" % json.dumps(key))
    return spec


def cmd_compute(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    spec = _bounds_spec(args, ("base",))
    bounds = None
    if spec is not None:
        bounds = Region(graph, tuple(spec.get("base", characteristic_base(graph))),
                        tuple(spec["xmin"]), tuple(spec["xmax"]), args.max_depth)
    try:
        classes = spinc_representatives(graph)
    except DegenerateFormError:
        if bounds is None:
            raise
        classes = [SpincClass(bounds.base, 0)]
    if args.spinc != "all":
        idx = int(args.spinc) if args.spinc.isdigit() else -1
        if not 0 <= idx < len(classes):
            raise LatcohError("--class must be 'all' or an index in [0, %d)"
                              % len(classes))
        classes = [classes[idx]]

    records = []
    all_stable = True
    for cls in classes:
        pres = engine.stabilize(graph, cls, args.max_depth, bounds=bounds)
        all_stable = all_stable and pres.stabilized
        records.extend(pres.to_json())
    payload = {"graph_hash": graph_hash(graph), "max_depth": args.max_depth,
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

    _emit(payload, args.format, table)
    return EXIT_OK if all_stable else EXIT_UNSTABILIZED


def cmd_triangle(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    ctx = triangle.triangle_context(graph, args.vertex)
    for name, side in (("G", ctx.graph), ("G+", ctx.plus),
                       ("G-%s" % args.vertex, ctx.minus)):
        if not is_negative_definite(side):
            raise LatcohError(
                "triangle needs G, G+ and G-v negative definite; %s (weights "
                "%s) is not" % (name, list(side.weights)))
    spec = _bounds_spec(args)
    if spec is not None:
        region = triangle.TriangleRegion(ctx, tuple(spec["xmin"]),
                                         tuple(spec["xmax"]), args.max_depth)
    else:
        region = triangle.default_region(ctx, args.max_depth)
    ses = triangle.verify_ses(ctx, region)
    les = engine.les_check(ctx, args.max_depth, ses)
    payload = {"ses": ses.to_json(), "les": les.to_json()}
    payload["report_hash"] = _report_hash(payload)

    def table(p):
        s = p["ses"]
        print("short exact sequence at vertex %s:" % args.vertex)
        for key in ("a_injective", "b_surjective", "ba_zero",
                    "ker_b_equals_im_a", "ker_b_equals_d", "chain_maps_ok"):
            print("  %-18s %s" % (key, s[key]))
        print("homology triangle exact: %s" % p["les"]["exact"])
        for row in p["les"]["table"]:
            print("  " + " ".join("%s=%s" % kv for kv in sorted(row.items())))

    _emit(payload, args.format, table)
    return EXIT_OK if (ses.passed and les.exact) else EXIT_SUITE_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    payload = suites.run_all(args.seed, args.graphs)
    payload["report_hash"] = _report_hash(payload)

    def table(p):
        for s in p["suites"]:
            print("%-20s graphs=%-3d checked=%-6d %s"
                  % (s["name"], s["graphs"], s["checked"],
                     "ok" if s["passed"] else "FAILED"))
            for f in s["failures"]:
                print("   counterexample: %s" % json.dumps(f, sort_keys=True))
        print("report hash %s" % p["report_hash"])

    _emit(payload, args.format, table)
    return EXIT_OK if payload["passed"] else EXIT_SUITE_FAILED


def _at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcoh",
        description="Lattice cohomology of weighted plumbing graphs over "
                    "GF(2), with surgery-triangle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_graph=True):
        if needs_graph:
            p.add_argument("graph", help="graph file (text or JSON form)")
            p.add_argument("--max-depth", type=_at_least(0), default=3,
                           metavar="M", help="U-power cap (default 3)")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("compute", help="lattice cohomology per spin-c class")
    common(p)
    p.add_argument("--class", dest="spinc", default="all", metavar="IDX",
                   help="class index, or 'all'")
    p.add_argument("--bounds", default=None,
                   help='explicit region JSON {"xmin":[..],"xmax":[..]}')

    p = sub.add_parser("triangle", help="verify the surgery exact triangle")
    common(p)
    p.add_argument("--vertex", required=True, help="distinguished vertex id")
    p.add_argument("--bounds", default=None,
                   help='explicit offset window JSON {"xmin":[..],"xmax":[..]}')

    p = sub.add_parser("verify", help="run the randomized property suites")
    common(p, needs_graph=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graphs", type=_at_least(1), default=12,
                   help="corpus size (default 12)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_ERROR
    handler = {"compute": cmd_compute, "triangle": cmd_triangle,
               "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except (RegionTooSmallError, engine.NonStabilizingError) as err:
        print("error: %s" % err, file=sys.stderr)
        print("hint: rerun with %s" % err.hint, file=sys.stderr)
        return EXIT_UNSTABILIZED
    except engine.InvariantError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INVARIANT
    except (LatcohError, OSError, ValueError, IndexError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        pass
    # Reported once the handler is left: its traceback held the frames of
    # the computation that ran out of memory.
    depth = getattr(args, "max_depth", None)
    print("error: %s ran out of memory%s" % (
        args.command, "" if depth is None else
        " at --max-depth %d; rerun with a smaller --max-depth" % depth),
        file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
