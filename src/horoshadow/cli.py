"""Command-line front end: packing generation, solving, verification,
Diophantine scans, and SVG emission.  JSON is the single interchange
format; exit status is 0 exactly when every requested certificate holds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import packings, serialize
from .halfspace import Point
from .heisenberg import complex_hyperbolic_shrink_time
from .numeric import DEFAULT_TOL, Certificate, CertificateError
from .packings import HoroballFamily, validate_disjoint
from .rays import biinfinite_line, ray_from_point, verify_avoidance
from .sharp2d import SHARP_SCALE, Side, dioph_solutions, sharp_shrink_time, solve_2d
from .sharpnd import solve_hnr
from .shadows import CurvatureBand, shadow_of
from .trees import covering_family, random_tree, random_tree_horoballs, three_regular_tree
from .uncover import BallFamily, euclidean_space, safe_scale, uncover, uncover_two
from .render import family_svg


def _read_text(path) -> str:
    """The contents of the file at path, or of stdin for None or "-"."""
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_family(path, exact: bool) -> HoroballFamily:
    return serialize.document_to_family(json.loads(_read_text(path)), exact)


def _read_geodesic(text: str):
    """A geodesic given inline as JSON, or as @path to a JSON file."""
    if text.startswith("@"):
        text = _read_text(text[1:])
    return serialize.json_to_geodesic(json.loads(text))


def _emit(doc, out):
    text = serialize.dumps(doc) if isinstance(doc, dict) else str(doc)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _parse_range(text: str) -> tuple:
    lo, _, hi = text.partition("..")
    return (Fraction(lo), Fraction(hi))


def _parse_xi(text: str) -> float:
    named = {"golden": (1 + math.sqrt(5)) / 2, "sqrt2": math.sqrt(2),
             "e": math.e, "pi": math.pi}
    if text in named:
        return named[text]
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _parse_point(text: str) -> Point:
    base, _, height = text.partition(";")
    coords = tuple(float(Fraction(c)) for c in base.split(","))
    return Point(coords, float(Fraction(height)))


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}")
    return tol


def _shrink_factor(args):
    if args.shrink_s is not None:
        if args.exact:
            s = Fraction(args.shrink_s)  # stays exact through the solver
        elif "/" in str(args.shrink_s):
            s = float(Fraction(args.shrink_s))
        else:
            s = float(args.shrink_s)
    else:
        if args.exact:
            raise SystemExit("e^-t is not rational; pass --shrink-s under --exact")
        s = math.exp(-float(args.shrink_t))
    if not 0 < s < 1:
        raise SystemExit("shrink factor must lie in (0, 1)")
    return s


# ---------------------------------------------------------------------------
# subcommands


def cmd_pack(args) -> int:
    kind = args.kind
    if kind == "farey":
        fam = packings.farey(args.qmax, _parse_range(args.range), args.infinity)
        meta = {"generator": "farey", "qmax": args.qmax, "range": args.range}
    elif kind == "geometric":
        fam = packings.geometric(args.nmin, args.nmax)
        meta = {"generator": "geometric", "nmin": args.nmin, "nmax": args.nmax}
    elif kind == "extremal":
        if args.exact:
            if args.s is None:
                raise SystemExit("the tangency scale 4*sqrt(2)-5 is not rational; "
                                 "pass a rational --s under --exact")
            s = Fraction(args.s)
        else:
            s = SHARP_SCALE if args.s is None else float(Fraction(args.s))
        fam = packings.extremal(args.generations, s)
        meta = {"generator": "extremal", "generations": args.generations,
                "s": float(s)}
    elif kind == "random":
        fam = packings.random_disjoint(args.count, args.dim, args.seed)
        meta = {"generator": "random", "count": args.count,
                "dim": args.dim, "seed": args.seed}
    elif kind == "tree":
        if args.random:
            tree = random_tree(args.seed, args.vertices)
            balls = random_tree_horoballs(tree, args.balls, args.seed + 1)
            meta = {"generator": "tree-random", "seed": args.seed}
        else:
            tree = three_regular_tree(args.depth)
            balls = covering_family(tree)
            meta = {"generator": "tree-covering", "depth": args.depth}
        _emit(serialize.tree_to_document(tree, balls, meta), args.out)
        return 0
    else:  # pragma: no cover
        raise SystemExit(f"unknown packing {kind}")
    report = validate_disjoint(fam, args.tolerance, args.exact)
    if not report.ok:
        print(f"warning: family has overlapping pairs {report.violations[:5]}",
              file=sys.stderr)
    _emit(serialize.family_to_document(fam, meta), args.out)
    return 0 if report.ok else 1


def cmd_shadow(args) -> int:
    fam = _read_family(args.family, args.exact)
    band = CurvatureBand(args.a)
    shadows = []
    for i, h in fam.tangent_items():
        sh = shadow_of(h, band)
        shadows.append({"index": i, "center": [float(c) for c in sh.center],
                        "inner_radius": float(sh.inner_radius),
                        "outer_radius": float(sh.outer_radius)})
    _emit({"model": "shadows", "a": args.a, "shadows": shadows}, args.out)
    return 0


def _witness_json(coords, chain: list, cert: Certificate, members=None) -> dict:
    """One uncloud witness: the endpoint (plus its exact form when it is
    rational), the chain length, and the solver's certificate as checks,
    minimum margin and the family index where it occurs; members maps
    the solver's indices to family indices where they differ."""
    out = {"endpoint": [float(c) for c in coords], "chain_length": len(chain),
           "checks": cert.checks, "margin": float(cert.margin),
           "margin_index": cert.index if members is None else members[cert.index]}
    if all(isinstance(c, (Fraction, int)) for c in coords):
        out["endpoint_exact"] = [str(Fraction(c)) for c in coords]
    return out


def cmd_uncloud(args) -> int:
    fam = _read_family(args.family, args.exact)
    s = _shrink_factor(args)
    tol = 0 if args.exact else args.tolerance
    if args.mode == "generic":
        items = fam.tangent_items()
        members = [i for i, _ in items]
        balls = [(tuple(float(c) for c in h.base), float(h.radius)) for _, h in items]
        bf = BallFamily(euclidean_space(fam.dim - 1), balls, 0.25)
        start = args.start
        if start is not None:
            if start not in members:
                raise ValueError("start index is not a tangent horoball")
            start = members.index(start)
        wits = uncover_two(bf, s, start, tol) if args.two else (uncover(bf, s, start, tol),)
        results = [_witness_json(w.output, w.chain, w.certificate, members) for w in wits]
    elif args.mode == "dim2":
        sides = (Side.LEFT, Side.RIGHT) if args.two else (Side(args.side),)
        results = []
        for side in sides:
            sol = solve_2d(fam, s, args.start, side, tol)
            results.append({**_witness_json((sol.endpoint,), sol.witness, sol.certificate),
                            "side": side.value})
    else:
        signs = (1.0, -1.0) if args.two else ((-1.0,) if args.side == "L" else (1.0,))
        sols = [solve_hnr(fam, s, args.start, (e,) + (0.0,) * (fam.dim - 2), tol)
                for e in signs]
        results = [_witness_json(sol.endpoint, sol.witness, sol.certificate) for sol in sols]
    # every solver raises CertificateError rather than return an
    # uncertified witness, so an emitted document is always certified
    doc = {"mode": args.mode, "shrink_s": float(s), "shrink_t": -math.log(s),
           "witnesses": results, "certified": True}
    if isinstance(s, Fraction):
        doc["shrink_s_exact"] = str(s)
    _emit(doc, args.out)
    return 0


def cmd_ray(args) -> int:
    fam = _read_family(args.family, args.exact)
    x = _parse_point(args.point)
    res = ray_from_point(fam, x, args.t, args.tolerance)
    ok = res.report.ok and res.nearest_clear
    _emit({"ray": serialize.geodesic_to_json(res.ray),
           "endpoint": None if res.endpoint is None else
           [float(c) for c in res.endpoint],
           "nearest_index": res.nearest_index,
           "nearest_clear": res.nearest_clear,
           "margin": res.report.margin,
           "certified": bool(ok)}, args.out)
    return 0 if ok else 1


def cmd_line(args) -> int:
    fam = _read_family(args.family, args.exact)
    res = biinfinite_line(fam, args.t, args.tolerance)
    _emit({"line": serialize.geodesic_to_json(res.line),
           "endpoints": [[float(c) for c in e] for e in res.endpoints],
           "margin": res.report.margin,
           "certified": bool(res.report.ok)}, args.out)
    return 0 if res.report.ok else 1


def cmd_verify(args) -> int:
    if args.what == "constants":
        return _verify_constants(args)
    if args.what == "packing":
        doc = json.loads(_read_text(args.family))
        if doc.get("model") == "tree":
            from .trees import validate_tree_horoballs
            tree, balls = serialize.document_to_tree(doc)
            bad = validate_tree_horoballs(tree, balls, args.tolerance)
            ok = not bad
            _emit({"ok": ok, "violations": [list(v) for v in bad]}, args.out)
        else:
            fam = serialize.document_to_family(doc, args.exact)
            rep = validate_disjoint(fam, args.tolerance, args.exact)
            ok = rep.ok
            _emit({"ok": ok,
                   "violations": [list(v) for v in rep.violations]}, args.out)
        print(f"packing disjointness: {'PASS' if ok else 'FAIL'}",
              file=sys.stderr)
        return 0 if ok else 1
    if args.what == "avoidance":
        if args.geodesic is None:
            raise ValueError("verify avoidance needs --geodesic")
        fam = _read_family(args.family, args.exact)
        g = _read_geodesic(args.geodesic)
        rep = verify_avoidance(g, fam, args.t, args.tolerance)
        _emit({"ok": rep.ok, "margin": rep.margin,
               "max_depths": [[i, d] for i, d in rep.max_depths]}, args.out)
        print(f"avoidance at t={args.t}: {'PASS' if rep.ok else 'FAIL'}",
              file=sys.stderr)
        return 0 if rep.ok else 1
    raise SystemExit(f"unknown verification {args.what}")


def _verify_constants(args) -> int:
    checks = [
        ("t1(1)", sharp_shrink_time(1), -math.log(4 * math.sqrt(2) - 5), 1e-12),
        ("e^-t1(1)", math.exp(-sharp_shrink_time(1)), SHARP_SCALE, 1e-12),
        ("s0(1/4, lines)", safe_scale(0.25, has_lines=True),
         math.sqrt(5) - 2, 1e-12),
        ("t0(H^n_R)", -math.log(safe_scale(0.25, has_lines=True)),
         math.log(2 + math.sqrt(5)), 1e-6),
        ("t0(H^2_C)", complex_hyperbolic_shrink_time(), 4.9157, 1e-3),
    ]
    rows = []
    ok = True
    for name, got, want, tolerance in checks:
        good = abs(got - want) <= tolerance
        ok &= good
        rows.append({"name": name, "value": got, "expected": want,
                     "tolerance": tolerance, "pass": good})
        print(f"{name:18s} = {got:.12f}  expected {want:.12f}  "
              f"[{'PASS' if good else 'FAIL'}]", file=sys.stderr)
    if args.json:
        _emit({"checks": rows, "ok": ok}, args.out)
    return 0 if ok else 1


def cmd_dioph(args) -> int:
    xi = _parse_xi(args.xi)
    sols = dioph_solutions(xi, args.t, args.qmax)
    _emit({"xi": xi, "t": args.t, "qmax": args.qmax,
           "solutions": [f"{f.numerator}/{f.denominator}" for f in sols],
           "count": len(sols)}, args.out)
    return 0


def cmd_render(args) -> int:
    fam = _read_family(args.family, args.exact)
    geos = [_read_geodesic(args.geodesic)] if args.geodesic else []
    svg = family_svg(fam, geos)
    with open(args.svg, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _common_flags() -> argparse.ArgumentParser:
    # accepted before or after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--tolerance", type=_tolerance, default=argparse.SUPPRESS)
    c.add_argument("--exact", action="store_true", default=argparse.SUPPRESS,
                   help="require exact rational inputs throughout")
    c.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    c.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit machine-readable output where optional")
    c.add_argument("--out", default=argparse.SUPPRESS,
                   help="output file (default stdout)")
    return c


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    top = argparse.ArgumentParser(
        prog="horoshadow", parents=[common],
        description="horoball shadows, packings and avoidance solvers")
    top.set_defaults(tolerance=DEFAULT_TOL, exact=False, seed=0,
                     json=False, out=None)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="generate a named horoball family")
    ps = p.add_subparsers(dest="kind", required=True)
    q = ps.add_parser("farey", parents=[common])
    q.add_argument("--qmax", type=int, required=True)
    q.add_argument("--range", default="0..1")
    q.add_argument("--infinity", action="store_true")
    q = ps.add_parser("geometric", parents=[common])
    q.add_argument("--nmin", type=int, default=-8)
    q.add_argument("--nmax", type=int, default=8)
    q = ps.add_parser("extremal", parents=[common])
    q.add_argument("--generations", type=int, required=True)
    q.add_argument("--s", default=None)
    q = ps.add_parser("random", parents=[common])
    q.add_argument("--count", type=int, required=True)
    q.add_argument("--dim", type=int, default=2)
    q = ps.add_parser("tree", parents=[common])
    q.add_argument("--depth", type=int, default=10)
    q.add_argument("--random", action="store_true")
    q.add_argument("--vertices", type=int, default=40)
    q.add_argument("--balls", type=int, default=4)
    for q in ps.choices.values():
        q.set_defaults(func=cmd_pack)

    p = sub.add_parser("shadow", parents=[common], help="shadows of a family seen from infinity")
    p.add_argument("family", nargs="?")
    p.add_argument("--a", type=float, default=1.0)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("uncloud", parents=[common], help="find a point avoiding scaled shadows")
    p.add_argument("family", nargs="?")
    p.add_argument("--mode", choices=["generic", "dim2", "hnr"], default="dim2")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--shrink-s", dest="shrink_s", default=None)
    grp.add_argument("--shrink-t", dest="shrink_t", type=float, default=None)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--side", choices=["L", "R"], default="R")
    p.add_argument("--two", action="store_true")
    p.set_defaults(func=cmd_uncloud)

    p = sub.add_parser("ray", parents=[common], help="geodesic ray from a point avoiding shrunk horoballs")
    p.add_argument("--family", required=True)
    p.add_argument("--point", required=True, help='base;height, e.g. "0.5;0.9"')
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_ray)

    p = sub.add_parser("line", parents=[common], help="bi-infinite geodesic avoiding shrunk horoballs")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_line)

    p = sub.add_parser("verify", parents=[common], help="check constants, packings or avoidance")
    p.add_argument("what", choices=["constants", "packing", "avoidance"])
    p.add_argument("--family", default=None)
    p.add_argument("--geodesic", default=None)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dioph", parents=[common], help="scan rational approximations")
    p.add_argument("--xi", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.set_defaults(func=cmd_dioph)

    p = sub.add_parser("render", parents=[common], help="draw a planar family as SVG")
    p.add_argument("--family", required=True)
    p.add_argument("--geodesic", default=None)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CertificateError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
