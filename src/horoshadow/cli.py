"""Command-line front end: packing generation, solving, verification
and Diophantine scans.  JSON is the single interchange format; exit
status is 0 exactly when every requested certificate holds.

Each subcommand imports the layers it runs when it is called, so a
process loads only those; importing this module and building its parser
load `argparse` and `numeric` alone (json and fractions are imported by
the functions that use them).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import resolver
from .numeric import DEFAULT_TOL, SHARP_SCALE, Certificate, CertificateError, dumps, to_float

# the package's exports, such as `cli.solve_2d`, read from their modules
# on each access, like the layer imports inside the subcommands
__getattr__ = resolver(__name__)


def _read_text(path) -> str:
    """The contents of the file at path, or of stdin for None or "-"."""
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_document(path):
    """The JSON document at path (as _read_text), parsed with the cyclic
    collector paused (serialize.bulk)."""
    import json

    from . import serialize
    text = _read_text(path)
    with serialize.bulk():
        return json.loads(text)


def _read_family(path, exact: bool):
    from . import serialize
    with serialize.bulk():
        return serialize.document_to_family(_read_document(path), exact)


def _read_geodesic(text: str):
    """A geodesic given inline as JSON, or as @path to a JSON file."""
    import json

    from . import serialize
    if text.startswith("@"):
        text = _read_text(text[1:])
    return serialize.json_to_geodesic(json.loads(text))


def _emit(doc, out):
    text = dumps(doc) if isinstance(doc, dict) else str(doc)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _fraction(text: str, flag: str):
    """Fraction(text), where a zero denominator or a malformed literal is
    a ValueError naming the flag that gave it."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None
    except ValueError:
        raise ValueError(f"{flag} is not a rational number: {text!r}") from None


def _parse_range(text: str) -> tuple:
    lo, _, hi = text.partition("..")
    return (_fraction(lo, "--range"), _fraction(hi, "--range"))


def _parse_xi(text: str) -> float:
    named = {"golden": (1 + math.sqrt(5)) / 2, "sqrt2": math.sqrt(2),
             "e": math.e, "pi": math.pi}
    if text in named:
        return named[text]
    xi = to_float(_fraction(text, "--xi")) if "/" in text else float(text)
    if not math.isfinite(xi):
        raise ValueError(f"--xi must be a finite number, got {text!r}")
    return xi


def _parse_point(text: str):
    from .halfspace import Point
    base, _, height = text.partition(";")
    coords = tuple(to_float(_fraction(c, "--point")) for c in base.split(","))
    height = to_float(_fraction(height, "--point"))
    if not all(map(math.isfinite, coords + (height,))):
        raise ValueError(f"--point must be finite, got {text!r}")
    return Point(coords, height)


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}")
    return tol


def _shrink_factor(args):
    if args.shrink_s is not None:
        if args.exact:
            s = _fraction(args.shrink_s, "--shrink-s")  # stays exact through the solver
        elif "/" in str(args.shrink_s):
            s = to_float(_fraction(args.shrink_s, "--shrink-s"))
        else:
            s = float(args.shrink_s)
    else:
        if args.exact:
            raise ValueError("e^-t is not rational; pass --shrink-s under --exact")
        s = math.exp(-float(args.shrink_t))
    if not 0 < s < 1:
        raise ValueError("shrink factor must lie in (0, 1)")
    return s


# ---------------------------------------------------------------------------
# subcommands


def cmd_pack(args) -> int:
    from . import packings, serialize
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
                raise ValueError("the tangency scale 4*sqrt(2)-5 is not rational; "
                                 "pass a rational --s under --exact")
            s = _fraction(args.s, "--s")
        else:
            s = SHARP_SCALE if args.s is None else to_float(_fraction(args.s, "--s"))
        fam = packings.extremal(args.generations, s)
        meta = {"generator": "extremal", "generations": args.generations,
                "s": float(s)}
    elif kind == "random":
        fam = packings.random_disjoint(args.count, args.dim, args.seed)
        meta = {"generator": "random", "count": args.count,
                "dim": args.dim, "seed": args.seed}
    elif kind == "tree":
        from .trees import covering_family, random_tree, random_tree_horoballs, three_regular_tree
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
        raise ValueError(f"unknown packing {kind}")
    report = packings.validate_disjoint(fam, args.tolerance, args.exact)
    if not report.ok:
        print(f"warning: family has overlapping pairs {report.violations[:5]}",
              file=sys.stderr)
    _emit(serialize.family_to_document(fam, meta), args.out)
    return 0 if report.ok else 1


def _witness_json(coords, chain: list, cert: Certificate, members=None) -> dict:
    """One uncloud witness: the endpoint (plus its exact form when it is
    rational), the chain length, and the solver's certificate as checks,
    minimum margin and the family index where it occurs; members maps
    the solver's indices to family indices where they differ."""
    from fractions import Fraction
    out = {"endpoint": [float(c) for c in coords], "chain_length": len(chain),
           "checks": cert.checks, "margin": float(cert.margin),
           "margin_index": cert.index if members is None else members[cert.index]}
    if all(isinstance(c, (Fraction, int)) for c in coords):
        out["endpoint_exact"] = [str(Fraction(c)) for c in coords]
    return out


def cmd_uncloud(args) -> int:
    fam = _read_family(args.family, args.exact)
    if args.exact and (args.mode == "generic" or fam.dim != 2):
        raise ValueError("--exact needs a sharp mode on a planar family: the generic "
                         "solver and the rotations beyond the line run in floats")
    s = _shrink_factor(args)
    tol = 0 if args.exact else args.tolerance
    if args.mode == "generic":
        from .uncover import BallFamily, euclidean_space, uncover, uncover_two
        cols = fam.columns
        members = cols.tangent.tolist()
        balls = list(zip(map(tuple, cols.base.tolist()), cols.radius.tolist()))
        bf = BallFamily(euclidean_space(fam.dim - 1), balls, 0.25)
        start = args.start
        if start is not None:
            if start not in members:
                raise ValueError("start index is not a tangent horoball")
            start = members.index(start)
        wits = uncover_two(bf, s, start, tol) if args.two else (uncover(bf, s, start, tol),)
        results = [_witness_json(w.output, w.chain, w.certificate, members) for w in wits]
    else:
        # dim2 is hnr plus its planar check (sharp2d.solve_2d)
        from .sharp2d import solve_2d
        from .sharpnd import solve_hnr
        solve = solve_2d if args.mode == "dim2" else solve_hnr
        results = []
        for side in ("L", "R") if args.two else (args.side or "R",):
            direction = (-1 if side == "L" else 1,) + (0,) * (fam.dim - 2)
            sol = solve(fam, s, args.start, direction, tol)
            results.append({**_witness_json(sol.endpoint, sol.witness, sol.certificate),
                            "side": side})
    # every solver raises CertificateError rather than return an
    # uncertified witness, so an emitted document is always certified
    doc = {"mode": args.mode, "shrink_s": float(s), "shrink_t": -math.log(s),
           "witnesses": results, "certified": True}
    if args.exact:  # s is a Fraction
        doc["shrink_s_exact"] = str(s)
    _emit(doc, args.out)
    return 0


def cmd_ray(args) -> int:
    from . import serialize
    from .rays import ray_from_point
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
    from . import serialize
    from .rays import biinfinite_line
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
        from . import serialize
        doc = _read_document(args.family)
        if isinstance(doc, dict) and doc.get("model") == "tree":
            from .trees import validate_tree_horoballs
            tree, balls = serialize.document_to_tree(doc)
            bad = validate_tree_horoballs(tree, balls, args.tolerance)
            ok = not bad
            _emit({"ok": ok, "violations": [list(v) for v in bad]}, args.out)
        else:
            from .packings import validate_disjoint
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
        from .rays import verify_avoidance
        fam = _read_family(args.family, args.exact)
        g = _read_geodesic(args.geodesic)
        rep = verify_avoidance(g, fam, args.t, args.tolerance)
        _emit({"ok": rep.ok, "margin": rep.margin,
               "max_depths": [[i, d] for i, d in rep.max_depths]}, args.out)
        print(f"avoidance at t={args.t}: {'PASS' if rep.ok else 'FAIL'}",
              file=sys.stderr)
        return 0 if rep.ok else 1
    raise ValueError(f"unknown verification {args.what}")


def _verify_constants(args) -> int:
    from .heisenberg import complex_hyperbolic_shrink_time
    from .sharp2d import sharp_shrink_time
    from .uncover import safe_scale
    checks = [
        ("t1(1)", sharp_shrink_time(1), -math.log(4 * math.sqrt(2) - 5), 1e-12),
        ("e^-t1(1)", math.exp(-sharp_shrink_time(1)), SHARP_SCALE, 1e-12),
        ("s0(1/4, lines)", safe_scale(0.25, has_lines=True),
         math.sqrt(5) - 2, 1e-12),
        ("t0(H^n_R)", -math.log(safe_scale(0.25, has_lines=True)),
         math.log(2 + math.sqrt(5)), 1e-6),
        # the closed form: s0 = max_scale_for_load(1 + eps*) at the crossing
        # eps*^2 = (pi/2)(sqrt(1 + 4/pi) - 1) of heis_modulus, where the
        # golden-section search of safe_scale ends
        ("t0(H^2_C)", complex_hyperbolic_shrink_time(), 4.915766891218324, 1e-9),
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
    _emit({"checks": rows, "ok": ok}, args.out)
    return 0 if ok else 1


def cmd_dioph(args) -> int:
    from .sharp2d import dioph_solutions
    xi = _parse_xi(args.xi)
    sols = dioph_solutions(xi, args.t, args.qmax)
    _emit({"xi": xi, "t": args.t, "qmax": args.qmax,
           "solutions": [f"{f.numerator}/{f.denominator}" for f in sols],
           "count": len(sols)}, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _common_flags() -> argparse.ArgumentParser:
    # accepted before or after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level, and the
    # top level takes its own copy, as its set_defaults rewrites the
    # defaults of the actions it holds
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--tolerance", type=_tolerance, default=argparse.SUPPRESS)
    c.add_argument("--exact", action="store_true", default=argparse.SUPPRESS,
                   help="require exact rational inputs throughout")
    c.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    c.add_argument("--out", default=argparse.SUPPRESS,
                   help="output file (default stdout)")
    return c


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    top = argparse.ArgumentParser(
        prog="horoshadow", parents=[_common_flags()],
        description="horoball shadows, packings and avoidance solvers")
    top.set_defaults(tolerance=DEFAULT_TOL, exact=False, seed=0, out=None)
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

    p = sub.add_parser("uncloud", parents=[common], help="find a point avoiding scaled shadows")
    p.add_argument("family", nargs="?")
    p.add_argument("--mode", choices=["generic", "dim2", "hnr"], default="dim2")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--shrink-s", dest="shrink_s", default=None)
    grp.add_argument("--shrink-t", dest="shrink_t", type=float, default=None)
    p.add_argument("--start", type=int, default=None)
    # --side has no default: argparse passes a group member whose value
    # is its default object, as "R" would be, so --two --side R would pass
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--side", choices=["L", "R"], default=None, help="R unless given")
    grp.add_argument("--two", action="store_true", help="both sides, L then R")
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

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built on its first call: parse_args leaves
    it as it was, so one serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout has gone: end quietly, with stdout on
        # devnull so that its flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, CertificateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
