"""The four benchmark workloads: seeded jobs and their external checks.

A job is one certificate pipeline: a list of ops, each timed on its own
and tagged with the phase it belongs to (`pack`, `uncloud` or
`geodesic`).  Half-space ops call `horoshadow.cli.main(argv)` in-process,
one call per command, with every document in files under the job's work
directory; metric-space ops call the public library functions.  Checks
run after the job, outside the timed ops, and re-derive each verdict
from the geometry instead of trusting the layer that produced it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from horoshadow import cli, heisenberg, serialize, trees
from horoshadow.halfspace import AtInfinityHoroball, TangentHoroball, VerticalGeodesic
from horoshadow.packings import HoroballFamily
from horoshadow.rays import verify_avoidance

from . import inputs

# the package exports the function `uncover`, which shadows the module
uncover = importlib.import_module("horoshadow.uncover")

#: depth tolerance of the hyperbolic re-verification, in units of
#: hyperbolic length, so it means the same at every scale
HYPERBOLIC_TOL = 1e-9
#: tolerance of the Heisenberg and tree checks, relative to the radius or
#: edge length it compares with (both metrics scale under dilation)
RELATIVE_TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    phase: str                          # pack | uncloud | geodesic
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]         # result -> digest item, or raises


@dataclass
class Job:
    balls: int                          # total family size the job works on
    ops: list[Op]
    docs: list[Path] = field(default_factory=list)   # family documents


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ladder: tuple       # job sizes, cycled in seeded blocks; repeat one to weight it
    make_job: Callable[[Any, random.Random, Path], Job]


# ---------------------------------------------------------------------------
# CLI ops and their checks


def cli_op(argv: list[str]) -> Callable[[], None]:
    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {err.getvalue().strip()[-300:]}")
    return run


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_count(path: Path, want: int) -> Callable[[Any], str]:
    def check(_):
        n = len(load(path)["entries"])
        expect(n == want, f"{path.name}: {n} entries, expected {want}")
        return f"{path.name}:{n}"
    return check


def check_verified(path: Path) -> Callable[[Any], str]:
    def check(_):
        doc = load(path)
        expect(doc["ok"] is True and doc["violations"] == [],
               f"{path.name}: packing reported {doc['violations'][:3]}")
        return "packing ok"
    return check


def check_uncloud(path: Path, tangents: HoroballFamily, s,
                  exact: HoroballFamily | None = None) -> Callable[[Any], str]:
    """Each endpoint's vertical geodesic avoids every tangent member
    shrunk by t = -log s, by closed-form penetration depths; given the
    exact members, also (e - b)^2 >= s^2 r^2 over the rationals."""
    t = -math.log(s)

    def check(_):
        doc = load(path)
        expect(doc["certified"] is True, f"{path.name}: not certified")
        expect(len(doc["witnesses"]) == 2, f"{path.name}: expected two witnesses")
        items = []
        for w in doc["witnesses"]:
            foot = tuple(Fraction(c) for c in w["endpoint_exact"]) if exact is not None \
                else tuple(w["endpoint"])
            rep = verify_avoidance(VerticalGeodesic(foot), tangents, t, HYPERBOLIC_TOL)
            expect(rep.ok, f"{path.name}: endpoint {w['endpoint']} enters a shrunk "
                           f"horoball (margin {rep.margin:.3e})")
            if exact is not None:
                bad = [i for i, h in enumerate(exact.horoballs)
                       if (foot[0] - h.base[0]) ** 2 < s * s * h.radius * h.radius]
                expect(not bad, f"{path.name}: exact endpoint inside scaled shadows {bad[:3]}")
            items.append(f"{w['endpoint']!r}/{w['chain_length']}")
        return f"{doc['mode']}:{';'.join(items)}"
    return check


def check_geodesic(path: Path, key: str, fam: HoroballFamily, t: float
                   ) -> Callable[[Any], str]:
    """The reported line or ray avoids every horoball shrunk by t."""
    def check(_):
        doc = load(path)
        expect(doc["certified"] is True, f"{path.name}: not certified")
        g = serialize.json_to_geodesic(doc[key])
        rep = verify_avoidance(g, fam, t, HYPERBOLIC_TOL)
        expect(rep.ok, f"{path.name}: {key} enters a shrunk horoball "
                       f"(margin {rep.margin:.3e})")
        return f"{key}:{json.dumps(doc[key], sort_keys=True)}"
    return check


def as_float_family(fam: HoroballFamily, tangent_only: bool = False) -> HoroballFamily:
    """Float copy of a family (what the penetration formulas compute in),
    optionally without the horoball at infinity, which every vertical
    geodesic enters."""
    out = []
    for h in fam.horoballs:
        if isinstance(h, TangentHoroball):
            out.append(TangentHoroball(tuple(map(float, h.base)), float(h.radius)))
        elif not tangent_only:
            out.append(AtInfinityHoroball(float(h.height)))
    return HoroballFamily(fam.dim, out)


# ---------------------------------------------------------------------------
# reference families, built by the harness


@functools.lru_cache(maxsize=None)
def farey_reference(q_max: int) -> tuple[HoroballFamily, HoroballFamily, HoroballFamily]:
    """(exact tangent members, float family, float tangent members) of the
    Farey family on [0, 1] plus the horoball at infinity, enumerated here
    rather than by the generator under test."""
    exact = HoroballFamily(2, [TangentHoroball((Fraction(p, q),), Fraction(1, 2 * q * q))
                               for q in range(1, q_max + 1) for p in range(q + 1)
                               if math.gcd(p, q) == 1])
    if len(exact.horoballs) != inputs.farey_size(q_max):
        raise RuntimeError("Farey enumeration disagrees with the totient count")
    full = HoroballFamily(2, exact.horoballs + [AtInfinityHoroball(1)])
    return exact, as_float_family(full), as_float_family(exact)


@functools.lru_cache(maxsize=None)
def ford_reference(norm_max: int, work: Path) -> tuple[HoroballFamily, HoroballFamily, Path]:
    """(float family, float tangent members, document path) of the Ford
    family; the document keeps the exact coordinates."""
    fam = inputs.ford_family(norm_max)
    path = work / f"ford-{norm_max}.json"
    with open(path, "w") as fh:
        fh.write(serialize.dumps(serialize.family_to_document(
            fam, {"generator": "ford", "norm_max": norm_max})))
    return as_float_family(fam), as_float_family(fam, tangent_only=True), path


@functools.lru_cache(maxsize=None)
def tree_of_depth(depth: int) -> trees.MetricTree:
    return trees.three_regular_tree(depth)


# ---------------------------------------------------------------------------
# shrink parameters: scales below the sharp constant 4 sqrt(2) - 5 for the
# sharp solvers and below sqrt(5) - 2 for the generic engine; shrink
# times above the sharp time plus the glue constants for lines and rays


def sharp_scale(rng: random.Random) -> str:
    return f"{rng.uniform(0.30, 0.62):.4f}"


def generic_scale(rng: random.Random) -> str:
    return f"{rng.uniform(0.10, 0.22):.4f}"


def line_time(rng: random.Random) -> float:
    return round(rng.uniform(1.35, 1.80), 4)


def ray_time(rng: random.Random) -> float:
    return round(rng.uniform(1.90, 2.40), 4)


# ---------------------------------------------------------------------------
# workloads


def farey_float_job(q_max: int, rng: random.Random, work: Path) -> Job:
    _, fam, tangents = farey_reference(q_max)
    size = len(fam.horoballs)
    doc = work / "farey.json"
    s_sharp, s_generic = sharp_scale(rng), generic_scale(rng)
    t_line, t_ray = line_time(rng), ray_time(rng)
    point = inputs.point_arg(inputs.ray_base_point(fam, rng, [(0.05, 0.95)], (0.2, 0.9)))
    ops = [Op("pack", "pack", cli_op(["pack", "farey", "--qmax", str(q_max), "--infinity",
                                      "--out", str(doc)]), check_count(doc, size))]
    for mode, s in (("dim2", s_sharp), ("hnr", s_sharp), ("generic", s_generic)):
        out = work / f"uncloud-{mode}.json"
        ops.append(Op("uncloud", f"uncloud-{mode}",
                      cli_op(["uncloud", str(doc), "--mode", mode, "--two",
                              "--shrink-s", s, "--out", str(out)]),
                      check_uncloud(out, tangents, float(s))))
    ops += [
        Op("geodesic", "line",
           cli_op(["line", "--family", str(doc), "--t", str(t_line), "--out", str(work / "line.json")]),
           check_geodesic(work / "line.json", "line", fam, t_line)),
        Op("geodesic", "ray",
           cli_op(["ray", "--family", str(doc), "--point", point, "--t", str(t_ray),
                   "--out", str(work / "ray.json")]),
           check_geodesic(work / "ray.json", "ray", fam, t_ray)),
    ]
    return Job(size, ops, [doc])


def farey_exact_job(q_max: int, rng: random.Random, work: Path) -> Job:
    exact, fam, tangents = farey_reference(q_max)
    size = len(fam.horoballs)
    doc = work / "farey-exact.json"
    s = Fraction(rng.randint(30, 62), 100)
    t_line = line_time(rng)
    ops = [
        Op("pack", "pack", cli_op(["pack", "farey", "--qmax", str(q_max), "--infinity", "--exact",
                                   "--out", str(doc)]), check_count(doc, size)),
        Op("uncloud", "uncloud-dim2",
           cli_op(["uncloud", str(doc), "--mode", "dim2", "--two", "--exact",
                   "--shrink-s", str(s), "--out", str(work / "uncloud-dim2.json")]),
           check_uncloud(work / "uncloud-dim2.json", tangents, s, exact)),
        Op("pack", "verify-packing",
           cli_op(["verify", "packing", "--family", str(doc), "--exact",
                   "--out", str(work / "verify.json")]),
           check_verified(work / "verify.json")),
        Op("geodesic", "line",
           cli_op(["line", "--family", str(doc), "--exact", "--t", str(t_line),
                   "--out", str(work / "line.json")]),
           check_geodesic(work / "line.json", "line", fam, t_line)),
    ]
    return Job(size, ops, [doc])


def halfspace_3d_job(size: tuple, rng: random.Random, work: Path) -> Job:
    norm_max, count = size
    fam, tangents, doc = ford_reference(norm_max, work)
    s_sharp, s_generic = sharp_scale(rng), generic_scale(rng)
    t_line, t_ray = line_time(rng), ray_time(rng)
    point = inputs.point_arg(inputs.ray_base_point(
        fam, rng, [(0.05, 0.95), (0.05, 0.95)], (0.2, 0.9)))
    rnd = work / "random-3d.json"
    ops = [Op("pack", "verify-packing",
              cli_op(["verify", "packing", "--family", str(doc), "--out", str(work / "verify.json")]),
              check_verified(work / "verify.json"))]
    for mode, s in (("hnr", s_sharp), ("generic", s_generic)):
        out = work / f"uncloud-{mode}.json"
        ops.append(Op("uncloud", f"uncloud-{mode}",
                      cli_op(["uncloud", str(doc), "--mode", mode, "--two",
                              "--shrink-s", s, "--out", str(out)]),
                      check_uncloud(out, tangents, float(s))))
    ops += [
        Op("geodesic", "line",
           cli_op(["line", "--family", str(doc), "--t", str(t_line), "--out", str(work / "line.json")]),
           check_geodesic(work / "line.json", "line", fam, t_line)),
        Op("geodesic", "ray",
           cli_op(["ray", "--family", str(doc), "--point", point, "--t", str(t_ray),
                   "--out", str(work / "ray.json")]),
           check_geodesic(work / "ray.json", "ray", fam, t_ray)),
        Op("pack", "pack-random",
           cli_op(["pack", "random", "--dim", "3", "--count", str(count),
                   "--seed", str(rng.randrange(10**6)), "--out", str(rnd)]),
           check_count(rnd, count)),
    ]
    return Job(len(fam.horoballs) + count, ops, [doc, rnd])


#: scale of the Heisenberg uncovering run: 0.9 safe_scale(1/4) for d_CC
HEIS_SCALE = 0.9 * uncover.safe_scale(0.25, heisenberg.heis_modulus)


#: depth of the three-regular tree; greedy_ray from the root fails on the
#: covering family of every odd depth (a defect of the program)
TREE_DEPTH = 12


def metric_spaces_job(count: int, rng: random.Random, work: Path) -> Job:
    balls = inputs.heisenberg_balls(rng, count)
    tree = tree_of_depth(TREE_DEPTH)
    state: dict = {}
    job = Job(count, [])

    def validate():
        # built inside the op so the space comes from the binding callers use
        state["fam"] = uncover.BallFamily(heisenberg.heisenberg_space(), balls, 0.25)
        return state["fam"].validate_packing()

    def check_packing(bad):
        expect(bad == [], f"Heisenberg family violates the packing condition at {bad[:3]}")
        return "heisenberg packing ok"

    def check_witnesses(ws):
        for w in ws:
            gaps = [heisenberg.cc_dist(w.output, x) - HEIS_SCALE * r for x, r in balls]
            worst = min(range(len(gaps)), key=gaps.__getitem__)
            expect(gaps[worst] >= -RELATIVE_TOL * balls[worst][1],
                   f"Heisenberg output inside scaled ball {worst} (gap {gaps[worst]:.3e})")
        r0 = max(r for _, r in balls)
        expect(heisenberg.cc_dist(ws[0].output, ws[1].output) >= HEIS_SCALE * r0 * (1 - RELATIVE_TOL),
               "Heisenberg outputs closer than s r0")
        return ";".join(f"{w.output.zeta!r},{w.output.v!r}/{len(w.chain)}" for w in ws)

    def cover():
        state["cover"] = trees.covering_family(tree)
        return state["cover"]

    def check_cover(fam):
        expect(len(fam) > 0, "empty covering family")
        job.balls = count + len(fam)
        return f"cover:{len(fam)}"

    def check_ray(res):
        expect(res.max_depth <= tree.ell_max * (1 + RELATIVE_TOL),
               f"tree ray depth {res.max_depth} exceeds ell_max {tree.ell_max}")
        expect(res.path.vertices != res.two.vertices, "the two tree rays coincide")
        return f"tree:{res.max_depth!r}/{len(res.path.vertices)}/{len(res.two.vertices)}"

    job.ops = [
        Op("pack", "heisenberg-validate", validate, check_packing),
        Op("uncloud", "heisenberg-uncover-two",
           lambda: uncover.uncover_two(state["fam"], HEIS_SCALE), check_witnesses),
        Op("pack", "tree-covering-family", cover, check_cover),
        Op("geodesic", "tree-greedy-ray",
           lambda: trees.greedy_ray(tree, state["cover"], tree.root, validate=False), check_ray),
    ]
    return job


WORKLOADS = {w.name: w for w in [
    Workload("farey-float",
             "large planar Farey family through every half-space layer: pack, "
             "uncloud dim2/hnr/generic, line and ray, each command re-reading the document",
             (56, 58, 60, 62, 64), farey_float_job),
    Workload("farey-exact",
             "same layers in Fraction arithmetic, where all-pairs exact validation "
             "dominates; catches a float-only speed-up that slows the rational path",
             (26, 26, 27, 27, 27, 28), farey_exact_job),
    Workload("halfspace-3d",
             "Ford spheres in H^3 plus random 3-D packs: rotation branch of step_hnr, "
             "2-D uncover, 3-D inversion in rays, rejection generator; skips sharp2d",
             ((44, 480), (47, 510), (50, 540), (53, 570), (56, 600)), halfspace_3d_job),
    Workload("metric-spaces",
             "Heisenberg uncovering under the costly CC metric plus tree rays; no "
             "half-space code runs, so it is the no-change baseline for half-space work",
             (170, 180, 190, 200, 210), metric_spaces_job),
]}
