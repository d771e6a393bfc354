"""Tests of the benchmark's input builders, tracer and metric lists.

    python3 -m pytest bench
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import bench

bench.use_checkout_source()

from bench import inputs, run, tracing  # noqa: E402
from horoshadow.halfspace import point_to_horoball_dist  # noqa: E402
from horoshadow.heisenberg import heisenberg_space  # noqa: E402
from horoshadow.packings import farey, validate_disjoint  # noqa: E402
from horoshadow.uncover import BallFamily  # noqa: E402


def brute_ford(norm_max):
    """Distinct points p/q in the closed unit square, by brute force over
    all Gaussian p and all nonzero q (no gcd, no associates)."""
    seen = {}
    r = int(norm_max ** 0.5) + 1
    for a, b in itertools.product(range(-r, r + 1), repeat=2):
        n = a * a + b * b
        if not 0 < n <= norm_max:
            continue
        for c, d in itertools.product(range(-2 * r, 2 * r + 1), repeat=2):
            z = (Fraction(c * a + d * b, n), Fraction(d * a - c * b, n))
            if 0 <= z[0] <= 1 and 0 <= z[1] <= 1:
                seen[z] = min(seen.get(z, n), n)
    return seen


class TestGaussian:
    def test_gcd_divides_and_is_maximal(self):
        rng = random.Random(3)
        for _ in range(200):
            x = (rng.randint(-30, 30), rng.randint(-30, 30))
            y = (rng.randint(-30, 30), rng.randint(-30, 30))
            if y == (0, 0):
                continue
            g = inputs.gauss_gcd(x, y)
            n = inputs.gauss_norm(g)
            for z in (x, y):
                w = inputs.gauss_mul(z, (g[0], -g[1]))
                assert w[0] % n == 0 and w[1] % n == 0
            # the norm of a gcd divides the norms of both arguments
            assert inputs.gauss_norm(x) % n == 0 and inputs.gauss_norm(y) % n == 0

    def test_gcd_of_coprime_pair_is_a_unit(self):
        assert inputs.gauss_norm(inputs.gauss_gcd((2, 1), (1, 1))) == 1
        assert inputs.gauss_norm(inputs.gauss_gcd((3, 0), (1, 2))) == 1
        assert inputs.gauss_norm(inputs.gauss_gcd((2, 0), (1, 1))) == 2


class TestFord:
    @pytest.mark.parametrize("norm_max", [1, 2, 5, 10, 13])
    def test_points_and_radii_match_brute_force(self, norm_max):
        fam = inputs.ford_family(norm_max, include_infinity=False)
        got = {h.base: h.radius for h in fam.horoballs}
        assert len(got) == len(fam.horoballs)  # every point once
        want = brute_ford(norm_max)  # smallest denominator norm = reduced form
        assert got == {z: Fraction(1, 2 * n) for z, n in want.items()}

    def test_small_family_is_exactly_disjoint(self):
        fam = inputs.ford_family(10)
        assert validate_disjoint(fam, exact=True).ok

    def test_determinant_identity(self):
        pairs = inputs.ford_fractions(10)
        tangent = 0
        for (p, q), (p2, q2) in itertools.combinations(pairs, 2):
            a, b = inputs.gauss_mul(p, q2), inputs.gauss_mul(p2, q)
            det = inputs.gauss_norm((a[0] - b[0], a[1] - b[1]))
            assert det >= 1
            tangent += det == 1
        assert tangent > 0


def test_farey_size_matches_generator():
    for q in range(1, 40):
        assert inputs.farey_size(q) == len(farey(q).horoballs)


def test_ladder_blocks_are_permutations():
    sizes = (1, 2, 3, 4, 5)
    got = list(itertools.islice(inputs.ladder(random.Random(9), sizes), 20))
    for k in range(0, 20, 5):
        assert sorted(got[k:k + 5]) == list(sizes)
    again = list(itertools.islice(inputs.ladder(random.Random(9), sizes), 20))
    assert got == again


def test_ray_base_point_lies_outside_every_horoball():
    fam = farey(30, include_infinity=True)
    for seed in range(5):
        x = inputs.ray_base_point(fam, random.Random(seed), [(0.05, 0.95)], (0.2, 0.9))
        assert min(point_to_horoball_dist(x, h) for h in fam.horoballs) >= 0.05
        assert x == inputs.ray_base_point(fam, random.Random(seed), [(0.05, 0.95)], (0.2, 0.9))


def test_heisenberg_family_meets_the_cc_packing_condition():
    balls = inputs.heisenberg_balls(random.Random(4), 60)
    assert len(balls) == 60
    assert balls == inputs.heisenberg_balls(random.Random(4), 60)
    assert BallFamily(heisenberg_space(), balls, 0.25).validate_packing() == []


def test_self_times_add_up_to_the_job_and_wrappers_are_removed():
    from horoshadow import cli, rays, sharp2d

    tracer = tracing.Tracer()
    tracer.new_job(0)
    originals = (cli.solve_2d, rays.solve_2d, sharp2d.step_2d)
    fam = farey(40, include_infinity=True)
    with tracing.installed(tracer):
        assert rays.solve_2d is cli.solve_2d is not originals[0]
        tracer.enter(tracing.JOB_SPAN)
        rays.biinfinite_line(fam, 1.5)
        tracer.leave()
    assert (cli.solve_2d, rays.solve_2d, sharp2d.step_2d) == originals
    stats = tracer.job_stats()
    assert sum(stats["self_ns"].values()) == stats["dur_ns"]
    assert len(stats["calls"]["sharp2d.solve_2d"]) == 2
    assert stats["counts"]["sharp2d.step_calls"] > 0
    assert [s[0] for s in tracer.spans][:2] == [tracing.JOB_SPAN, "rays.biinfinite_line"]


def test_percentile_tail_leaves_ten_jobs_beyond():
    durs = [float(i) for i in range(1, 31)]
    assert run.percentile_tail(durs) == (20.0, 100.0 * 20 / 30)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layer = [(m, u, b) for m, u, b, _ in tracing.PER_LAYER] + tracing.TRACE_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
    from bench import workloads
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_compare_verdicts():
    from bench.compare import verdict

    parent = {s: 1.0 + 0.01 * s for s in range(10)}
    assert verdict(parent, {s: v * 1.3 for s, v in parent.items()}, "lower", 0.1)[0] == "regression"
    assert verdict(parent, {s: v * 0.7 for s, v in parent.items()}, "lower", 0.1)[0] == "improved"
    assert verdict(parent, {s: v * 1.02 for s, v in parent.items()}, "lower", 0.1)[0] == "same"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, {s: v * 1.3 for s, v in parent.items()}, "higher", 0.1)[0] == "improved"
