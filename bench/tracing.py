"""Spans and counters recorded from outside the program.

The traced run installs wrappers at the binding sites callers use: every
module attribute of horoshadow that is the wrapped function gets the
wrapper, so `horoshadow.cli.solve_2d` and `horoshadow.rays.solve_2d` are
both timed.  Spans nest in one thread, so a span's self time is its
duration minus the durations of its direct children, and the self times
of all spans of a job add up to the job span exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import horoshadow
from horoshadow import cli, halfspace, heisenberg, packings, rays, serialize, sharp2d, sharpnd, trees

# the package exports the function `uncover`, which shadows the module
uncover = importlib.import_module("horoshadow.uncover")

MODULES = (horoshadow, cli, halfspace, heisenberg, packings, rays, serialize,
           sharp2d, sharpnd, trees, uncover)

JOB_SPAN = "harness.job"


class Tracer:
    """In-memory spans (name, start, end, parent, job) plus per-job
    self time by layer, span durations by name, and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []   # [name, start_ns, child_ns, span index]
        self.job = -1
        self.new_job(-1)

    def new_job(self, job: int) -> None:
        self.job = job
        self.self_ns: Counter = Counter()
        self.calls: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()

    def enter(self, name: str, record: bool = True) -> None:
        index = None
        if record:
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.job])
        self._stack.append([name, time.perf_counter_ns(), 0, index])

    def leave(self) -> None:
        end = time.perf_counter_ns()
        name, start, child, index = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.self_ns[name.split(".")[0]] += dur - child
        self.calls[name].append(dur)
        if index is not None:
            self.spans[index][1:3] = start, end

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def job_stats(self, scale: float = 1.0) -> dict:
        """The current job's figures; `scale` converts its nanoseconds
        to reference nanoseconds."""
        (dur,) = self.calls[JOB_SPAN]
        return {"dur_ns": dur, "scale": scale, "self_ns": dict(self.self_ns),
                "calls": {k: list(v) for k, v in self.calls.items()},
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start - t0,
                                     "end_ns": end - t0, "parent": parent,
                                     "job": job}) + "\n")

    # -- wrappers ------------------------------------------------------------

    def span(self, fn: Callable, name: str, record: bool = True,
             when: Optional[Callable] = None, after: Optional[Callable] = None):
        """fn timed as span `name`; `when(*args)` false skips the span,
        `after(result, *args)` updates counters.  A call nested directly
        in a span of the same name joins that span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(name) or (when is not None and not when(*args)):
                return fn(*args, **kwargs)
            self.enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(self.counts, result, *args)
            return result

        return wrapper

    def counter(self, fn: Callable, calls: str, hits: Optional[str] = None):
        """fn counting its calls, and in `hits` its non-None results."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            result = fn(*args, **kwargs)
            if hits is not None and result is not None:
                self.counts[hits] += 1
            return result

        return wrapper

    def space_factory(self, factory: Callable):
        """UncoverSpace factory whose spaces count their dist calls."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            space = factory(*args, **kwargs)
            return dataclasses.replace(
                space, dist=self.counter(space.dist, "uncover.dist_calls"))

        return wrapper

    def wrappers(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every instrumented function."""

        def chain(field: str, key: str) -> Callable:
            def after(counts, result, *args):
                counts[key] += len(getattr(result, field))
            return after

        def validated(counts, report, fam, *args):
            counts["packings.balls"] += len(fam.horoballs)
            counts["packings.violations"] += len(report.violations)

        def uncovered(counts, witnesses, *args):
            counts["uncover.chain_len"] += sum(len(w.chain) for w in witnesses)

        def walked(counts, result, *args):
            counts["trees.walk_vertices"] += (len(result.path.vertices)
                                              + len(result.two.vertices))

        def is_family(doc, *args):
            return isinstance(doc, dict) and "entries" in doc

        s = self.span
        return [
            (cli, "main", s(cli.main, "cli.main")),
            (cli, "_read_family", s(cli._read_family, "serialize.load")),
            (cli, "_emit", s(cli._emit, "serialize.dump", when=is_family)),
            (serialize, "document_to_family",
             s(serialize.document_to_family, "serialize.load")),
            (serialize, "family_to_document",
             s(serialize.family_to_document, "serialize.dump")),
            (packings, "farey", s(packings.farey, "packings.farey")),
            (packings, "random_disjoint",
             s(packings.random_disjoint, "packings.random_disjoint")),
            (packings, "validate_disjoint",
             s(packings.validate_disjoint, "packings.validate_disjoint", after=validated)),
            (sharp2d, "solve_2d",
             s(sharp2d.solve_2d, "sharp2d.solve_2d", after=chain("witness", "sharp2d.chain_len"))),
            (sharp2d, "step_2d",
             self.counter(sharp2d.step_2d, "sharp2d.step_calls", "sharp2d.chain_steps")),
            (sharpnd, "solve_hnr",
             s(sharpnd.solve_hnr, "sharpnd.solve_hnr", after=chain("witness", "sharpnd.chain_len"))),
            (sharpnd, "step_hnr",
             self.counter(sharpnd.step_hnr, "sharpnd.step_calls", "sharpnd.chain_steps")),
            (uncover, "uncover_two", s(uncover.uncover_two, "uncover.uncover_two", after=uncovered)),
            (uncover.BallFamily, "validate_packing",
             s(uncover.BallFamily.validate_packing, "uncover.validate_packing")),
            (uncover, "refine_step", self.counter(uncover.refine_step, "uncover.refine_calls")),
            (uncover, "euclidean_space", self.space_factory(uncover.euclidean_space)),
            (heisenberg, "heisenberg_space", self.space_factory(heisenberg.heisenberg_space)),
            (heisenberg, "cc_dist",
             self.counter(s(heisenberg.cc_dist, "heisenberg.cc_dist", record=False),
                          "heisenberg.cc_dist_calls")),
            (rays, "biinfinite_line", s(rays.biinfinite_line, "rays.biinfinite_line")),
            (rays, "ray_from_point", s(rays.ray_from_point, "rays.ray_from_point")),
            (rays, "verify_avoidance", s(rays.verify_avoidance, "rays.verify_avoidance")),
            (halfspace, "penetration_depth",
             self.counter(halfspace.penetration_depth, "halfspace.penetration_calls")),
            (halfspace, "penetration_interval",
             self.counter(halfspace.penetration_interval, "halfspace.penetration_calls")),
            (trees, "covering_family", s(trees.covering_family, "trees.covering_family")),
            (trees, "greedy_ray", s(trees.greedy_ray, "trees.greedy_ray", after=walked)),
        ]


@contextmanager
def installed(tracer: Tracer):
    """Every binding of each instrumented function replaced by its
    wrapper for the duration of the block, then restored."""
    undo = []
    try:
        for owner, attr, wrapper in tracer.wrappers():
            original = getattr(owner, attr)
            owners = [owner] + [m for m in MODULES if m is not owner]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)


# ---------------------------------------------------------------------------
# per-layer metrics

#: seconds per nanosecond
NS = 1e-9

#: (metric, unit, better, how): "call:<span>" median duration per call,
#: "job:<span>" and "self:<layer>" per-job sums, "count:<key>" per-job
#: counts, "ratio:<hits>/<calls>" totals over all traced jobs; every
#: per-job figure is the median over the traced jobs.
PER_LAYER = [
    ("harness.self_s", "s", "lower", "self:harness"),
    ("cli.self_s", "s", "lower", "self:cli"),
    ("packings.farey_s", "s", "lower", "call:packings.farey"),
    ("packings.random_disjoint_s", "s", "lower", "call:packings.random_disjoint"),
    ("packings.validate_disjoint_s", "s", "lower", "call:packings.validate_disjoint"),
    ("packings.self_s", "s", "lower", "self:packings"),
    ("packings.balls", "count", "higher", "count:packings.balls"),
    ("packings.violations", "count", "lower", "count:packings.violations"),
    ("serialize.dump_s", "s", "lower", "job:serialize.dump"),
    ("serialize.load_s", "s", "lower", "job:serialize.load"),
    ("serialize.doc_bytes", "B", "lower", "count:serialize.doc_bytes"),
    ("sharp2d.solve_2d_s", "s", "lower", "call:sharp2d.solve_2d"),
    ("sharp2d.self_s", "s", "lower", "self:sharp2d"),
    ("sharp2d.step_calls", "count", "lower", "count:sharp2d.step_calls"),
    ("sharp2d.chain_len", "count", "lower", "count:sharp2d.chain_len"),
    ("sharp2d.hit_ratio", "ratio", "higher", "ratio:sharp2d.chain_steps/sharp2d.step_calls"),
    ("sharpnd.solve_hnr_s", "s", "lower", "call:sharpnd.solve_hnr"),
    ("sharpnd.self_s", "s", "lower", "self:sharpnd"),
    ("sharpnd.step_calls", "count", "lower", "count:sharpnd.step_calls"),
    ("sharpnd.chain_len", "count", "lower", "count:sharpnd.chain_len"),
    ("sharpnd.hit_ratio", "ratio", "higher", "ratio:sharpnd.chain_steps/sharpnd.step_calls"),
    ("uncover.uncover_two_s", "s", "lower", "call:uncover.uncover_two"),
    ("uncover.validate_packing_s", "s", "lower", "call:uncover.validate_packing"),
    ("uncover.self_s", "s", "lower", "self:uncover"),
    ("uncover.refine_calls", "count", "lower", "count:uncover.refine_calls"),
    ("uncover.chain_len", "count", "lower", "count:uncover.chain_len"),
    ("uncover.dist_calls", "count", "lower", "count:uncover.dist_calls"),
    ("heisenberg.cc_dist_s", "s", "lower", "self:heisenberg"),
    ("heisenberg.cc_dist_calls", "count", "lower", "count:heisenberg.cc_dist_calls"),
    ("rays.biinfinite_line_s", "s", "lower", "call:rays.biinfinite_line"),
    ("rays.ray_from_point_s", "s", "lower", "call:rays.ray_from_point"),
    ("rays.verify_avoidance_s", "s", "lower", "call:rays.verify_avoidance"),
    ("rays.self_s", "s", "lower", "self:rays"),
    ("halfspace.penetration_calls", "count", "lower", "count:halfspace.penetration_calls"),
    ("trees.covering_family_s", "s", "lower", "call:trees.covering_family"),
    ("trees.greedy_ray_s", "s", "lower", "call:trees.greedy_ray"),
    ("trees.self_s", "s", "lower", "self:trees"),
    ("trees.walk_vertices", "count", "lower", "count:trees.walk_vertices"),
]

#: figures of the trace itself, computed by the runner
TRACE_METRICS = [
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
]


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Per-layer figures over the traced jobs' `job_stats()`, times in
    reference seconds; a layer that never ran reads 0."""
    out = {}
    for name, _, _, how in PER_LAYER:
        kind, _, key = how.partition(":")
        if kind == "call":
            out[name] = _median([d * j["scale"] for j in jobs
                                 for d in j["calls"].get(key, [])]) * NS
        elif kind == "job":
            out[name] = _median([sum(j["calls"].get(key, [])) * j["scale"]
                                 for j in jobs]) * NS
        elif kind == "self":
            out[name] = _median([j["self_ns"].get(key, 0) * j["scale"] for j in jobs]) * NS
        elif kind == "count":
            out[name] = _median([j["counts"].get(key, 0) for j in jobs])
        else:
            hits, _, calls = key.partition("/")
            total = sum(j["counts"].get(calls, 0) for j in jobs)
            out[name] = sum(j["counts"].get(hits, 0) for j in jobs) / total if total else 0.0
    out["trace.job_s"] = _median([j["dur_ns"] * j["scale"] for j in jobs]) * NS
    out["trace.self_sum_ratio"] = _median(
        [sum(j["self_ns"].values()) / j["dur_ns"] for j in jobs])
    return out
