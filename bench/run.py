"""Run one benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload farey-float --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The run is a single-process, single-client closed loop: jobs run one
after another until `--seconds` have passed, each job's inputs drawn
from the seed.  A warm-up job runs first and is not counted.  With
`--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` every job runs twice, untraced and traced in
alternating order, and the last line holds the per-layer metrics of the
traced passes.

Times are reported in reference seconds (see `bench/reference.py`):
each measured interval is scaled by the speed of the machine measured
in the same process around it.  Wall times are kept in the details.

Spans are written to `.bench_work/` at exit.  Each run can append its
result and details to a JSON-lines file (`--record`), which
`bench/compare.py` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402

bench.use_checkout_source()

from bench import inputs, tracing, workloads  # noqa: E402
from bench.reference import Reference  # noqa: E402

#: (metric, unit) of the untraced run, in BENCHMARK.json order
END_TO_END = [
    ("job_s.p50", "s"), ("job_s.tail", "s"), ("balls_per_s", "balls/s"),
    ("pack_s.p50", "s"), ("uncloud_s.p50", "s"), ("geodesic_s.p50", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
PHASES = ("pack", "uncloud", "geodesic")
#: jobs whose outputs go into the outputs digest; every run completes more
DIGEST_JOBS = 10
#: setup_s is timed in a fresh interpreter after every SETUP_EVERY-th job,
#: so its samples spread over the run like the jobs do, and at least
#: SETUP_MIN times
SETUP_EVERY = 4
SETUP_MIN = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import horoshadow.cli as c; "
              "c.build_parser(); print(c.__file__, time.perf_counter() - t)")
WORK = bench.ROOT / ".bench_work"


@dataclass
class JobResult:
    dur: float                          # reference seconds
    wall: float                         # seconds
    balls: int
    phases: Counter
    items: list[str]
    failures: list[str]
    attempted: int
    trace: dict = field(default_factory=dict)


def execute(job, tracer=None) -> tuple[list, float]:
    """Run the job's ops in order, each timed; returns
    [(op, seconds, result, error)] and the job's wall time."""
    results = []
    if tracer is not None:
        tracer.enter(tracing.JOB_SPAN)
    t0 = time.perf_counter()
    for op in job.ops:
        start = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as exc:  # an op failure is data, the run goes on
            res, err = None, f"{type(exc).__name__}: {exc}"
        results.append((op, time.perf_counter() - start, res, err))
    dur = time.perf_counter() - t0
    if tracer is not None:
        tracer.leave()
    return results, dur


def run_job(job, ref: Reference, tracer=None, index: int = 0) -> JobResult:
    """Execute the job, traced when a tracer is given, then check its
    outputs with the wrappers removed."""
    if tracer is None:
        (results, wall), scale = ref.scale(lambda: execute(job))
    else:
        tracer.new_job(index)
        with tracing.installed(tracer):
            (results, wall), scale = ref.scale(lambda: execute(job, tracer))
        tracer.counts["serialize.doc_bytes"] = sum(p.stat().st_size for p in job.docs)
    phases: Counter = Counter()
    items, failures = [], []
    for op, secs, res, err in results:
        phases[op.phase] += secs * scale
        if err is None:
            try:
                items.append(f"{op.name}={op.check(res)}")
            except Exception as exc:  # a check that cannot run is a failed check
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{op.name}: {err}")
    return JobResult(wall * scale, wall, job.balls, phases, items, failures, len(job.ops),
                     tracer.job_stats(scale) if tracer is not None else {})


def setup_sample(ref: Reference) -> float:
    """One fresh interpreter's `import horoshadow.cli` plus
    `build_parser()`, the program's own set-up, timed inside it, in
    reference seconds."""
    env = dict(os.environ, PYTHONPATH=str(bench.SRC))
    out, scale = ref.scale(lambda: subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=bench.ROOT,
        capture_output=True, text=True, timeout=60, check=True))
    path, secs = out.stdout.split()
    if Path(path).resolve().parent != bench.SRC / "horoshadow":
        raise SystemExit(f"bench: set-up imported {path}, not the checkout")
    return float(secs) * scale


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    w = workloads.WORKLOADS[name]
    ref = Reference()
    sizes = inputs.ladder(random.Random(f"{name}:{seed}:ladder"), w.ladder)
    run_job(w.make_job(min(w.ladder), random.Random(f"{name}:{seed}:warm-up"), work), ref)
    tracer = tracing.Tracer() if trace else None
    plain, traced, setups = [], [], []
    if not trace:
        setup_sample(ref)  # untimed: fills the file cache and bytecode caches
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(plain)
        job = w.make_job(next(sizes), random.Random(f"{name}:{seed}:{i}"), work)
        if not trace:
            plain.append(run_job(job, ref))
            if i % SETUP_EVERY == 0:
                setups.append(setup_sample(ref))
            continue
        if i % 2:
            traced.append(run_job(job, ref, tracer, i))
            plain.append(run_job(job, ref))
        else:
            plain.append(run_job(job, ref))
            traced.append(run_job(job, ref, tracer, i))
        if traced[-1].items != plain[-1].items and not traced[-1].failures:
            traced[-1].failures.append("traced outputs differ from untraced outputs")
    while not trace and len(setups) < SETUP_MIN:
        setups.append(setup_sample(ref))
    return plain, traced, statistics.median(setups) if setups else None, tracer


def percentile_tail(durs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    jobs beyond it; the maximum when there are fewer than eleven jobs."""
    xs = sorted(durs)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(plain: list[JobResult], setup: float) -> dict[str, float]:
    durs = [r.dur for r in plain]
    tail, _ = percentile_tail(durs)
    out = {
        "job_s.p50": statistics.median(durs),
        "job_s.tail": tail,
        "balls_per_s": sum(r.balls for r in plain) / sum(durs),
    }
    for phase in PHASES:
        out[f"{phase}_s.p50"] = statistics.median(r.phases[phase] for r in plain)
    out["setup_s"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(plain: list[JobResult], traced: list[JobResult]) -> dict[str, float]:
    out = tracing.layer_metrics([r.trace for r in traced])
    out["trace.overhead_ratio"] = statistics.median(
        t.dur / p.dur for t, p in zip(traced, plain)) - 1
    return out


def digest(results: list[JobResult]) -> str:
    h = hashlib.sha256()
    for r in results[:DIGEST_JOBS]:
        h.update("\n".join(r.items).encode() + b"\n--\n")
    return h.hexdigest()[:16]


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update({m: u for m, u, *_ in tracing.PER_LAYER + tracing.TRACE_METRICS})
    return out


def one(args) -> int:
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced, setup, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    everything = plain + traced
    failures = [f for r in everything for f in r.failures]
    attempted = sum(r.attempted for r in everything)
    if args.trace:
        values = per_layer(plain, traced)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(plain, setup)
    unit = units()
    _, pct = percentile_tail([r.dur for r in plain])
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "jobs": len(plain), "tail_percentile": round(pct, 1),
            "fail_ratio": len(failures) / attempted, "outputs_digest": digest(plain),
            "wall_job_s.p50": statistics.median(r.wall for r in plain),
            "reference_scale.p50": statistics.median(r.dur / r.wall for r in plain),
            "digest_jobs": min(len(plain), DIGEST_JOBS), "failures": failures[:5]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()}}
    for f in failures[:5]:
        print(f"bench: FAILED {f}", file=sys.stderr)
    for k, v in values.items():
        print(f"  {args.workload:14s} {k:30s} {v:14.6g} {unit[k]}", file=sys.stderr)
    print(f"  {args.workload:14s} {'fail_ratio':30s} {info['fail_ratio']:14.6g} failed/attempted "
          f"({len(failures)}/{attempted}); {len(plain)} jobs, tail = p{pct:.1f}, "
          f"outputs {info['outputs_digest']}", file=sys.stderr)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result and details to this JSON-lines file")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}, all")
    return one(args)


if __name__ == "__main__":
    sys.exit(main())
