"""Cold-start, per-verb benchmark for the wsat CLI.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: `src` goes on the path and nothing is
installed.  The workload's inputs are written from --seed before any timing;
the jobs then run one at a time (a closed loop with one job outstanding),
each in a forked child of a parent that has imported `wsat.cli` but never
called it.  A round is one pass over the workload's fixed job mix, and whole
rounds repeat while another one fits in --seconds.  Every output is checked
afterwards.  The last line of stdout is the result as JSON: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics from one
traced round with --trace 1.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import reference
from jobs import JobRun, output_hash, run_job, wsat_caches
from workloads import WORKLOADS, build_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 7
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it

# per-layer time metric -> the span whose self time it sums
SELF_TIMES = {
    "percolation.index_build_s": "percolation.index_build",
    "percolation.closure_s": "percolation.closure",
    "percolation.cert_write_s": "percolation.cert_write",
    "percolation.verify_s": "percolation.verify",
    "percolation.cert_parse_s": "percolation.cert_parse",
    "solver.exact_self_s": "solver.exact",
    "solver.upper_s": "solver.upper",
    "templates.closure_s": "templates.closure",
    "designs.cover_s": "designs.cover",
    "designs.verify_cover_s": "designs.verify_cover",
    "hypergraph.parse_s": "hypergraph.parse",
    "hypergraph.write_s": "hypergraph.write",
    "cli.self_s": "cli.main",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wsat" / "cli.py").is_file():
        print(f"perfbench: no wsat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        return _run(args, units, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, units: dict[str, str], work: Path) -> int:
    # a fresh HOME and cache directory per run, so nothing carries over
    home = work / "home"
    (home / ".cache").mkdir(parents=True)
    os.environ.update(HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"),
                      PYTHONPATH=str(SRC))
    jobs = build_jobs(args.workload, args.seed, work / "inputs")
    refs, setup = [], []  # the reference task is timed before every sample
    for _ in range(SETUP_SAMPLES):
        refs.append(reference.time_task())
        setup.append(_time_import(work))
    sys.path.insert(0, str(SRC))
    import wsat.cli  # noqa: F401  -- imported once, never called here

    threads = len(os.sched_getaffinity(0))
    argvs = [job.argv + ["--threads", str(threads)] for job in jobs]
    caches = wsat_caches()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "nproc": threads, "commit": _commit(), "jobs": len(jobs)}
    if args.trace:
        runs, metrics = _traced(jobs, argvs, work, caches, record)
    else:
        runs, raw = _timed(jobs, argvs, work, caches, args.seconds, refs, record)
        raw["setup_s"] = statistics.median(setup)
        speed = reference.host_speed(refs)
        metrics = {name: _at_speed(raw[name], units[name], speed) for name in units}
        record.update(raw_metrics=raw, host_speed=speed, reference_s=refs,
                      setup_samples_s=setup)
    metrics = {name: metrics[name] for name in units}
    record.update(digest=_digest(runs), metrics=metrics)
    _write_record(record)
    _report(record)
    failed = record["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


def _at_speed(value: float, unit: str, speed: float) -> float:
    """A raw figure as it would read on a host running at nominal speed."""
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _time_import(work: Path) -> float:
    """Wall time of a fresh interpreter that imports wsat.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wsat.cli"], cwd=work,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _timed(jobs, argvs, work, caches, seconds, refs, record):
    """Whole rounds while another fits in `seconds`; raw end-to-end figures.

    Only the first round's outputs are kept and checked in full; every later
    execution must reproduce its job's first output hash byte for byte.  The
    reference task's times, taken before every second job, go onto refs.
    """
    first: list[JobRun] = []
    walls, peak = [], 0.0
    mismatched = Counter()
    ref_s = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        for job, argv in zip(jobs, argvs):
            if job.id % 2 == 0:
                refs.append(reference.time_task())
                ref_s += refs[-1]
            run = run_job(argv, job.id, work / "jobs" / f"r{rounds}" / f"{job.id:03d}",
                          caches)
            run.output_hash = output_hash(run)
            walls.append(run.wall_s)
            peak = max(peak, run.maxrss_mb)
            if rounds == 0:
                first.append(run)
            else:
                mismatched[job.id] += run.output_hash != first[job.id].output_hash
                shutil.rmtree(run.job_dir)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    verdicts = _check(jobs, first, work)
    failed = 0
    for job in jobs:
        if verdicts[job.id] is not None:
            failed += rounds
        elif mismatched[job.id]:
            failed += mismatched[job.id]
            verdicts[job.id] = "output differs between rounds"
    record.update(rounds=rounds, loop_s=elapsed, job_walls_s=walls,
                  attempted=len(walls), failed=failed,
                  failures=_failures(jobs, verdicts),
                  job_runs=[_run_row(job, run) for job, run in zip(jobs, first)])
    raw = {"jobs_per_s": len(walls) / (elapsed - ref_s),
           "job_s.p50": statistics.median(walls),
           "job_s.p90": _p90(walls),
           "peak_rss_mb": peak}
    return first, raw


def _p90(values):
    if len(values) < P90_MIN_SAMPLES:
        raise RuntimeError(f"{len(values)} jobs are too few for a p90")
    return statistics.quantiles(values, n=10)[8]


def _traced(jobs, argvs, work, caches, record):
    """One round, each job run untraced and then traced; per-layer metrics.

    The untraced twin gives the tracing overhead and the reference output:
    tracing must not change a single byte.  Counts are exact and repeat for
    a given seed and program.
    """
    plain, traced = [], []
    for job, argv in zip(jobs, argvs):
        base = work / "jobs" / f"{job.id:03d}"
        plain.append(run_job(argv, job.id, base / "plain", caches))
        traced.append(run_job(argv, job.id, base / "traced", caches,
                              trace_out=base / "trace.json"))
    verdicts = _check(jobs, plain, work)
    self_s, incl_s, counts = defaultdict(float), defaultdict(float), Counter()
    aggregates = defaultdict(lambda: [0, 0.0])
    spans, missing = [], set()
    for job, p, t in zip(jobs, plain, traced):
        p.output_hash, t.output_hash = output_hash(p), output_hash(t)
        if verdicts[job.id] is None and p.output_hash != t.output_hash:
            verdicts[job.id] = "tracing changed the output"
        trace_file = t.job_dir.parent / "trace.json"
        if not trace_file.is_file():
            verdicts[job.id] = verdicts[job.id] or "traced job wrote no trace"
            continue
        trace = json.loads(trace_file.read_text())
        missing.update(trace["missing"])
        job_counts = Counter()
        for name, start, end, parent, child_s, found in trace["spans"]:
            self_s[name] += end - start - child_s
            incl_s[name] += end - start
            job_counts.update(found or {})
            spans.append([job.id, name, start, end, parent, child_s])
        for name, (calls, total) in trace["aggregates"].items():
            aggregates[name][0] += calls
            aggregates[name][1] += total
        counts.update(job_counts)
        builds = job_counts["percolation.index_builds"]
        if job.needs_index and builds == 0:
            verdicts[job.id] = "cold-state guard: no witness index was built"
        elif job.kind in ("closure", "exact") and builds != 1:
            verdicts[job.id] = f"cold-state guard: {builds} witness index builds"
    failures = _failures(jobs, verdicts)

    plain_s = sum(run.wall_s for run in plain)
    traced_s = sum(run.wall_s for run in traced)
    close_calls, close_s = aggregates["percolation.close"]
    values = {name: self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    values.update(counts)
    values.update({
        "percolation.close_s": close_s,
        "percolation.close_calls": close_calls,
        "solver.explored_per_s": (counts["solver.explored"] / incl_s["solver.exact"]
                                  if incl_s["solver.exact"] else 0.0),
        "constructions.self_s": sum(t for name, t in self_s.items()
                                    if name.startswith("constructions.")),
        "trace.overhead_frac": traced_s / plain_s - 1,
    })
    metrics = defaultdict(int, values)  # a layer that never ran reads 0
    needing = sum(job.needs_index for job in jobs)
    record.update(plain_s=plain_s, traced_s=traced_s, jobs_needing_index=needing,
                  attempted=2 * len(jobs), failed=2 * len(failures),
                  failures=failures,
                  self_s=dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
                  untraced_entry_points=sorted(missing), spans=spans,
                  job_runs=[_run_row(job, run) for job, run in zip(jobs, plain)])
    return plain, metrics


def _check(jobs, runs, work: Path) -> dict[int, str | None]:
    """Run the output checks in a forked child and collect its verdicts."""
    result = work / "verdicts.json"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import checks
            verdicts = checks.check_all(jobs, runs)
            result.write_text(json.dumps(list(verdicts.items())))
            code = 0
        except BaseException:
            # never return into the parent's code from the child
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the output checker crashed")
    return dict(json.loads(result.read_text()))


def _failures(jobs, verdicts) -> dict[str, str]:
    return {f"#{job.id} {job.label}": verdicts[job.id] for job in jobs
            if verdicts[job.id] is not None}


def _run_row(job, run: JobRun) -> dict:
    return {"id": job.id, "label": job.label, "exit": run.exit_code,
            "wall_s": run.wall_s, "cpu_s": run.cpu_s,
            "maxrss_mb": run.maxrss_mb}


def _digest(runs: list[JobRun]) -> str:
    """sha256 over every job's output hash, in job order."""
    return hashlib.sha256("".join(run.output_hash for run in runs).encode()).hexdigest()


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _write_record(record: dict) -> None:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RUNS / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                   f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1))
    record["path"] = str(path.relative_to(ROOT))


def _report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"python {record['python']}  nproc {record['nproc']}  "
          f"commit {record['commit'][:12]}")
    if record["trace"]:
        print(f"traced round: {record['jobs']} jobs, each untraced "
              f"({record['plain_s']:.2f} s) and traced ({record['traced_s']:.2f} s); "
              f"{record['jobs_needing_index']} need a witness index")
        print("self time by span:")
        for name, seconds in record["self_s"].items():
            print(f"  {name:36s} {seconds:10.4f} s")
        if record["untraced_entry_points"]:
            print("not traced:", ", ".join(record["untraced_entry_points"]))
    else:
        print(f"{record['rounds']} round(s) of {record['jobs']} jobs, "
              f"{record['attempted']} samples in {record['loop_s']:.2f} s; "
              f"host at {record['host_speed']:.3f} of nominal speed")
        print(f"  {'metric':36s} {'at nominal':>12s} {'raw':>12s}")
    raw = record.get("raw_metrics", {})
    for name, value in record["metrics"].items():
        print(f"  {name:36s} {value:12.6g}", f"{raw[name]:12.6g}" if raw else "")
    print(f"  failed_frac {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    for label, reason in record["failures"].items():
        print(f"  FAILED {label}: {reason}")
    print(f"output digest {record['digest']}")
    print(f"run record {record['path']}")


if __name__ == "__main__":
    sys.exit(main())
