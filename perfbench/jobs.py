"""Running one CLI call in a forked child, as a cold process would.

The parent imports `wsat.cli` once and never calls into it, so every child
starts with empty caches, exactly like a fresh `wsat` process minus the
interpreter start-up.  The parent times a job from dispatch to the child's
exit; `os.wait4` gives the child's CPU time and peak RSS.
"""

from __future__ import annotations

import gc
import hashlib
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

# A job that runs this long is killed and counted as failed, which keeps a
# whole run inside its time limit even if the program hangs.
JOB_TIMEOUT_S = 120
EXIT_CRASHED = 70  # the child raised instead of returning an exit code


@dataclass
class JobRun:
    job_id: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    job_dir: Path
    output_hash: str = ""

    @property
    def stdout(self) -> str:
        return (self.job_dir / "stdout").read_text()


def wsat_caches() -> dict[str, object]:
    """Every lru_cache-wrapped function in the loaded wsat modules, by name.

    edge_universe and rank_table must be among them while the hypergraph
    module caches its universes; any other cache found is guarded as well.
    """
    caches = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "wsat" and not mod_name.startswith("wsat."):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def assert_cold(caches: dict[str, object]) -> None:
    """The cold-state guard: no wsat cache may hold anything before a fork."""
    warm = {name: fn.cache_info().currsize for name, fn in caches.items()
            if fn.cache_info().currsize}
    if warm:
        raise RuntimeError(f"wsat caches are warm in the benchmark parent: {warm}")


def run_job(argv: list[str], job_id: int, job_dir: Path, caches,
            trace_out: Path | None = None) -> JobRun:
    """Fork, run `wsat.cli.main(argv)` in the child inside job_dir, wait.

    Outputs land in job_dir/out; stdout and stderr in job_dir.  With
    trace_out set, the child installs the tracer first and writes its spans
    there.
    """
    out = job_dir / "out"
    out.mkdir(parents=True)
    assert_cold(caches)
    sys.stdout.flush()
    sys.stderr.flush()
    # Keep the child's collector off the parent's objects: a fresh process
    # would not have them, and scanning them copies every page they sit on.
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, job_dir, trace_out)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return JobRun(job_id, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status),
                  job_dir)


def _child(argv: list[str], job_dir: Path, trace_out: Path | None) -> None:
    code = EXIT_CRASHED
    try:
        os.chdir(job_dir)
        for fd, name in ((1, "stdout"), (2, "stderr")):
            target = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        signal.alarm(JOB_TIMEOUT_S)
        tracer = tracing.install() if trace_out is not None else None
        code = sys.modules["wsat.cli"].main(argv + ["--output", "out"])
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_out)
    except BaseException:
        # The child must never return into the parent's loop, whatever
        # happened; the traceback goes to the job's stderr file.
        traceback.print_exc()
        code = EXIT_CRASHED
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def output_hash(run: JobRun) -> str:
    """sha256 over the exit code, stdout and every output file (by name)."""
    h = hashlib.sha256()
    h.update(f"exit {run.exit_code}\n".encode())
    h.update((run.job_dir / "stdout").read_bytes())
    out = run.job_dir / "out"
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(f"\nfile {path.relative_to(out)}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()
