"""Output checks for every job, independent of the engine that made them.

The checks use wsat's parsers, its certificate replay (`verify_certificate`)
and its direct witness search (`creates_new_copy`), never the witness index
that the closure and solver run on.  They run in a forked child after the
timed loop, so the benchmark parent's caches stay cold.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

from wsat.designs import cover_from_text, verify_cover
from wsat.hypergraph import edge_universe, graph_from_text
from wsat.percolation import (
    certificate_from_text,
    clique_wsat_value,
    creates_new_copy,
    verify_certificate,
)
from wsat.templates import make_pattern


class CheckFailed(Exception):
    pass


def need(condition, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _read_graph(path: Path):
    need(path.is_file(), f"missing output {path.name}")
    return graph_from_text(path.read_text())


def _pattern(path: str):
    return make_pattern(graph_from_text(Path(path).read_text()))


def _replay(graph, pattern, cert_path: Path):
    """Replay a pattern certificate; return the edges it adds."""
    need(cert_path.is_file(), f"missing output {cert_path.name}")
    cert = certificate_from_text(cert_path.read_text())
    need(cert.kind == "pattern", f"certificate kind {cert.kind}")
    check = verify_certificate(graph, pattern, cert)
    need(check.ok, f"certificate fails at step {check.step}: {check.reason}")
    return [tuple(step.edge) for step in cert.steps]


def check_closure(job, run) -> None:
    need(run.exit_code in (0, 1), f"exit code {run.exit_code}")
    start = graph_from_text(Path(job.expect["graph"]).read_text())
    pattern = _pattern(job.expect["pattern"])
    out = run.job_dir / "out"
    closed = _read_graph(out / "closure.txt")
    added = _replay(start, pattern, out / "closure.cert")
    need(closed.edges == start.edges | set(added)
         and len(added) == closed.edge_count - start.edge_count,
         "closure file is not the start edges plus the certificate's edges")
    # the fixed point, by direct search instead of the witness index
    for e in edge_universe(closed.n, closed.r):
        if e not in closed.edges:
            need(creates_new_copy(closed, pattern, e) is None,
                 f"edge {e} is still addable")
    complete = closed.is_complete()
    need((run.exit_code == 0) == complete, "exit code disagrees with the closure")
    summary = run.stdout.split()
    need(f"added={len(added)}" in summary
         and f"percolated={str(complete).lower()}" in summary,
         f"summary line disagrees with the outputs: {run.stdout.strip()!r}")


def check_verify(job, run) -> None:
    bad_step = job.expect["bad_step"]
    if bad_step is None:
        need(run.exit_code == 0, f"exit code {run.exit_code} for a valid certificate")
        need(run.stdout == f"valid steps={job.expect['steps']}\n",
             f"stdout {run.stdout!r}")
    else:
        need(run.exit_code == 1, f"exit code {run.exit_code} for a corrupted certificate")
        need(run.stdout.startswith(f"invalid at step {bad_step}:"),
             f"expected failure at step {bad_step}, got {run.stdout!r}")


def check_exact(job, run) -> None:
    need(run.exit_code == 0, f"exit code {run.exit_code}")
    head, _, graph_text = run.stdout.partition("\n")
    fields = head.split()
    n = job.expect["n"]
    need(len(fields) == 6 and fields[0] == "wsat" and fields[1] == str(n)
         and fields[5] == "exact", f"result line {head!r}")
    value = int(fields[4])
    out = run.job_dir / "out"
    need((out / "witness.txt").read_text() == graph_text,
         "witness file differs from the printed witness")
    witness = graph_from_text(graph_text)
    pattern = _pattern(job.expect["pattern"])
    need(witness.n == n and witness.edge_count == value,
         f"witness has {witness.edge_count} edges, value is {value}")
    added = _replay(witness, pattern, out / "witness.cert")
    need(len(added) + witness.edge_count == comb(n, pattern.r),
         "witness certificate does not complete the graph")
    if pattern.graph.edge_count == comb(pattern.h, pattern.r):
        need(value == clique_wsat_value(n, pattern.h, pattern.r),
             f"value {value} differs from the clique formula")
    need(value == job.expect["value"],
         f"value {value}, known value {job.expect['value']}")


def check_generate(job, run) -> None:
    need(run.exit_code == 0, f"exit code {run.exit_code}")
    lines = run.stdout.splitlines()
    need(lines, "no summary line")
    verdicts = [tok for tok in lines[0].split()
                if tok.startswith(("percolated=", "valid="))]
    need(all(tok.endswith("=true") for tok in verdicts),
         f"summary line {lines[0]!r}")
    for line in lines:
        if line.startswith("#BOUND"):
            need(line.endswith(" true"), f"bound fails: {line!r}")
    out = run.job_dir / "out"
    for name in ("cover.txt", "main_cover.txt"):
        if (out / name).is_file():
            need(verify_cover(cover_from_text((out / name).read_text())),
                 f"{name} misses a t-subset")
    if job.expect["kind"] == "cover":
        need((out / "cover.txt").is_file(), "missing output cover.txt")


CHECKS = {"closure": check_closure, "verify": check_verify,
          "exact": check_exact, "generate": check_generate}


def check_all(jobs, runs) -> dict[int, str | None]:
    """Failure reason per job id, None where every check passed."""
    verdicts = {}
    for job, run in zip(jobs, runs):
        try:
            CHECKS[job.kind](job, run)
            verdicts[job.id] = None
        except CheckFailed as exc:
            verdicts[job.id] = str(exc)
        except Exception as exc:  # a malformed output must fail one job only
            verdicts[job.id] = f"{type(exc).__name__}: {exc}"
    _check_relabelings(jobs, runs, verdicts)
    return verdicts


def _check_relabelings(jobs, runs, verdicts) -> None:
    """Every relabeling of one exact instance gives one value and one witness."""
    first = {}
    for job, run in zip(jobs, runs):
        if job.kind != "exact" or verdicts[job.id] is not None:
            continue
        key = (job.expect["name"], job.expect["n"])
        answer = run.stdout.split()[4], (run.job_dir / "out" / "witness.txt").read_text()
        if first.setdefault(key, answer) != answer:
            verdicts[job.id] = f"relabeling of {key} changed the value or witness"
