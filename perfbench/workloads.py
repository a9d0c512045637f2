"""Seeded inputs and job mixes for the three workloads.

Everything here is plain stdlib: inputs are built as text from the seed,
without calling into wsat, so the program under test only ever sees files.
A workload is one fixed mix of jobs (the counts below never depend on the
seed); the seed picks relabelings, random graphs, certificate corruptions,
the job order and the `--seed` passed to `wsat generate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

WORKLOADS = ("closure", "exact", "construct")


@dataclass
class Job:
    """One CLI call and what its output must satisfy.

    kind is the verb family ("closure", "verify", "exact" or "generate");
    expect holds what the output checker needs (input edges, pattern file,
    expected verdict, ...).  needs_index marks jobs that must build a witness
    index of their own, which the traced run uses as its cold-state guard.
    """

    id: int
    kind: str
    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    needs_index: bool = False


def _complete(h: int, r: int) -> tuple[int, int, list[tuple[int, ...]]]:
    return h, r, list(combinations(range(h), r))


PATTERNS = {
    "K3": _complete(3, 2),
    "K4": _complete(4, 2),
    "K5": _complete(5, 2),
    "K4^3": _complete(4, 3),
    "triangle+pendant": (4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "K4-e": (4, 2, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "C4": (4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "W4": (5, 2, [(0, 1), (1, 2), (2, 3), (0, 3),
                  (0, 4), (1, 4), (2, 4), (3, 4)]),
}

# closure: (pattern, n, random edges, graphs).  The edge count is where about
# half of the random graphs percolate, measured once on the seed engine, so
# the mix holds both verdicts.  Sizes run up to about 1 s of witness-index
# build.  Only K4 n=11 is slower than K4 n=10, whose 14 graphs hold the
# 90th percentile, so it does not fall between two instance sizes.
CLOSURE_CASES = [
    ("K3", 10, 12, 3), ("K3", 13, 17, 3), ("K3", 16, 23, 3),
    ("K4", 8, 14, 3), ("K4", 10, 18, 14), ("K4", 11, 21, 3),
    ("K4^3", 7, 18, 3), ("K4^3", 9, 37, 3), ("K4^3", 10, 49, 3),
    ("triangle+pendant", 8, 4, 3), ("triangle+pendant", 10, 4, 3),
    ("C4", 8, 9, 3), ("C4", 10, 12, 3),
    ("C5", 6, 5, 3), ("C5", 7, 7, 3),
]

# verify: relabeled clique-extremal graphs (n, t, r) whose certificates have
# C(n - t + r, r) steps; a quarter of the copies of each case are corrupted
# at a seeded step.
VERIFY_CASES = [(50, 4, 2), (70, 5, 2), (100, 4, 2),
                (24, 5, 3), (28, 5, 3), (32, 4, 3)]
VERIFY_COPIES = 8

# exact: (pattern, n, relabelings).  The counts put the median inside the
# C4/C5 n=6 group and the 90th percentile inside the K4 n=6 group, so
# neither falls in a gap between two instance sizes.  K3 n=7, W4 n=6 and
# the slow tail (C4 and C5 on 7 vertices, K4^3 on 6) lie above both.
EXACT_CASES = [
    ("K4^3", 5, 9), ("K3", 6, 9), ("triangle+pendant", 6, 8),
    ("triangle+pendant", 7, 8), ("C4", 6, 16), ("C5", 6, 16),
    ("K4-e", 6, 12), ("K4", 6, 18), ("K3", 7, 2), ("W4", 6, 1),
    ("C4", 7, 1), ("C5", 7, 1), ("K4^3", 6, 1),
]

# Known wsat(n, H) for the exact instances: closed forms for complete
# patterns, and for the others the values the seed solver established.
EXACT_VALUES = {
    ("K3", 6): 5, ("K3", 7): 6, ("K4", 6): 9,
    ("K4^3", 5): 6, ("K4^3", 6): 10, ("W4", 6): 9, ("K4-e", 6): 6,
    ("C4", 6): 6, ("C4", 7): 7, ("C5", 6): 5, ("C5", 7): 6,
    ("triangle+pendant", 6): 3, ("triangle+pendant", 7): 3,
}

# construct: (argv after "generate", copies).  "@name" is a pattern file.
CONSTRUCT_CASES = [
    # template gadgets
    (["percolate", "--r", "3", "--s", "2", "--h", "4", "--l", "5", "--t", "5"], 2),
    (["percolate", "--r", "3", "--s", "2", "--h", "4", "--l", "6", "--t", "5"], 1),
    (["percolate", "--r", "3", "--s", "3", "--h", "4", "--l", "6", "--t", "5"], 3),
    (["percolate", "--r", "2", "--s", "2", "--h", "3", "--l", "6", "--t", "5"], 8),
    (["cone", "--r", "3", "--s", "2", "--h", "5", "--size-a", "18", "--size-b", "14"], 2),
    (["cone", "--r", "3", "--s", "2", "--h", "6", "--size-a", "20", "--size-b", "15"], 1),
    (["cone", "--r", "4", "--s", "2", "--h", "5", "--size-a", "12", "--size-b", "8"], 2),
    (["cone", "--r", "3", "--s", "3", "--h", "4", "--size-a", "16", "--size-b", "12"], 8),
    (["spartite", "--r", "3", "--h", "4", "--part-sizes", "14,14"], 2),
    (["spartite", "--r", "4", "--h", "5", "--part-sizes", "9,9"], 1),
    (["spartite", "--r", "4", "--h", "5", "--part-sizes", "8,8"], 2),
    (["spartite", "--r", "3", "--h", "5", "--part-sizes", "12,12,12"], 8),
    # covering designs; the last two take the sampled path (C(N, k) > 100k)
    (["cover", "12", "5", "2"], 12),
    (["cover", "18", "5", "2"], 2),
    (["cover", "16", "5", "3"], 1),
    (["cover", "22", "8", "2"], 1),
    (["cover", "40", "10", "1"], 2),
    # the composite construction, with exact and upper-bound seed graphs
    (["main", "--pattern", "@K3", "--n", "24", "--m1", "4"], 2),
    (["main", "--pattern", "@K3", "--n", "30", "--m1", "5"], 1),
    (["main", "--pattern", "@K4", "--n", "8", "--m1", "4"], 6),
    (["main", "--pattern", "@K4", "--n", "12", "--m1", "4"], 1),
    (["main", "--pattern", "@K4^3", "--n", "16", "--m1", "16"], 1),
    # clique-extremal examples
    (["clique-extremal", "8", "4", "2"], 6),
    (["clique-extremal", "9", "4", "2"], 2),
    (["clique-extremal", "10", "4", "3"], 2),
    (["clique-extremal", "7", "5", "2"], 2),
    # bare templates and the sparseness-1 seed
    (["template", "3", "5", "2"], 5),
    (["template", "4", "6", "3"], 5),
    (["template", "3", "6", "3"], 5),
    (["s1", "--pattern", "@triangle+pendant", "--n", "8"], 6),
]
# construct jobs that must build a witness index of their own
INDEXED_KINDS = ("main", "clique-extremal", "s1")


# -- text --------------------------------------------------------------------

def graph_text(n: int, r: int, edges) -> str:
    lines = [f"{n} {r}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(edges))
    return "\n".join(lines) + "\n"


def relabel(edges, perm) -> list[tuple[int, ...]]:
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


class _Inputs:
    """Writes input files under one directory and hands out their paths."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.rng = rng
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}-{stem}"
        path.write_text(text)
        return str(path)

    def pattern(self, name: str) -> str:
        """A pattern file, relabeled by a seeded vertex permutation."""
        h, r, edges = PATTERNS[name]
        perm = self.rng.sample(range(h), h)
        return self.write(f"pattern-{name}.txt", graph_text(h, r, relabel(edges, perm)))


# -- workloads ---------------------------------------------------------------

def _closure_jobs(inp: _Inputs) -> list[Job]:
    rng = inp.rng
    jobs = []
    for name, n, m, graphs in CLOSURE_CASES:
        r = PATTERNS[name][1]
        universe = list(combinations(range(n), r))
        for _ in range(graphs):
            edges = sorted(rng.sample(universe, m))
            graph = inp.write(f"graph-{name}-{n}.txt", graph_text(n, r, edges))
            pattern = inp.pattern(name)
            jobs.append(Job(0, "closure", f"closure {name} n={n}",
                            ["closure", graph, pattern],
                            {"graph": graph, "pattern": pattern},
                            needs_index=True))
    for n, t, r in VERIFY_CASES:
        corrupt = set(rng.sample(range(VERIFY_COPIES), VERIFY_COPIES // 4))
        for copy in range(VERIFY_COPIES):
            jobs.append(_verify_job(inp, n, t, r, corrupt=copy in corrupt))
    return jobs


def _verify_job(inp: _Inputs, n: int, t: int, r: int, corrupt: bool) -> Job:
    """A clique-extremal graph and a certificate built without the engine.

    Every edge avoiding the (t - r)-set S is addable at once, witnessed by
    the clique on S plus that edge, so any order of the missing edges is a
    valid certificate.  A corrupted certificate gives step j the witness of
    a later step k, whose image needs the still-absent edge of step k, so the
    replay must fail exactly at step j.
    """
    rng = inp.rng
    perm = rng.sample(range(n), n)
    core = sorted(perm[v] for v in range(t - r))
    rest = [perm[v] for v in range(t - r, n)]
    edges = [e for e in relabel(combinations(range(n), r), perm)
             if set(e) & set(core)]
    missing = [tuple(sorted(e)) for e in combinations(rest, r)]
    rng.shuffle(missing)
    mappings = [core + list(e) for e in missing]
    bad_step = None
    if corrupt:
        bad_step = rng.randrange(len(missing) // 2, len(missing) - 1)
        mappings[bad_step] = mappings[rng.randrange(bad_step + 1, len(missing))]
    lines = [f"CERT pattern {n} {r}"]
    for e, mapping in zip(missing, mappings):
        witness = " ".join(f"{v}->{u}" for v, u in enumerate(mapping))
        lines.append(f"{' '.join(map(str, e))} | 0 | {witness}")
    graph = inp.write(f"extremal-{n}-{t}-{r}.txt", graph_text(n, r, edges))
    cert = inp.write(f"extremal-{n}-{t}-{r}.cert", "\n".join(lines) + "\n")
    pattern = inp.write(f"pattern-K{t}^{r}.txt", graph_text(*_complete(t, r)))
    return Job(0, "verify", f"verify K{t}^{r} n={n} steps={len(missing)}",
               ["verify", graph, pattern, cert],
               {"steps": len(missing), "bad_step": bad_step})


def _exact_jobs(inp: _Inputs) -> list[Job]:
    jobs = []
    for name, n, copies in EXACT_CASES:
        for _ in range(copies):
            pattern = inp.pattern(name)
            jobs.append(Job(0, "exact", f"exact {name} n={n}",
                            ["wsat", str(n), pattern, "--exact"],
                            {"pattern": pattern, "name": name, "n": n,
                             "value": EXACT_VALUES[name, n]},
                            needs_index=True))
    return jobs


def _construct_jobs(inp: _Inputs) -> list[Job]:
    rng = inp.rng
    jobs = []
    for args, copies in CONSTRUCT_CASES:
        for _ in range(copies):
            argv = ["generate"] + [inp.pattern(a[1:]) if a.startswith("@") else a
                                   for a in args]
            argv += ["--seed", str(rng.randrange(2 ** 31))]
            label = "generate " + " ".join(a.lstrip("@") for a in args)
            jobs.append(Job(0, "generate", label, argv, {"kind": args[0]},
                            needs_index=args[0] in INDEXED_KINDS))
    return jobs


def build_jobs(workload: str, seed: int, input_dir: Path) -> list[Job]:
    """The workload's job mix with its inputs written under input_dir, in
    seeded order, ids numbering the order."""
    builders = {"closure": _closure_jobs, "exact": _exact_jobs,
                "construct": _construct_jobs}
    rng = random.Random(f"{workload}:{seed}")
    jobs = builders[workload](_Inputs(input_dir, rng))
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.id = i
    return jobs
