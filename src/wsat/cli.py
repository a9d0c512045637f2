"""Command-line surface: generate, close, solve, verify, tabulate.

Exit codes: 0 success, 1 negative verdict (not percolated / invalid
certificate), 2 inconclusive (budget exhausted), 64 usage or input error.
Runs with identical arguments produce byte-identical files and stdout; the
--threads flag is accepted for compatibility but the engines are serial and
their schedule is fixed, so it cannot affect any output.  Every generate
kind writes its files, then prints a summary line and its #BOUND / #RATIO
report lines, which its graph file also carries at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import constructions as cons
from .designs import cover_to_text, greedy_cover, rodl_bound, verify_cover
from .hypergraph import (
    FormatError,
    Hypergraph,
    Pattern,
    complete_graph,
    graph_from_text,
    graph_to_text,
)
from .percolation import (
    certificate_from_text,
    certificate_to_text,
    closure,
    is_weakly_saturated,
    verify_certificate,
)
from .solver import (
    EXACT_TABLE_UNIVERSE,
    ratio_table,
    wsat_exact,
    wsat_upper_witness,
)
from .templates import (
    make_pattern,
    template,
    template_cert_to_pattern_cert,
    template_closure,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


PATTERN_SHORTHANDS = "K<t>, K<t>^<r>, edge^<r>, triangle+pendant"


def parse_pattern_token(token: str) -> Pattern:
    """Built-in pattern shorthands; anything else must be a graph file."""
    if token == "triangle+pendant":
        return make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
    m = re.fullmatch(r"K(\d+)\^(\d+)", token)
    if m:
        t, r = int(m.group(1)), int(m.group(2))
        return make_pattern(complete_graph(t, r))
    m = re.fullmatch(r"K(\d+)", token)
    if m:
        return make_pattern(complete_graph(int(m.group(1)), 2))
    m = re.fullmatch(r"edge\^(\d+)", token)
    if m:
        r = int(m.group(1))
        return make_pattern(complete_graph(r, r))
    raise CLIError(f"unknown pattern {token!r}; use a file or one of "
                   f"{PATTERN_SHORTHANDS}")


def load_pattern(token: str) -> Pattern:
    path = Path(token)
    if path.exists():
        return make_pattern(graph_from_text(path.read_text()))
    return parse_pattern_token(token)


def load_graph(path_str: str) -> Hypergraph:
    path = Path(path_str)
    if not path.exists():
        raise CLIError(f"no such file: {path_str}")
    return graph_from_text(path.read_text())


def pattern_hash(pattern: Pattern) -> str:
    return hashlib.sha256(graph_to_text(pattern.graph).encode()).hexdigest()[:12]


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on the first main() call of a process."""
    common = _Parser(add_help=False)
    common.add_argument("--output", default=".", metavar="DIR")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--budget", type=int, default=10_000_000)

    parser = _Parser(prog="wsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[common],
                       help="bootstrap closure of a graph under a pattern or template")
    p.add_argument("graph")
    p.add_argument("pattern", nargs="?")
    p.add_argument("--template", nargs=2, type=int, metavar=("H", "S"))

    p = sub.add_parser("generate", parents=[common],
                       help="build a construction, engine-check it, write files")
    p.add_argument("kind", choices=list(GENERATE))
    p.add_argument("params", nargs="*", type=int)
    for flag in ("--r", "--s", "--h", "--size-a", "--size-b", "--l", "--t",
                 "--n", "--m1"):
        p.add_argument(flag, type=int)
    p.add_argument("--part-sizes", help="comma-separated part sizes")
    p.add_argument("--pattern")

    p = sub.add_parser("wsat", parents=[common],
                       help="exact value, upper bound, or ratio table")
    p.add_argument("n", type=int)
    p.add_argument("pattern")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--upper", action="store_true")
    mode.add_argument("--table", metavar="N1..N2")

    p = sub.add_parser("verify", parents=[common],
                       help="independently replay a certificate")
    p.add_argument("graph")
    p.add_argument("pattern")
    p.add_argument("certificate")
    return parser


def cmd_closure(args) -> int:
    g = load_graph(args.graph)
    if (args.pattern is None) == (args.template is None):
        raise CLIError("give exactly one of PATTERN or --template H S")
    if args.template is not None:
        h, s = args.template
        result = template_closure(g, h, s)
        label = f"template h={h} s={s}"
    else:
        pattern = load_pattern(args.pattern)
        result = closure(g, pattern)
        label = f"pattern {pattern_hash(pattern)}"
    out = _outdir(args)
    (out / "closure.txt").write_text(graph_to_text(result.closure))
    (out / "closure.cert").write_text(certificate_to_text(result.certificate))
    print(f"closure {label} n={g.n} r={g.r} start={g.edge_count} "
          f"added={len(result.certificate)} "
          f"percolated={str(result.percolated).lower()}")
    return EXIT_OK if result.percolated else EXIT_NEGATIVE


# -- generate: one builder per kind --------------------------------------------
#
# A builder returns (files, summary, reports, verdict): files maps each file
# name, in write order, to its text or to a graph (written with the report
# lines appended); reports are strings or BoundChecks.

def _gen_template(args):
    r, h, s = args.params
    g, special = template(r, h, s)
    bound = cons.BoundCheck("template_edge_count", g.edge_count,
                            math.comb(h, r) - math.comb(h - s, r - s) + 1,
                            relation="==")
    return ({"template.txt": g},
            f"generate template r={r} h={h} s={s} edges={g.edge_count} "
            f"special={','.join(map(str, special))}", [bound], bound.holds)


def _gen_cone(args):
    spec = cons.ConeSpec(r=args.r, h=args.h, s=args.s,
                         size_a=args.size_a, size_b=args.size_b)
    g, result, bound = cons.check_cone(spec)
    return ({"cone.txt": g},
            f"generate cone n={g.n} r={g.r} edges={g.edge_count} "
            f"percolated={str(result.percolated).lower()}",
            [bound], result.percolated and bound.holds)


def _gen_spartite(args):
    sizes = tuple(int(tok) for tok in args.part_sizes.split(","))
    spec = cons.SpartiteSpec(r=args.r, h=args.h, part_sizes=sizes)
    g, result = cons.check_spartite(spec)
    return ({"spartite.txt": g},
            f"generate spartite n={g.n} r={g.r} edges={g.edge_count} "
            f"percolated={str(result.percolated).lower()}", [], result.percolated)


def _gen_percolate(args):
    spec = cons.PercolateSpec(r=args.r, h=args.h, s=args.s,
                              clusters=args.l, cluster_size=args.t)
    g, e2, result, bound = cons.check_percolate(spec)
    e1 = g.edges - e2
    return ({"percolate_e1.txt": graph_to_text(Hypergraph(g.n, g.r, e1)),
             "percolate_e2.txt": graph_to_text(Hypergraph(g.n, g.r, e2)),
             "percolate.txt": g},
            f"generate percolate n={g.n} r={g.r} e1={len(e1)} e2={len(e2)} "
            f"percolated={str(result.percolated).lower()}",
            [bound], result.percolated and bound.holds)


def _gen_s1(args):
    pattern = load_pattern(args.pattern)
    g = cons.s1_construction(pattern, args.n)
    ok = is_weakly_saturated(g, pattern)
    return ({"s1.txt": g},
            f"generate s1 n={g.n} r={g.r} edges={g.edge_count} "
            f"percolated={str(ok).lower()}", [], ok)


def _gen_main(args):
    pattern = load_pattern(args.pattern)
    s = pattern.s
    if s < 2:
        raise CLIError("generate main needs a pattern of sparseness >= 2")
    c = cons._ceil_root(args.m1, s - 1)
    m = c ** (s - 1)
    if args.n % c != 0:
        raise CLIError(f"--n must be a multiple of the cluster size {c}")
    clusters = args.n // c
    cover = greedy_cover(clusters, c ** (s - 2), s - 1, seed=args.seed)
    seed_result = wsat_exact(m, pattern, args.budget) \
        if math.comb(m, pattern.r) <= EXACT_TABLE_UNIVERSE else None
    if seed_result is not None and seed_result.status == "exact":
        seed_graph = seed_result.witness
    else:
        _, seed_graph = wsat_upper_witness(m, pattern)
    spec = cons.MainSpec(pattern=pattern, n=args.n, m=m, m1=args.m1,
                         seed_graph=seed_graph, cover=cover)
    result = cons.main_construction(spec)
    reports = list(result.bounds)
    reports.append(f"#RATIO seed_edges_over_m^(s-1) {result.seed_ratio:.6f}")
    reports.append(f"#RATIO total_edges_over_n^(s-1) {result.total_ratio:.6f}")
    return ({"main_cover.txt": cover_to_text(cover), "main.txt": result.graph},
            f"generate main n={args.n} m={m} blocks={result.block_count} "
            f"copies={result.copies_edge_count} extra={result.extra_edge_count} "
            f"percolated={str(result.percolated).lower()}",
            reports, result.percolated and all(b.holds for b in result.bounds))


def _gen_clique_extremal(args):
    n, t, r = args.params
    g = cons.clique_extremal(n, t, r)
    bound = cons.clique_extremal_bound(g, t)
    ok = is_weakly_saturated(g, make_pattern(complete_graph(t, r)))
    return ({"clique_extremal.txt": g},
            f"generate clique-extremal n={n} t={t} r={r} edges={g.edge_count} "
            f"percolated={str(ok).lower()}", [bound], ok and bound.holds)


def _gen_cover(args):
    n_pts, k, t = args.params
    design = greedy_cover(n_pts, k, t, seed=args.seed)
    ok = verify_cover(design)
    blocks = len(design.blocks)
    bound = cons.BoundCheck("cover_blocks", blocks, math.comb(n_pts, t))
    ratio = float(blocks / rodl_bound(n_pts, k, t))
    return ({"cover.txt": cover_to_text(design)},
            f"generate cover N={n_pts} k={k} t={t} blocks={blocks} "
            f"valid={str(ok).lower()} sampled={str(design.sampled).lower()}",
            [bound, f"#RATIO blocks_over_design_target {ratio:.6f}"],
            ok and bound.holds)


# kind -> (required arguments, builder); a string names the positional
# parameters in order, a tuple lists the required flags
GENERATE = {
    "template": ("r h s", _gen_template),
    "cone": (("--r", "--s", "--h", "--size-a", "--size-b"), _gen_cone),
    "spartite": (("--r", "--h", "--part-sizes"), _gen_spartite),
    "percolate": (("--r", "--s", "--h", "--l", "--t"), _gen_percolate),
    "s1": (("--pattern", "--n"), _gen_s1),
    "main": (("--pattern", "--n", "--m1"), _gen_main),
    "clique-extremal": ("n t r", _gen_clique_extremal),
    "cover": ("N k t", _gen_cover),
}


def cmd_generate(args) -> int:
    out = _outdir(args)
    required, build = GENERATE[args.kind]
    if isinstance(required, str):
        if len(args.params) != len(required.split()):
            raise CLIError(f"generate {args.kind} needs: {required}")
    else:
        missing = [flag for flag in required
                   if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise CLIError(f"generate {args.kind} requires {', '.join(missing)}")
    files, summary, reports, ok = build(args)
    lines = [b.as_report() if isinstance(b, cons.BoundCheck) else b for b in reports]
    for name, content in files.items():
        if isinstance(content, Hypergraph):
            content = graph_to_text(content) + "".join(line + "\n" for line in lines)
        (out / name).write_text(content)
    print(summary)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _parse_range(token: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", token)
    if not m:
        raise CLIError(f"range must look like 3..8, got {token!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise CLIError(f"empty range {token!r}")
    return range(lo, hi + 1)


def cmd_wsat(args) -> int:
    pattern = load_pattern(args.pattern)
    hh = pattern_hash(pattern)
    if args.table:
        for row in ratio_table(pattern, _parse_range(args.table), args.budget):
            print(f"ratio {row.n} {row.value} {row.ratio:.6f} {row.method}")
        return EXIT_OK
    out = _outdir(args)
    if args.exact:
        result = wsat_exact(args.n, pattern, args.budget)
        if result.status != "exact":
            print(f"wsat {args.n} {pattern.r} {hh} - inconclusive")
            print(f"# excluded edge counts up to {result.excluded_up_to} "
                  f"within budget {args.budget}")
            return EXIT_INCONCLUSIVE
        value, witness, cert = result.value, result.witness, result.certificate
        status = "exact"
    else:
        value, witness = wsat_upper_witness(args.n, pattern)
        cert = closure(witness, pattern).certificate
        status = "upper"
    print(f"wsat {args.n} {pattern.r} {hh} {value} {status}")
    sys.stdout.write(graph_to_text(witness))
    (out / "witness.txt").write_text(graph_to_text(witness))
    (out / "witness.cert").write_text(certificate_to_text(cert))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    cert_path = Path(args.certificate)
    if not cert_path.exists():
        raise CLIError(f"no such file: {args.certificate}")
    cert = certificate_from_text(cert_path.read_text())
    if cert.kind == "template":
        cert = template_cert_to_pattern_cert(cert, pattern)
    check = verify_certificate(g, pattern, cert)
    if check.ok:
        print(f"valid steps={len(cert)}")
        return EXIT_OK
    print(f"invalid at step {check.step}: {check.reason}")
    return EXIT_NEGATIVE


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads < 1:
            raise CLIError("--threads must be at least 1")
        if args.budget < 1:
            raise CLIError("--budget must be positive")
        handler = {"closure": cmd_closure, "generate": cmd_generate,
                   "wsat": cmd_wsat, "verify": cmd_verify}[args.command]
        return handler(args)
    except CLIError as exc:
        print(f"wsat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"wsat: format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"wsat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
