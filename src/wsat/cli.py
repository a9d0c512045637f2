"""Command-line surface: generate, close, solve, verify, tabulate.

Exit codes: 0 success, 1 negative verdict (not percolated / invalid
certificate), 2 inconclusive (budget exhausted), 64 usage or input error.
Runs with identical arguments produce byte-identical files and stdout; the
--threads flag is accepted for compatibility but the engines are serial and
their schedule is fixed, so it cannot affect any output.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
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


def _write_graph(path: Path, g: Hypergraph, report_lines=()) -> None:
    text = graph_to_text(g)
    for line in report_lines:
        text += line + "\n"
    path.write_text(text)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--output", default=".", metavar="DIR")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--budget", type=int, default=10_000_000)
    common.add_argument("--format", choices=["text"], default="text")

    parser = _Parser(prog="wsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[common],
                       help="bootstrap closure of a graph under a pattern or template")
    p.add_argument("graph")
    p.add_argument("pattern", nargs="?")
    p.add_argument("--template", nargs=2, type=int, metavar=("H", "S"))

    p = sub.add_parser("generate", parents=[common],
                       help="build a construction, engine-check it, write files")
    p.add_argument("kind", choices=["template", "cone", "spartite", "percolate",
                                    "s1", "main", "clique-extremal", "cover"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--size-a", type=int, dest="size_a")
    p.add_argument("--size-b", type=int, dest="size_b")
    p.add_argument("--part-sizes", dest="part_sizes",
                   help="comma-separated part sizes")
    p.add_argument("--l", type=int, dest="clusters")
    p.add_argument("--t", type=int, dest="cluster_size")
    p.add_argument("--pattern")
    p.add_argument("--n", type=int)
    p.add_argument("--m1", type=int)
    p.add_argument("--eps", type=float, default=0.0)

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
    _write_graph(out / "closure.txt", result.closure)
    (out / "closure.cert").write_text(certificate_to_text(result.certificate))
    print(f"closure {label} n={g.n} r={g.r} start={g.edge_count} "
          f"added={len(result.certificate)} "
          f"percolated={str(result.percolated).lower()}")
    return EXIT_OK if result.percolated else EXIT_NEGATIVE


def _need(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise CLIError(f"generate {args.kind} requires {flags}")


def _emit(out: Path, filename: str, g: Hypergraph, summary: str, reports) -> None:
    lines = [b.as_report() if isinstance(b, cons.BoundCheck) else b for b in reports]
    _write_graph(out / filename, g, lines)
    print(summary)
    for line in lines:
        print(line)


def cmd_generate(args) -> int:
    out = _outdir(args)
    kind = args.kind

    if kind == "template":
        if len(args.params) != 3:
            raise CLIError("generate template needs: r h s")
        r, h, s = args.params
        g, special = template(r, h, s)
        expected = [cons.BoundCheck(
            "template_edge_count", g.edge_count,
            math.comb(h, r) - math.comb(h - s, r - s) + 1,
            relation="==")]
        _emit(out, "template.txt", g,
              f"generate template r={r} h={h} s={s} edges={g.edge_count} "
              f"special={','.join(map(str, special))}", expected)
        return EXIT_OK if expected[0].holds else EXIT_NEGATIVE

    if kind == "cone":
        _need(args, ["r", "s", "h", "size_a", "size_b"])
        spec = cons.ConeSpec(r=args.r, h=args.h, s=args.s,
                             size_a=args.size_a, size_b=args.size_b)
        g, result, bound = cons.check_cone(spec)
        _emit(out, "cone.txt", g,
              f"generate cone n={g.n} r={g.r} edges={g.edge_count} "
              f"percolated={str(result.percolated).lower()}", [bound])
        return EXIT_OK if result.percolated and bound.holds else EXIT_NEGATIVE

    if kind == "spartite":
        _need(args, ["r", "h", "part_sizes"])
        sizes = tuple(int(tok) for tok in args.part_sizes.split(","))
        spec = cons.SpartiteSpec(r=args.r, h=args.h, part_sizes=sizes)
        g, result = cons.check_spartite(spec)
        _emit(out, "spartite.txt", g,
              f"generate spartite n={g.n} r={g.r} edges={g.edge_count} "
              f"percolated={str(result.percolated).lower()}", [])
        return EXIT_OK if result.percolated else EXIT_NEGATIVE

    if kind == "percolate":
        _need(args, ["r", "s", "h", "clusters", "cluster_size"])
        spec = cons.PercolateSpec(r=args.r, h=args.h, s=args.s,
                                  clusters=args.clusters,
                                  cluster_size=args.cluster_size)
        e1, e2 = cons.percolate_gadget(spec)
        g = Hypergraph(spec.n, spec.r, e1 | e2)
        result = template_closure(g, spec.h, spec.s,
                                  phase_fn=cons.percolate_phase(spec))
        bound = cons.percolate_bound(spec)
        _write_graph(out / "percolate_e1.txt", Hypergraph(spec.n, spec.r, e1))
        _write_graph(out / "percolate_e2.txt", Hypergraph(spec.n, spec.r, e2))
        _emit(out, "percolate.txt", g,
              f"generate percolate n={g.n} r={g.r} e1={len(e1)} e2={len(e2)} "
              f"percolated={str(result.percolated).lower()}", [bound])
        return EXIT_OK if result.percolated and bound.holds else EXIT_NEGATIVE

    if kind == "s1":
        if args.pattern is None or args.n is None:
            raise CLIError("generate s1 requires --pattern and --n")
        pattern = load_pattern(args.pattern)
        g = cons.s1_construction(pattern, args.n)
        from .percolation import is_weakly_saturated
        ok = is_weakly_saturated(g, pattern)
        _emit(out, "s1.txt", g,
              f"generate s1 n={g.n} r={g.r} edges={g.edge_count} "
              f"percolated={str(ok).lower()}", [])
        return EXIT_OK if ok else EXIT_NEGATIVE

    if kind == "main":
        if args.pattern is None or args.n is None or args.m1 is None:
            raise CLIError("generate main requires --pattern, --n and --m1")
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
                             seed_graph=seed_graph, cover=cover, eps=args.eps)
        result = cons.main_construction(spec)
        reports = list(result.bounds)
        reports.append(f"#RATIO seed_edges_over_m^(s-1) {result.seed_ratio:.6f}")
        reports.append(f"#RATIO total_edges_over_n^(s-1) {result.total_ratio:.6f}")
        (out / "main_cover.txt").write_text(cover_to_text(cover))
        _emit(out, "main.txt", result.graph,
              f"generate main n={args.n} m={m} blocks={result.block_count} "
              f"copies={result.copies_edge_count} extra={result.extra_edge_count} "
              f"percolated={str(result.percolated).lower()}", reports)
        ok = result.percolated and all(b.holds for b in result.bounds)
        return EXIT_OK if ok else EXIT_NEGATIVE

    if kind == "clique-extremal":
        if len(args.params) != 3:
            raise CLIError("generate clique-extremal needs: n t r")
        n, t, r = args.params
        g = cons.clique_extremal(n, t, r)
        bound = cons.clique_extremal_bound(n, t, r)
        from .percolation import is_weakly_saturated
        ok = is_weakly_saturated(g, make_pattern(complete_graph(t, r)))
        _emit(out, "clique_extremal.txt", g,
              f"generate clique-extremal n={n} t={t} r={r} edges={g.edge_count} "
              f"percolated={str(ok).lower()}", [bound])
        return EXIT_OK if ok and bound.holds else EXIT_NEGATIVE

    if kind == "cover":
        if len(args.params) != 3:
            raise CLIError("generate cover needs: N k t")
        n_pts, k, t = args.params
        design = greedy_cover(n_pts, k, t, seed=args.seed)
        ok = verify_cover(design)
        bound = rodl_bound(n_pts, k, t)
        (out / "cover.txt").write_text(cover_to_text(design))
        print(f"generate cover N={n_pts} k={k} t={t} blocks={len(design.blocks)} "
              f"valid={str(ok).lower()} sampled={str(design.sampled).lower()}")
        print(f"#BOUND cover_blocks {len(design.blocks)} "
              f"{math.comb(n_pts, t)} true")
        print(f"#RATIO blocks_over_design_target "
              f"{float(len(design.blocks) / bound):.6f}")
        return EXIT_OK if ok else EXIT_NEGATIVE

    raise CLIError(f"unknown kind {kind!r}")


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
    _write_graph(out / "witness.txt", witness)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
