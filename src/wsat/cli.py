"""Command-line surface: generate, close, solve, verify, tabulate.

Exit codes: 0 success, 1 negative verdict (not percolated / invalid
certificate), 2 inconclusive (budget or memory exhausted), 64 usage or
input error.
Runs with identical arguments produce byte-identical files and stdout; the
--threads flag is accepted for compatibility but the engines are serial and
their schedule is fixed, so it cannot affect any output.  Every generate
kind writes its files, then prints a summary line and its #BOUND / #RATIO
report lines, which its graph file also carries at the end.

argv is parsed by parse_args from one table, VERBS: each verb's positionals
and flags.  It reads argv as argparse did: a flag by its full name, a unique
prefix of it or NAME=VALUE; the last of a repeated flag wins; a negative
number is a value; "--" ends the flags.  Positionals may sit between flags.
-h or --help anywhere prints USAGE and exits 0.  A cold job thus loads
neither argparse nor the gettext and locale modules that argparse sets up.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
from functools import partial
from itertools import chain
from types import SimpleNamespace

from . import constructions as cons
from .designs import cover_to_text, greedy_cover, verify_cover
from .hypergraph import (
    FormatError,
    Hypergraph,
    Pattern,
    complete_graph,
    graph_from_text,
    graph_to_text,
)
from .percolation import (
    _blocks,
    certificate_to_text,
    closure,
    is_weakly_saturated,
    read_certificate,
    replay_steps,
)
from .solver import (DEFAULT_BUDGET, exact_or_upper, ratio_table, wsat_exact,
                     wsat_upper_witness)
from .templates import (
    template,
    template_closure,
    template_mappings,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class CLIError(Exception):
    pass


PATTERN_SHORTHANDS = "K<t>, K<t>^<r>, edge^<r>, triangle+pendant"


def parse_pattern_token(token: str) -> Pattern:
    """Built-in pattern shorthands; anything else must be a graph file."""
    if token == "triangle+pendant":
        return Pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
    if m := re.fullmatch(r"K(\d+)\^(\d+)", token):
        t, r = int(m.group(1)), int(m.group(2))
    elif m := re.fullmatch(r"K(\d+)", token):
        t, r = int(m.group(1)), 2
    elif m := re.fullmatch(r"edge\^(\d+)", token):
        t = r = int(m.group(1))
    else:
        raise CLIError(f"unknown pattern {token!r}; use a file or one of "
                       f"{PATTERN_SHORTHANDS}")
    if not t >= r >= 1:
        raise CLIError(f"pattern {token!r} has t={t}, r={r}; need t >= r >= 1")
    return Pattern(complete_graph(t, r))


def open_input(path_str: str):
    """An input file opened as UTF-8 text, each invalid byte read as U+FFFD so
    that its line fails to parse; a missing or unreadable file (a directory,
    say) is a usage error naming the path."""
    try:
        return open(path_str, encoding="utf-8", errors="replace")
    except FileNotFoundError:
        raise CLIError(f"no such file: {path_str}") from None
    except OSError as exc:
        raise CLIError(f"cannot read {path_str}: {exc.strerror}") from None


def read_input(path_str: str) -> str:
    with open_input(path_str) as file:
        return file.read()


def load_pattern(token: str) -> Pattern:
    if os.path.exists(token):
        return Pattern(graph_from_text(read_input(token)))
    return parse_pattern_token(token)


def load_graph(path_str: str) -> Hypergraph:
    return graph_from_text(read_input(path_str))


def pattern_hash(pattern: Pattern) -> str:
    return hashlib.sha256(graph_to_text(pattern.graph).encode()).hexdigest()[:12]


def _outdir(args) -> str:
    """The --output directory, made if missing ('' is the working
    directory); a path that cannot be a directory (an existing file, say)
    is a usage error naming it."""
    try:
        os.makedirs(args.output or ".", exist_ok=True)
    except OSError as exc:
        raise CLIError(f"cannot make directory {args.output}: {exc.strerror}") from None
    return args.output


def _write(out: str, name: str, text: str) -> None:
    with open(os.path.join(out, name), "w") as file:
        file.write(text)


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
    _write(out, "closure.txt", graph_to_text(result.closure))
    _write(out, "closure.cert", certificate_to_text(result.certificate))
    print(f"closure {label} n={g.n} r={g.r} start={g.edge_count} "
          f"added={len(result.certificate)} "
          f"percolated={str(result.percolated).lower()}")
    return EXIT_OK if result.percolated else EXIT_NEGATIVE


# -- generate: one builder per kind --------------------------------------------
#
# A builder returns (files, summary, reports, check): files maps each file
# name, in write order, to its text or to a graph (written with the report
# lines appended); reports: strings or BoundChecks; check: the engine's verdict.

def _gen_template(args):
    r, h, s = args.params
    g, special = template(r, h, s)
    bound = cons.BoundCheck("template_edge_count", g.edge_count,
                            math.comb(h, r) - math.comb(h - s, r - s) + 1,
                            relation="==")
    return ({"template.txt": g},
            f"generate template r={r} h={h} s={s} edges={g.edge_count} "
            f"special={','.join(map(str, special))}", [bound], True)


def _gen_cone(args):
    g = cons.cone_gadget(args.r, args.h, args.s, args.size_a, args.size_b)
    result = template_closure(g, args.h, args.s)
    bound = cons.cone_bound(g, args.h, args.s, args.size_a)
    return ({"cone.txt": g},
            f"generate cone n={g.n} r={g.r} edges={g.edge_count} "
            f"percolated={str(result.percolated).lower()}",
            [bound], result.percolated)


def _gen_spartite(args):
    g = cons.spartite_gadget(args.r, args.h, args.part_sizes)
    result = template_closure(g, args.h, len(args.part_sizes))
    return ({"spartite.txt": g},
            f"generate spartite n={g.n} r={g.r} edges={g.edge_count} "
            f"percolated={str(result.percolated).lower()}", [], result.percolated)


def _gen_percolate(args):
    params = args.r, args.h, args.s, args.l, args.t
    e1, e2 = cons.percolate_gadget(*params)
    g = Hypergraph(args.l * args.t, args.r, e1 | e2)
    result = template_closure(g, args.h, args.s)
    bound = cons.percolate_bound(e2, *params)
    return ({"percolate_e1.txt": graph_to_text(Hypergraph(g.n, g.r, e1)),
             "percolate_e2.txt": graph_to_text(Hypergraph(g.n, g.r, e2)),
             "percolate.txt": g},
            f"generate percolate n={g.n} r={g.r} e1={len(e1)} e2={len(e2)} "
            f"percolated={str(result.percolated).lower()}",
            [bound], result.percolated)


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
    _, m, clusters, k = cons.main_clusters(args.n, args.m1, s, pattern.h)
    cover = greedy_cover(clusters, k, s - 1, seed=args.seed)
    seed_graph = exact_or_upper(m, pattern, args.budget)[0]
    result = cons.main_construction(pattern, args.n, args.m1, seed_graph, cover)
    g = result.graph
    ok = is_weakly_saturated(g, pattern)
    seed_ratio = seed_graph.edge_count / m ** (s - 1)
    total_ratio = g.edge_count / args.n ** (s - 1)
    return ({"main_cover.txt": cover_to_text(cover), "main.txt": g},
            f"generate main n={args.n} m={m} blocks={len(cover.blocks)} "
            f"copies={result.copies_edge_count} extra={result.extra_edge_count} "
            f"percolated={str(ok).lower()}",
            [*result.bounds, f"#RATIO seed_edges_over_m^(s-1) {seed_ratio:.6f}",
             f"#RATIO total_edges_over_n^(s-1) {total_ratio:.6f}"], ok)


def _gen_clique_extremal(args):
    n, t, r = args.params
    g = cons.clique_extremal(n, t, r)
    bound = cons.clique_extremal_bound(g, t)
    ok = is_weakly_saturated(g, Pattern(complete_graph(t, r)))
    return ({"clique_extremal.txt": g},
            f"generate clique-extremal n={n} t={t} r={r} edges={g.edge_count} "
            f"percolated={str(ok).lower()}", [bound], ok)


def _gen_cover(args):
    n_pts, k, t = args.params
    design = greedy_cover(n_pts, k, t, seed=args.seed)
    ok = verify_cover(design)
    blocks = len(design.blocks)
    bound = cons.BoundCheck("cover_blocks", blocks, math.comb(n_pts, t))
    ratio = blocks * math.comb(k, t) / math.comb(n_pts, t)
    return ({"cover.txt": cover_to_text(design)},
            f"generate cover N={n_pts} k={k} t={t} blocks={blocks} "
            f"valid={str(ok).lower()} sampled={str(design.sampled).lower()}",
            [bound, f"#RATIO blocks_over_design_target {ratio:.6f}"], ok)


# kind -> (its arguments as the usage text shows them, builder), in usage
# order: the positional parameters, or each required flag and its value
GENERATE = {
    "template": ("r h s", _gen_template),
    "clique-extremal": ("n t r", _gen_clique_extremal),
    "cover": ("N k t", _gen_cover),
    "cone": ("--r R --s S --h H --size-a A --size-b B", _gen_cone),
    "spartite": ("--r R --h H --part-sizes A,B,...", _gen_spartite),
    "percolate": ("--r R --s S --h H --l L --t T", _gen_percolate),
    "s1": ("--pattern P --n N", _gen_s1),
    "main": ("--pattern P --n N --m1 M1", _gen_main),
}


def cmd_generate(args) -> int:
    out = _outdir(args)
    spec, build = GENERATE[args.kind]
    if spec[0] != "-" and len(args.params) != len(spec.split()):
        raise CLIError(f"generate {args.kind} needs: {spec}")
    missing = [flag for flag in spec.split()[::2] if flag[0] == "-"
               and getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        raise CLIError(f"generate {args.kind} requires {', '.join(missing)}")
    files, summary, reports, check = build(args)
    ok = check and all(b.holds for b in reports if isinstance(b, cons.BoundCheck))
    lines = [b.as_report() if isinstance(b, cons.BoundCheck) else b for b in reports]
    for name, content in files.items():
        if isinstance(content, Hypergraph):
            content = graph_to_text(content) + "".join(line + "\n" for line in lines)
        _write(out, name, content)
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
    if args.exact + args.upper + (args.table is not None) != 1:
        raise CLIError("give exactly one of --exact, --upper or --table N1..N2")
    pattern = load_pattern(args.pattern)
    hh = pattern_hash(pattern)
    if args.table is not None:
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
        value, witness, status = result.value, result.witness, "exact"
    else:
        witness = wsat_upper_witness(args.n, pattern)
        value, status = witness.edge_count, "upper"
    cert = closure(witness, pattern).certificate
    print(f"wsat {args.n} {pattern.r} {hh} {value} {status}")
    sys.stdout.write(graph_to_text(witness))
    _write(out, "witness.txt", graph_to_text(witness))
    _write(out, "witness.cert", certificate_to_text(cert))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    with open_input(args.certificate) as file:
        kind, n, r, blocks = read_certificate(iter(partial(file.read, 1 << 16), ""))
        # a template header for another graph gets the pattern kind's verdict
        if kind == "template" and (n, r) == (g.n, g.r):
            blocks = _blocks(template_mappings(pattern, r, chain.from_iterable(blocks)))
        check, count = replay_steps(g, pattern, n, r, blocks)
        # read on after a verdict: a malformed later line or template step
        # still ends the run with its FormatError or ValueError
        for _ in blocks:
            pass
    if check.ok:
        print(f"valid steps={count}")
        return EXIT_OK
    print(f"invalid at step {check.step}: {check.reason}")
    return EXIT_NEGATIVE


# -- argv ---------------------------------------------------------------------

USAGE = f"""\
usage: wsat closure GRAPH [PATTERN] [--template H S]
       wsat generate KIND [PARAMS ...] [FLAGS]
       wsat wsat N PATTERN (--exact | --upper | --table N1..N2)
       wsat verify GRAPH PATTERN CERTIFICATE

generate kinds and their arguments:
{chr(10).join(f"  {kind} {spec}" for kind, (spec, _) in GENERATE.items())}

wsat wsat --table prints one row per n in N1..N2 and does not read N.
Every command takes --output DIR (default .), --seed N (0), --threads T (1)
and --budget N ({DEFAULT_BUDGET}).  A flag may be cut to a unique prefix (--out DIR)
or written --name=value; -h or --help prints this text.  A pattern is a
graph file or one of {PATTERN_SHORTHANDS}.
Exit codes: 0 success, 1 negative verdict, 2 inconclusive, 64 usage error.
"""


def _int_list(token: str) -> tuple[int, ...]:
    return tuple(map(int, token.split(",")))


def _generate_kind(token: str) -> str:
    if token not in GENERATE:
        raise CLIError(f"argument kind: invalid choice {token!r} "
                       f"(choose from {', '.join(GENERATE)})")
    return token


# flag -> (type, arity, default); arity 0 is a switch, which defaults to
# False.  --help maps to None: it names no attribute.
COMMON_FLAGS = {"--output": (str, 1, "."), "--seed": (int, 1, 0),
                "--threads": (int, 1, 1), "--budget": (int, 1, DEFAULT_BUDGET),
                "--help": None}
_INT = (int, 1, None)
# verb -> (positionals, flags); a positional is (name, type, count), count
# 1, "?" (at most one) or "*" (any number), the required ones first
VERBS = {
    "closure": ((("graph", str, 1), ("pattern", str, "?")),
                {**COMMON_FLAGS, "--template": (int, 2, None)}),
    "generate": ((("kind", _generate_kind, 1), ("params", int, "*")),
                 {**COMMON_FLAGS, "--r": _INT, "--s": _INT, "--h": _INT,
                  "--size-a": _INT, "--size-b": _INT, "--l": _INT, "--t": _INT,
                  "--n": _INT, "--m1": _INT, "--part-sizes": (_int_list, 1, None),
                  "--pattern": (str, 1, None)}),
    "wsat": ((("n", int, 1), ("pattern", str, 1)),
             {**COMMON_FLAGS, "--exact": (bool, 0, False),
              "--upper": (bool, 0, False), "--table": (str, 1, None)}),
    "verify": ((("graph", str, 1), ("pattern", str, 1), ("certificate", str, 1)),
               COMMON_FLAGS),
}


def _flag(token: str, flags: dict):
    """(flag, inline value or None) if token names one of flags, else None.

    A flag is named by itself, by a unique prefix of it, or as NAME=VALUE;
    a token that names none is a value if it is "-", "--", a negative
    number or has a space in it, and an unknown flag otherwise.
    """
    if not token.startswith("-") or token in ("-", "--"):
        return None
    name, eq, inline = token.partition("=")
    if name not in flags and name.startswith("--"):
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise CLIError(f"ambiguous option: {name} could match "
                           f"{', '.join(matches)}")
        if matches:
            name = matches[0]
    if name in flags:
        return name, inline if eq else None
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:
        return None
    raise CLIError(f"unrecognized arguments: {token}")


def _convert(name: str, convert, token: str):
    try:
        return convert(token)
    except ValueError:
        raise CLIError(f"argument {name}: invalid value {token!r}") from None


def parse_args(argv) -> SimpleNamespace | None:
    """The attributes the cmd_* handlers read, or None if help is asked for.

    Raises CLIError on an unknown verb, flag or kind, a bad int, a flag
    without its values, or a missing or extra positional.
    """
    if "-h" in argv or "--help" in argv:
        return None
    verb = argv[0] if argv else ""
    if verb not in VERBS:
        if _flag(verb, {"--help": None}):
            return None
        raise CLIError(f"the first argument must be one of {', '.join(VERBS)}, "
                       f"got {verb!r}")
    positionals, flags = VERBS[verb]
    values = {"command": verb}
    values.update((flag[2:].replace("-", "_"), spec[2])
                  for flag, spec in flags.items() if spec)
    tokens, rest, i = [], argv[1:], 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token == "--":
            tokens += rest[i:]
            break
        hit = _flag(token, flags)
        if hit is None:
            tokens.append(token)
            continue
        flag, inline = hit
        if flag == "--help":
            return None
        convert, arity, _ = flags[flag]
        if inline is not None:
            if arity != 1:
                raise CLIError(f"argument {flag}: takes {arity} values, "
                               f"not {flag}={inline}")
            given = [inline]
        else:
            given = rest[i:i + arity]
            i += arity
            if len(given) < arity or any(t == "--" or _flag(t, flags) for t in given):
                raise CLIError(f"argument {flag}: expected {arity} value(s)")
        dest = flag[2:].replace("-", "_")
        given = [_convert(flag, convert, t) for t in given]
        values[dest] = True if arity == 0 else given[0] if arity == 1 else given
    missing = [name for name, _, count in positionals[len(tokens):] if count == 1]
    if missing:
        raise CLIError(f"the following arguments are required: {', '.join(missing)}")
    for name, convert, count in positionals:
        take = len(tokens) if count == "*" else 1
        given = [_convert(name, convert, t) for t in tokens[:take]]
        tokens = tokens[take:]
        values[name] = given if count == "*" else given[0] if given else None
    if tokens:
        raise CLIError(f"unrecognized arguments: {' '.join(tokens)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(USAGE)
            return EXIT_OK
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
    except MemoryError:
        print("wsat: error: out of memory", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
