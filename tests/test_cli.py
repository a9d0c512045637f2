import argparse
import hashlib
import io
import os
import pkgutil
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsat import constructions as cons
from wsat.cli import (
    COMMON_FLAGS,
    GENERATE,
    USAGE,
    VERBS,
    _int_list,
    main,
    parse_args,
    parse_pattern_token,
)
from wsat.designs import CoverDesign
from wsat.hypergraph import (
    FormatError,
    Hypergraph,
    complete_graph,
    graph_from_text,
    graph_to_text,
)
from wsat.percolation import (
    certificate_from_text,
    certificate_to_text,
    closure,
    read_certificate,
    verify_certificate,
)
from wsat.templates import (
    make_pattern,
    template_cert_to_pattern_cert,
    template_closure,
    template_minus,
)
from test_percolation import mutated_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(path: Path, g: Hypergraph) -> str:
    path.write_text(graph_to_text(g))
    return str(path)


STAR4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])


def test_pattern_shorthands():
    assert parse_pattern_token("K4").graph == complete_graph(4, 2)
    assert parse_pattern_token("K4^3").graph == complete_graph(4, 3)
    assert parse_pattern_token("edge^3").graph == complete_graph(3, 3)
    tp = parse_pattern_token("triangle+pendant")
    assert tp.h == 4 and tp.s == 1
    with pytest.raises(Exception):
        parse_pattern_token("Q7")


@pytest.mark.parametrize("argv", [["wsat", "5", "K0", "--exact"],
                                  ["wsat", "5", "K1", "--exact"],
                                  ["wsat", "4", "K3^5", "--upper"]])
def test_shorthand_with_t_below_r_names_the_token(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert f"pattern '{argv[2]}'" in err and "Traceback" not in err


def test_closure_command(tmp_path, capsys):
    gpath = write_graph(tmp_path / "star.txt", STAR4)
    code, out, _ = run(capsys, "closure", gpath, "K3", "--output", str(tmp_path / "o"))
    assert code == 0
    assert "percolated=true" in out and "added=3" in out
    closed = graph_from_text((tmp_path / "o" / "closure.txt").read_text())
    assert closed == complete_graph(4, 2)
    assert (tmp_path / "o" / "closure.cert").read_text().startswith("CERT pattern 4 2")


def test_closure_negative_verdict(tmp_path, capsys):
    gpath = write_graph(tmp_path / "edge.txt", Hypergraph(4, 2, [(0, 1)]))
    code, out, _ = run(capsys, "closure", gpath, "K3", "--output", str(tmp_path / "o"))
    assert code == 1
    assert "percolated=false" in out


def test_closure_complete_graph_empty_cert(tmp_path, capsys):
    gpath = write_graph(tmp_path / "k4.txt", complete_graph(4, 2))
    code, out, _ = run(capsys, "closure", gpath, "K3", "--output", str(tmp_path / "o"))
    assert code == 0 and "added=0" in out


def test_closure_usage_errors(tmp_path, capsys):
    gpath = write_graph(tmp_path / "g.txt", STAR4)
    code, _, err = run(capsys, "closure", gpath)
    assert code == 64 and "exactly one" in err
    # PATTERN is checked against --template before GRAPH is read
    assert run(capsys, "closure", str(tmp_path / "nope.txt")) == (
        64, "", "wsat: error: give exactly one of PATTERN or --template H S\n")
    code, _, err = run(capsys, "closure", str(tmp_path / "nope.txt"), "K3")
    assert code == 64
    # uniformity mismatch is named
    code, _, err = run(capsys, "closure", gpath, "K4^3",
                       "--output", str(tmp_path / "o"))
    assert code == 64 and "uniformity" in err


def test_format_error_has_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n1 0\n")
    code, _, err = run(capsys, "closure", str(bad), "K3",
                       "--output", str(tmp_path / "o"))
    assert code == 64 and "line 2" in err


def test_undecodable_input_gets_a_line_number(tmp_path, capsys):
    gpath = write_graph(tmp_path / "star.txt", STAR4)
    out = str(tmp_path / "o")
    cert = closure(STAR4, parse_pattern_token("K3")).certificate
    cert_lines = certificate_to_text(cert).encode().split(b"\n")
    cert_lines[2] = b"\xff" + cert_lines[2][1:]
    bad_graph = tmp_path / "bad_graph.txt"
    bad_graph.write_bytes(b"4 2\n0 1\n0 2\n\xff\xfe 3\n")
    bad_pattern = tmp_path / "bad_pattern.txt"
    bad_pattern.write_bytes(b"3 2\n0 1\n0 \xff2\n1 2\n")
    bad_cert = tmp_path / "bad.cert"
    bad_cert.write_bytes(b"\n".join(cert_lines))
    for argv, line in [(["closure", str(bad_graph), "K3"], 4),
                       (["closure", gpath, str(bad_pattern)], 3),
                       (["verify", gpath, "K3", str(bad_cert)], 3)]:
        code, _, err = run(capsys, *argv, "--output", out)
        assert code == 64 and f"line {line}:" in err, err
    # an invalid byte inside a comment line is read and skipped like any other
    commented = tmp_path / "commented.txt"
    commented.write_bytes(graph_to_text(STAR4).encode() + b"# \xff\n")
    assert run(capsys, "closure", str(commented), "K3", "--output", out)[0] == 0


def test_generate_clique_extremal(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "clique-extremal", "5", "3", "2",
                       "--output", str(tmp_path))
    assert code == 0
    assert "#BOUND clique_extremal_edges 4 4 true" in out
    g = graph_from_text((tmp_path / "clique_extremal.txt").read_text())
    assert g.edge_count == 4


def test_generate_cover(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "cover", "6", "3", "2",
                       "--output", str(tmp_path))
    assert code == 0 and "valid=true" in out
    text = (tmp_path / "cover.txt").read_text()
    assert text.startswith("6 3 2\n")
    assert "#BOUND cover_blocks 7 15 true" in out


def test_generate_cover_bound_failure_exits_negative(tmp_path, capsys,
                                                     monkeypatch):
    import wsat.cli as cli
    every = tuple(combinations(range(4), 2))
    # a valid cover with one block repeated: C(4, 2) + 1 blocks
    monkeypatch.setattr(cli, "greedy_cover", lambda N, k, t, seed=0:
                        CoverDesign(N, k, t, every + every[:1]))
    code, out, _ = run(capsys, "generate", "cover", "4", "2", "2",
                       "--output", str(tmp_path))
    assert "valid=true" in out
    assert "#BOUND cover_blocks 7 6 false" in out
    assert code == 1


# one small instance of each generate kind, as argv after "generate"
GENERATE_ARGV = {
    "template": ["template", "3", "5", "2"],
    "cone": ["cone", "--r", "2", "--s", "2", "--h", "3", "--size-a", "4",
             "--size-b", "1"],
    "spartite": ["spartite", "--r", "2", "--h", "3", "--part-sizes", "4,4"],
    "percolate": ["percolate", "--r", "2", "--s", "2", "--h", "3", "--l", "3",
                  "--t", "3"],
    "s1": ["s1", "--pattern", "triangle+pendant", "--n", "5"],
    "main": ["main", "--pattern", "K3", "--n", "12", "--m1", "4"],
    "clique-extremal": ["clique-extremal", "5", "3", "2"],
    "cover": ["cover", "6", "3", "2"],
}


@pytest.mark.parametrize("kind, target, bound", [
    ("template", "template", "template_edge_count"),
    ("cone", "cone_bound", "cone_extra_edges"),
    ("percolate", "percolate_bound", "percolate_extra_edges"),
    ("clique-extremal", "clique_extremal_bound", "clique_extremal_edges"),
    ("main", "percolate_bound", "percolate_extra_edges"),
])
def test_generate_failed_bound_exits_negative(tmp_path, capsys, monkeypatch,
                                              kind, target, bound):
    """A bound that fails makes the verdict negative although the engine's
    check passes."""
    import wsat.cli as cli
    if target == "template":
        real_template = cli.template

        def template_minus_one(r, h, s):
            g, special = real_template(r, h, s)
            return Hypergraph(g.n, g.r, g.sorted_edges[1:]), special

        monkeypatch.setattr(cli, "template", template_minus_one)
    else:
        real_bound = getattr(cons, target)

        def failing(*args):
            check = real_bound(*args)
            return cons.BoundCheck(check.name, check.lhs, check.lhs - 1, check.relation)

        monkeypatch.setattr(cons, target, failing)
    code, out, _ = run(capsys, "generate", *GENERATE_ARGV[kind],
                       "--output", str(tmp_path))
    assert code == 1
    assert re.search(rf"^#BOUND {bound} \d+ -?\d+ false$", out, re.M), out
    assert kind == "template" or "percolated=true" in out


@pytest.mark.parametrize("kind, target, verdict", [
    ("cone", "template_closure", "percolated"),
    ("spartite", "template_closure", "percolated"),
    ("percolate", "template_closure", "percolated"),
    ("s1", "is_weakly_saturated", "percolated"),
    ("main", "is_weakly_saturated", "percolated"),
    ("clique-extremal", "is_weakly_saturated", "percolated"),
    ("cover", "verify_cover", "valid"),
])
def test_generate_failed_check_exits_negative(tmp_path, capsys, monkeypatch,
                                              kind, target, verdict):
    """An engine check that fails makes the verdict negative although every
    bound holds."""
    import wsat.cli as cli
    if target == "template_closure":
        # the engine itself, run on the empty graph, which does not percolate
        real_closure = cli.template_closure
        monkeypatch.setattr(cli, target, lambda g, h, s: real_closure(
            Hypergraph(g.n, g.r), h, s))
    else:
        monkeypatch.setattr(cli, target, lambda *args: False)
    code, out, _ = run(capsys, "generate", *GENERATE_ARGV[kind],
                       "--output", str(tmp_path))
    assert code == 1
    assert f" {verdict}=false" in out.splitlines()[0]
    assert all(line.endswith(" true") for line in out.splitlines()
               if line.startswith("#BOUND"))


def test_generate_cover_k_equals_t_finishes(tmp_path):
    """With k = t every block covers its own t-subset only, so the cover is
    every t-subset.  C(86, 3) = 102,340 is past the exhaustive limit: run as
    sampled rounds, this cover would draw 10k candidates per t-subset."""
    src = str(Path(__import__("wsat").__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wsat.cli; sys.exit(wsat.cli.main())",
         "generate", "cover", "86", "3", "3", "--output", "out"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(
        "generate cover N=86 k=3 t=3 blocks=102340 valid=true sampled=true\n")


def test_generate_percolate(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "percolate", "--r", "2", "--s", "2",
                       "--h", "3", "--l", "3", "--t", "3", "--output", str(tmp_path))
    assert code == 0
    assert "percolated=true" in out and "#BOUND percolate_extra_edges" in out
    for name in ("percolate.txt", "percolate_e1.txt", "percolate_e2.txt"):
        assert (tmp_path / name).exists()
    union = graph_from_text((tmp_path / "percolate.txt").read_text())
    e1 = graph_from_text((tmp_path / "percolate_e1.txt").read_text())
    e2 = graph_from_text((tmp_path / "percolate_e2.txt").read_text())
    assert union.edges == e1.edges | e2.edges


def test_generate_template_cone_spartite_s1(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "template", "3", "5", "2",
                       "--output", str(tmp_path))
    assert code == 0 and "edges=8" in out

    code, out, _ = run(capsys, "generate", "cone", "--r", "2", "--s", "2", "--h", "3",
                       "--size-a", "4", "--size-b", "1", "--output", str(tmp_path))
    assert code == 0 and "#BOUND cone_extra_edges 3 18 true" in out

    code, out, _ = run(capsys, "generate", "spartite", "--r", "2", "--h", "3",
                       "--part-sizes", "4,4", "--output", str(tmp_path))
    assert code == 0 and "percolated=true" in out

    code, out, _ = run(capsys, "generate", "s1", "--pattern", "triangle+pendant",
                       "--n", "5", "--output", str(tmp_path))
    assert code == 0 and "edges=6" in out


def test_generate_main(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "main", "--pattern", "K3",
                       "--n", "12", "--m1", "4", "--output", str(tmp_path))
    assert code == 0
    assert "#BOUND copies_union 9 9 true" in out
    assert (tmp_path / "main.txt").exists()
    assert (tmp_path / "main_cover.txt").exists()


def test_generate_param_errors(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "clique-extremal", "5", "3")
    assert code == 64
    code, _, err = run(capsys, "generate", "cone", "--r", "2", "--s", "2", "--h", "3",
                       "--size-a", "2", "--size-b", "5", "--output", str(tmp_path))
    assert code == 64 and "size_b" in err.replace("-", "_")
    code, out, err = run(capsys, "generate", "cone", "--r", "2", "--s", "2", "--h", "3",
                         "--size-a", "4", "--size-b", "-1", "--output", str(tmp_path))
    assert (code, out) == (64, "") and "size_b" in err.replace("-", "_")
    assert "Traceback" not in err and not (tmp_path / "cone.txt").exists()
    # the cluster arithmetic of generate main names the flag at fault
    for n, m1, flag in (("0", "0", "--n"), ("12", "0", "--m1"), ("13", "4", "--n")):
        code, _, err = run(capsys, "generate", "main", "--pattern", "K3", "--n", n,
                           "--m1", m1, "--output", str(tmp_path))
        assert code == 64 and flag in err and "Traceback" not in err
    assert "multiple" in err


def test_generate_main_refuses_small_clusters_before_building(tmp_path, capsys,
                                                              monkeypatch):
    """c = ceil(sqrt(9)) = 3 is below h = 5: refused before a sampled cover
    on 100 points or a seed is built."""
    import wsat.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("built before the layout was checked")

    monkeypatch.setattr(cli, "greedy_cover", must_not_run)
    monkeypatch.setattr(cli, "exact_or_upper", must_not_run)
    assert run(capsys, "generate", "main", "--pattern", "K5^3", "--n", "300",
               "--m1", "9", "--output", str(tmp_path)) == (
        64, "", "wsat: error: cluster size 3 below h=5\n")
    assert not any(tmp_path.iterdir())


def _cone(r, s, h, a, b):
    return ["cone", "--r", r, "--s", s, "--h", h, "--size-a", a, "--size-b", b]


def _percolate(r, s, h, clusters, size):
    return ["percolate", "--r", r, "--s", s, "--h", h, "--l", clusters, "--t", size]


@pytest.mark.parametrize("argv, message", [
    (_cone("2", "2", "1", "4", "1"), "need h >= r >= s >= 2, got h=1, r=2, s=2"),
    (_cone("2", "3", "3", "4", "1"), "need h >= r >= s >= 2, got h=3, r=2, s=3"),
    (_cone("2", "1", "3", "4", "1"), "need h >= r >= s >= 2, got h=3, r=2, s=1"),
    (_cone("2", "2", "3", "2", "5"), "need size_b <= size_a, got 5 > 2"),
    (_cone("2", "2", "3", "2", "1"), "need size_a >= h, got 2 < 3"),
    (_cone("2", "2", "3", "4", "-1"), "need size_b >= 0, got -1"),
    (["spartite", "--r", "2", "--h", "3", "--part-sizes", "4"],
     "need r >= s >= 2 parts, got r=2, s=1"),
    (["spartite", "--r", "2", "--h", "3", "--part-sizes", "4,4,4"],
     "need r >= s >= 2 parts, got r=2, s=3"),
    (["spartite", "--r", "3", "--h", "2", "--part-sizes", "4,4"],
     "need h >= r, got h=2 < r=3"),
    (["spartite", "--r", "2", "--h", "3", "--part-sizes", "2,4"],
     "every part needs at least h=3 vertices, got sizes (2, 4)"),
    (_percolate("2", "2", "1", "3", "3"), "need h >= r >= s >= 2, got h=1, r=2, s=2"),
    (_percolate("2", "3", "3", "3", "3"), "need h >= r >= s >= 2, got h=3, r=2, s=3"),
    (_percolate("2", "1", "3", "3", "3"), "need h >= r >= s >= 2, got h=3, r=2, s=1"),
    (_percolate("2", "2", "3", "1", "4"), "need at least s=2 clusters, got 1"),
    (_percolate("2", "2", "3", "3", "2"), "cluster size 2 below h=3"),
])
def test_gadget_parameter_errors_are_named(tmp_path, capsys, argv, message):
    assert run(capsys, "generate", *argv, "--output", str(tmp_path)) == (
        64, "", f"wsat: error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_generate_output_rereads_through_closure(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "cone", "--r", "2", "--s", "2", "--h", "3",
                     "--size-a", "4", "--size-b", "2", "--output", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "closure", str(tmp_path / "cone.txt"),
                       "--template", "3", "2", "--output", str(tmp_path / "c"))
    assert code == 0 and "percolated=true" in out


def test_wsat_exact_and_upper(tmp_path, capsys):
    code, out, _ = run(capsys, "wsat", "5", "K3", "--exact",
                       "--output", str(tmp_path))
    assert code == 0
    line = out.splitlines()[0].split()
    assert line[0] == "wsat" and line[1] == "5" and line[2] == "2"
    assert line[4] == "4" and line[5] == "exact"
    witness = graph_from_text((tmp_path / "witness.txt").read_text())
    assert witness.edge_count == 4

    code, out, _ = run(capsys, "wsat", "5", "K4^3", "--exact",
                       "--output", str(tmp_path))
    assert code == 0 and out.splitlines()[0].split()[4] == "6"

    code, out, _ = run(capsys, "wsat", "4", "edge^2", "--exact",
                       "--output", str(tmp_path))
    assert code == 0 and out.splitlines()[0].split()[4] == "0"

    code, out, _ = run(capsys, "wsat", "6", "K3", "--upper",
                       "--output", str(tmp_path))
    assert code == 0 and out.splitlines()[0].split()[4:] == ["5", "upper"]


def test_wsat_budget_exit_code(tmp_path, capsys):
    code, out, _ = run(capsys, "wsat", "6", "K3", "--exact", "--budget", "5",
                       "--output", str(tmp_path))
    assert code == 2 and "inconclusive" in out


def _cap_address_space():
    """Run in the child before exec: a 200 MB address space, so the
    C(120, 3), C(200, 3) and C(400, 3) universes below cannot be built."""
    limit = 200 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [["closure", "one.txt", "K4^3", "--budget", "10"],
                                  ["wsat", "200", "K4^3", "--upper"]])
def test_out_of_memory_is_inconclusive(tmp_path, argv):
    (tmp_path / "one.txt").write_text("120 3\n0 1 2\n")
    src = str(Path(__import__("wsat").__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wsat.cli; sys.exit(wsat.cli.main())", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "wsat: error: out of memory\n"  # and no traceback


def test_cover_past_universe_cap_is_refused(tmp_path):
    # k = t returns the colex-ordered t-subsets, C(400, 3) > MAX_UNIVERSE of
    # them: refused before any is built, so the capped child never runs out
    src = str(Path(__import__("wsat").__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wsat.cli; sys.exit(wsat.cli.main())",
         "generate", "cover", "400", "3", "3"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=60)
    assert done.returncode == 64, done.stderr
    assert "exceeds the configured limit" in done.stderr


def test_wsat_table(capsys):
    code, out, _ = run(capsys, "wsat", "0", "K3", "--table", "3..6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ratio 3 2 0.666667 exact"
    assert lines[-1] == "ratio 6 5 0.833333 exact"
    # an empty range is an error, not a silent --upper
    code, out, err = run(capsys, "wsat", "6", "K3", "--table=")
    assert code == 64 and out == "" and "range" in err
    # value / n^(s-1) is undefined at n = 0 unless s = 1
    code, out, err = run(capsys, "wsat", "5", "K3", "--table", "0..4")
    assert (code, out) == (64, "")
    assert err == "wsat: error: ratio value / n^(s-1) is undefined at n = 0 for s=2\n"
    code, out, err = run(capsys, "wsat", "1", "edge^1", "--table", "0..2")
    assert (code, err) == (0, "")
    assert out == ("ratio 0 0 0.000000 exact\nratio 1 0 0.000000 exact\n"
                   "ratio 2 0 0.000000 exact\n")


def test_verify_roundtrip_and_tamper(tmp_path, capsys):
    gpath = write_graph(tmp_path / "star.txt", STAR4)
    run(capsys, "closure", gpath, "K3", "--output", str(tmp_path))
    cert = tmp_path / "closure.cert"
    code, out, _ = run(capsys, "verify", gpath, "K3", str(cert))
    assert code == 0 and "valid" in out

    # tamper with one witness mapping entry
    lines = cert.read_text().splitlines()
    lines[1] = lines[1].replace("->0", "->3")
    tampered = tmp_path / "tampered.cert"
    tampered.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", gpath, "K3", str(tampered))
    assert code == 1 and "invalid at step 0" in out


def test_verify_template_certificate_pipeline(tmp_path, capsys):
    tm = template_minus(2, 4, 2)
    gpath = write_graph(tmp_path / "tminus.txt", tm)
    run(capsys, "closure", gpath, "--template", "4", "2", "--output", str(tmp_path))
    code, out, _ = run(capsys, "verify", gpath, "K4",
                       str(tmp_path / "closure.cert"))
    assert code == 0 and "valid" in out

    # parameter mismatch: triangle pattern against a template on 4 vertices
    code, _, err = run(capsys, "verify", gpath, "K3",
                       str(tmp_path / "closure.cert"))
    assert code == 64


# the library gadget behind each golden template gadget; all three have
# h = 3 and s = 2
TEMPLATE_GADGETS = {
    "cone": lambda: cons.cone_gadget(2, 3, 2, 4, 2),
    "spartite": lambda: cons.spartite_gadget(2, 3, (4, 4)),
    "percolate": lambda: Hypergraph(9, 2, frozenset().union(
        *cons.percolate_gadget(2, 3, 2, 3, 3))),
}


@pytest.mark.parametrize("kind", sorted(TEMPLATE_GADGETS))
def test_gadget_closure_has_one_certificate(tmp_path, capsys, kind):
    out = str(tmp_path)
    assert run(capsys, *GOLDEN_COMMANDS[kind], "--output", out)[0] == 0
    assert run(capsys, "generate", "template", "2", "3", "2", "--output", out)[0] == 0
    gpath = str(tmp_path / f"{kind}.txt")
    assert run(capsys, "closure", gpath, "--template", "3", "2", "--output", out)[0] == 0
    cert = tmp_path / "closure.cert"
    result = template_closure(TEMPLATE_GADGETS[kind](), 3, 2)
    assert cert.read_text() == certificate_to_text(result.certificate)
    code, stdout, _ = run(capsys, "verify", gpath, str(tmp_path / "template.txt"),
                          str(cert))
    assert code == 0 and stdout.startswith("valid")


def test_malformed_certificate_is_usage_error(tmp_path, capsys):
    gpath = write_graph(tmp_path / "star.txt", STAR4)
    bad = tmp_path / "bad.cert"
    for text, line_no in [
        ("CERT pattern 4 2\n0 1 | zero | 0->0 1->1 2->2\n", 2),
        ("CERT pattern 4 2\n1 2 | 0 | 0->0 0->1 1->2\n", 2),
        ("CERT pattern -5 2\n", 1),
    ]:
        bad.write_text(text)
        code, _, err = run(capsys, "verify", gpath, "K3", str(bad))
        assert code == 64 and f"line {line_no}" in err


K4 = make_pattern(complete_graph(4, 2))
K4_GRAPH = Hypergraph(6, 2, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)])
K4_CERT = certificate_to_text(closure(K4_GRAPH, K4).certificate)  # no steps
# every edge through the core {0, 1} of K_7: the other 10 edges percolate
K4_EXTREMAL = Hypergraph(7, 2, [e for e in combinations(range(7), 2) if e[0] < 2])
K4_EXTREMAL_CERT = certificate_to_text(closure(K4_EXTREMAL, K4).certificate)
# the one missing edge of T(2, 4, 2) closes through a template copy
K4_TEMPLATE_GRAPH = template_minus(2, 4, 2)
K4_TEMPLATE_CERT = certificate_to_text(
    template_closure(K4_TEMPLATE_GRAPH, 4, 2).certificate)
# clique_extremal(36, 4, 2) relabelled by v -> 7v + 3 mod 36: 561 steps,
# more than two replay blocks
K4_LONG = Hypergraph(36, 2, [tuple(sorted((7 * v + 3) % 36 for v in e))
                             for e in cons.clique_extremal(36, 4, 2).edges])
K4_LONG_CERT = certificate_to_text(closure(K4_LONG, K4).certificate)
VERIFY_BASES = {K4_CERT: K4_GRAPH, K4_EXTREMAL_CERT: K4_EXTREMAL,
                K4_TEMPLATE_CERT: K4_TEMPLATE_GRAPH, K4_LONG_CERT: K4_LONG}


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    return {base: write_graph(root / f"graph{i}.txt", g)
            for i, (base, g) in enumerate(VERIFY_BASES.items())}, root / "mutant.cert"


def expected_verify(g, pattern, text):
    """(exit code, stdout) of wsat verify by the materialized path: parse the
    whole certificate, convert a template one, then replay it with
    verify_certificate.  A template header for another graph gets the
    pattern kind's verdict, before any conversion; a conversion ValueError
    is exit 64."""
    cert = certificate_from_text(text)
    if cert.kind == "template":
        if (cert.n, cert.r) != (g.n, g.r):
            return 1, (f"invalid at step None: certificate is for n={cert.n} "
                       f"r={cert.r}, graph has n={g.n} r={g.r}\n")
        try:
            cert = template_cert_to_pattern_cert(cert, pattern)
        except ValueError:
            return 64, ""
    check = verify_certificate(g, pattern, cert)
    if check:
        return 0, f"valid steps={len(cert)}\n"
    return 1, f"invalid at step {check.step}: {check.reason}\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(VERIFY_BASES)).flatmap(
    lambda base: st.tuples(st.just(base), mutated_text(base))))
def test_verify_mutated_certificate_never_raises(verify_inputs, case):
    graphs, cert = verify_inputs
    base, text = case
    cert.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", graphs[base], "K4", str(cert)])
    try:
        expected = expected_verify(VERIFY_BASES[base], K4, text)
    except FormatError as exc:
        # a template step on an earlier line that fails conversion ends the
        # streamed run first
        assert code == 64 and (f"line {exc.line_no}:" in err.getvalue() or
                               err.getvalue().startswith("wsat: error: step "))
    else:
        assert (code, out.getvalue()) == expected, err.getvalue()


def test_streamed_verify_matches_the_materialized_path(tmp_path, capsys):
    gpath = write_graph(tmp_path / "graph.txt", K4_EXTREMAL)
    cert = tmp_path / "c.cert"
    header, *steps = K4_EXTREMAL_CERT.splitlines()
    malformed = "0 x | 0 | 0->0"

    def verify(*lines, graph=gpath, pattern="K4"):
        text = "\n".join(lines) + "\n"
        cert.write_text(text)
        return run(capsys, "verify", graph, pattern, str(cert)), text

    # replay fails at step 1 (its edge is present), a later line is malformed
    failing = [header, steps[0], "0 1 | 0 | 0->0 1->1 2->2 3->3", *steps[1:]]
    (code, out, _), _ = verify(*failing)
    assert (code, out) == (1, "invalid at step 1: edge (0, 1) already present\n")
    (code, out, err), _ = verify(*failing, malformed)
    assert code == 64 and out == "" and f"line {len(failing) + 1}:" in err
    # a header for another n, then a malformed line
    (code, out, _), _ = verify("CERT pattern 8 2", *steps)
    assert (code, out) == (1, "invalid at step None: certificate is for n=8 r=2, "
                              "graph has n=7 r=2\n")
    (code, out, err), _ = verify("CERT pattern 8 2", *steps, malformed)
    assert code == 64 and out == "" and f"line {len(steps) + 2}:" in err
    # comment and blank lines between the steps
    (code, out, _), text = verify(header, "# first", steps[0], "", "  ",
                                  *steps[1:3], "# more", *steps[3:], "")
    assert (code, out) == expected_verify(K4_EXTREMAL, K4, text)
    assert out == f"valid steps={len(steps)}\n"
    # a template certificate streams through template_mappings
    tm = template_minus(2, 4, 2)
    tpath = write_graph(tmp_path / "tminus.txt", tm)
    run(capsys, "closure", tpath, "--template", "4", "2", "--output", str(tmp_path))
    template_lines = (tmp_path / "closure.cert").read_text().splitlines()
    (code, out, _), text = verify(*template_lines, graph=tpath)
    assert (code, out) == expected_verify(tm, K4, text)
    assert code == 0 and len(template_lines) > 1
    (code, _, err), _ = verify(*template_lines, "0 1 | 0 | W={0,1}", graph=tpath)
    assert code == 64 and f"line {len(template_lines) + 1}:" in err


@pytest.mark.parametrize("kind,steps", [
    ("pattern", ""),
    ("pattern", "0 1 2 | 0 | 0->0 1->1 2->2\n"),
    ("template", ""),
    ("template", "0 1 2 | 0 | W={0,1,2} Z={0,1}\n"),
    ("template", "1 2 3 | 0 | W={1,2,3} Z={1,4,5}\n"),  # would fail conversion
])
def test_verify_certificate_for_another_r_is_a_negative_verdict(tmp_path, capsys,
                                                              kind, steps):
    """A header for r=3 against a 2-graph, with a pattern of the graph's r:
    the same verdict for either kind, with or without steps."""
    graph = write_graph(tmp_path / "star.txt", STAR4)
    text = f"CERT {kind} 4 3\n{steps}"
    (tmp_path / "c.cert").write_text(text)
    code, out, err = run(capsys, "verify", graph, "K3", str(tmp_path / "c.cert"))
    assert (code, out, err) == (1, "invalid at step None: certificate is for "
                                   "n=4 r=3, graph has n=4 r=2\n", "")
    assert (code, out) == expected_verify(STAR4, parse_pattern_token("K3"), text)


@pytest.mark.parametrize("kind,steps", [
    ("pattern", ""),
    ("pattern", "0 1 | 0 | 0->0 1->1 2->2 3->3\n"),
    ("template", ""),
    ("template", "1 2 | 0 | W={0,1,2,3} Z={1,2}\n"),
])
def test_verify_pattern_of_another_r_names_the_graph(tmp_path, capsys, kind, steps):
    """A 3-uniform pattern against a 2-graph, with a header for the graph:
    one usage error for either kind, naming the pattern's and the graph's r."""
    graph = write_graph(tmp_path / "star.txt", STAR4)
    (tmp_path / "c.cert").write_text(f"CERT {kind} 4 2\n{steps}")
    code, out, err = run(capsys, "verify", graph, "K4^3", str(tmp_path / "c.cert"))
    assert (code, out, err) == (64, "", "wsat: error: uniformity mismatch: "
                                        "pattern r=3, graph r=2\n")


@pytest.mark.parametrize("step,reason", [
    ("3 4 | 0 | W={3,3,4} Z={3,4}", "W must be an h-set, got (3, 3, 4)"),
    ("3 4 | 0 | W={0,3,4} Z={0,4}", "need Z ⊆ edge ⊆ W"),
    ("3 4 | 0 | W={2,3,4} Z={3,3}", "Z must be an s-set, got (3, 3)"),
])
def test_verify_malformed_template_witness_is_usage_error(tmp_path, capsys,
                                                         step, reason):
    run(capsys, "generate", "cone", "--r", "2", "--s", "2", "--h", "3",
        "--size-a", "4", "--size-b", "1", "--output", str(tmp_path))
    graph, cert = str(tmp_path / "cone.txt"), tmp_path / "bad.cert"
    cert.write_text(f"CERT template 5 2\n{step}\n")
    code, out, err = run(capsys, "verify", graph, "K3", str(cert))
    assert (code, out, err) == (64, "", f"wsat: error: step 0: {reason}\n")
    # after a replay failure (edge (0, 1) is present) the file is still
    # read on, and the malformed step still ends the run
    cert.write_text(f"CERT template 5 2\n0 1 | 0 | W={{0,1,2}} Z={{0,1}}\n{step}\n")
    code, out, err = run(capsys, "verify", graph, "K3", str(cert))
    assert (code, out, err) == (64, "", f"wsat: error: step 1: {reason}\n")


def test_verify_reads_the_certificate_by_lines(tmp_path, capsys):
    gpath = write_graph(tmp_path / "graph.txt", K4_EXTREMAL)
    cert = tmp_path / "c.cert"
    header, *steps = K4_EXTREMAL_CERT.splitlines()
    # \r\n, form feed and \x85 end lines in the file as in its whole text
    text = (f"{header}\r\n{steps[0]}\x0c{steps[1]}\n# note\x85"
            + "\r\n".join(steps[2:]) + "\n")
    cert.write_text(text)
    with open(cert) as file:
        by_lines = read_certificate(file)
        assert by_lines[:3] == ("pattern", 7, 2)
        assert list(by_lines[3]) == list(read_certificate((cert.read_text(),))[3])
    code, out, _ = run(capsys, "verify", gpath, "K4", str(cert))
    assert (code, out) == (0, f"valid steps={len(steps)}\n")
    cert.write_text(text + "# \x0c0 x | 0 | 0->0\n")
    with pytest.raises(FormatError) as exc:
        certificate_from_text(cert.read_text())
    code, out, err = run(capsys, "verify", gpath, "K4", str(cert))
    assert code == 64 and out == "" and f"line {exc.value.line_no}:" in err


@pytest.mark.parametrize("argv", [
    ["closure", "{graph}", "K3"],
    ["generate", "template", "2", "3", "2"],
    ["wsat", "5", "K3", "--exact"],
    ["wsat", "5", "K3", "--upper"],
])
@pytest.mark.parametrize("output,reason", [("afile", "File exists"),
                                           ("afile/sub", "Not a directory")])
def test_output_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, argv,
                                                          output, reason):
    graph = write_graph(tmp_path / "g.txt", STAR4)
    (tmp_path / "afile").write_text("kept\n")
    code, out, err = run(capsys, *[a.format(graph=graph) for a in argv],
                         "--output", str(tmp_path / output))
    assert (code, out) == (64, "")
    assert err == f"wsat: error: cannot make directory {tmp_path / output}: {reason}\n"
    assert (tmp_path / "afile").read_text() == "kept\n"


LONG_TOKEN = "K" * 300  # longer than a file name may be


@pytest.mark.parametrize("argv", [
    ["closure", "g.txt", LONG_TOKEN],
    ["wsat", "5", LONG_TOKEN, "--exact"],
    ["verify", "g.txt", LONG_TOKEN, "g.txt"],
    ["generate", "s1", "--pattern", LONG_TOKEN, "--n", "5"],
])
def test_overlong_pattern_token_is_an_unknown_pattern(tmp_path, capsys, monkeypatch,
                                                      argv):
    """A token too long to be a file name is no file: a usage error, not an
    OSError traceback with the negative verdict's exit code."""
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path / "g.txt", STAR4)
    assert run(capsys, *argv) == (
        64, "", f"wsat: error: unknown pattern {LONG_TOKEN!r}; use a file or "
                f"one of K<t>, K<t>^<r>, edge^<r>, triangle+pendant\n")
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


@pytest.mark.parametrize("token", ["", "g.txt/"])
def test_pattern_token_is_checked_as_given(tmp_path, capsys, monkeypatch, token):
    """The token is not rewritten before the file check: '' is not the
    working directory, and a file's name with a trailing '/' names no file,
    so both are unknown patterns."""
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path / "g.txt", STAR4)
    assert run(capsys, "closure", "g.txt", token) == (
        64, "", f"wsat: error: unknown pattern {token!r}; use a file or "
                f"one of K<t>, K<t>^<r>, edge^<r>, triangle+pendant\n")


def test_empty_output_is_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path / "g.txt", STAR4)
    code, out, _ = run(capsys, "closure", "g.txt", "K3", "--output", "")
    assert code == 0 and "percolated=true" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "closure.cert", "closure.txt", "g.txt"]
    assert graph_from_text((tmp_path / "closure.txt").read_text()) == complete_graph(4, 2)


def test_verify_builds_no_pattern_steps(tmp_path, capsys, monkeypatch):
    import wsat.percolation as percolation
    built = []
    real = percolation.PatternStep
    monkeypatch.setattr(percolation, "PatternStep",
                        lambda *args: built.append(args) or real(*args))
    steps = len(certificate_from_text(K4_EXTREMAL_CERT))
    assert len(built) == steps > 0  # the counter sees the materialized path
    built.clear()
    gpath = write_graph(tmp_path / "graph.txt", K4_EXTREMAL)
    (tmp_path / "c.cert").write_text(K4_EXTREMAL_CERT)
    code, out, _ = run(capsys, "verify", gpath, "K4", str(tmp_path / "c.cert"))
    assert (code, out, built) == (0, f"valid steps={steps}\n", [])


@pytest.mark.parametrize("argv", [
    ["closure", "{dir}", "K3"],
    ["verify", "{dir}", "K3", "{cert}"],
    ["verify", "{graph}", "{dir}", "{cert}"],
    ["verify", "{graph}", "K3", "{dir}"],
    ["wsat", "6", "{dir}", "--exact"],
    ["generate", "s1", "--pattern", "{dir}", "--n", "6"],
])
def test_unreadable_input_is_usage_error(tmp_path, capsys, argv):
    graph = write_graph(tmp_path / "g.txt", STAR4)
    cert = tmp_path / "c.cert"
    cert.write_text("CERT pattern 4 2\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(dir=folder, graph=graph, cert=cert) for a in argv]
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "o"))
    assert code == 64 and out == ""
    assert err == f"wsat: error: cannot read {folder}: Is a directory\n"


@pytest.mark.parametrize("argv", [
    ["closure", "{graph}", "{pattern}"],
    ["verify", "{graph}", "{pattern}", "{cert}"],
    ["wsat", "6", "{pattern}", "--exact"],
])
def test_edgeless_pattern_is_usage_error(tmp_path, capsys, argv):
    graph = write_graph(tmp_path / "g.txt", STAR4)
    pattern = write_graph(tmp_path / "p.txt", Hypergraph(3, 2))
    cert = tmp_path / "c.cert"
    cert.write_text("CERT pattern 4 2\n")
    argv = [a.format(graph=graph, pattern=pattern, cert=cert) for a in argv]
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "o"))
    assert code == 64 and out == ""
    assert err == "wsat: error: sparseness is undefined for an empty edge set\n"


def test_threads_flag_validated_and_inert(tmp_path, capsys):
    gpath = write_graph(tmp_path / "star.txt", STAR4)
    code1, out1, _ = run(capsys, "closure", gpath, "K3",
                         "--output", str(tmp_path / "a"), "--threads", "1")
    code4, out4, _ = run(capsys, "closure", gpath, "K3",
                         "--output", str(tmp_path / "b"), "--threads", "4")
    assert code1 == code4 == 0 and out1 == out4
    assert ((tmp_path / "a" / "closure.txt").read_bytes()
            == (tmp_path / "b" / "closure.txt").read_bytes())
    code, _, err = run(capsys, "verify", gpath, "K3", "nope", )
    assert code == 64
    code, _, err = run(capsys, "closure", gpath, "K3", "--threads", "0")
    assert code == 64 and "threads" in err


def test_double_runs_are_byte_identical(tmp_path, capsys):
    args = ["generate", "main", "--pattern", "K3", "--n", "12", "--m1", "4"]
    outs = []
    for sub in ("x", "y"):
        code, out, _ = run(capsys, *args, "--output", str(tmp_path / sub))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert ((tmp_path / "x" / "main.txt").read_bytes()
            == (tmp_path / "y" / "main.txt").read_bytes())


# sha256 prefixes of the exit code, stdout and every output file of each
# command: a byte-level change in a verdict, a certificate, a report line or
# a summary line fails test_golden_outputs
GOLDEN_COMMANDS = {
    "closure": ["closure", "{star}", "K3"],
    "closure-template": ["closure", "{tminus}", "--template", "4", "2"],
    "verify": ["verify", "{star}", "K3", "{out}/closure/closure.cert"],
    "verify-template": ["verify", "{tminus}", "K4",
                        "{out}/closure-template/closure.cert"],
    "template": ["generate", "template", "3", "5", "2"],
    "cone": ["generate", "cone", "--r", "2", "--s", "2", "--h", "3",
             "--size-a", "4", "--size-b", "2"],
    "cone-closure": ["closure", "{out}/cone/cone.txt", "--template", "3", "2"],
    "spartite": ["generate", "spartite", "--r", "2", "--h", "3",
                 "--part-sizes", "4,4"],
    "percolate": ["generate", "percolate", "--r", "2", "--s", "2", "--h", "3",
                  "--l", "3", "--t", "3"],
    "s1": ["generate", "s1", "--pattern", "triangle+pendant", "--n", "5"],
    "main": ["generate", "main", "--pattern", "K3", "--n", "12", "--m1", "4"],
    "clique-extremal": ["generate", "clique-extremal", "5", "3", "2"],
    "cover": ["generate", "cover", "6", "3", "2"],
    # sampled covers at the default SAMPLE_CANDIDATES_PER_ROUND, drawn through
    # Random.sample's pool branch and its set branch
    "cover-pool": ["generate", "cover", "40", "10", "1", "--seed", "3"],
    "cover-set": ["generate", "cover", "30", "5", "1", "--seed", "3"],
    # a sampled t = 2 cover: the shape perfbench's construct workload runs
    "cover-t2": ["generate", "cover", "22", "8", "2", "--seed", "3"],
    "exact": ["wsat", "5", "K3", "--exact"],
    "upper": ["wsat", "6", "K3", "--upper"],
}
GOLDEN_DIGESTS = {
    "closure": {"exit": 0, "stdout": "d5c05063ae61b088",
        "closure.cert": "40f5a4de2f7c5df1", "closure.txt": "eff8cc2e0693f95a"},
    "closure-template": {"exit": 0, "stdout": "f85d55dac46b3016",
        "closure.cert": "b87cfd8e015b2c9a", "closure.txt": "eff8cc2e0693f95a"},
    "verify": {"exit": 0, "stdout": "f7d90c3448a54552"},
    "verify-template": {"exit": 0, "stdout": "e8c0d9c6a86ac76e"},
    "template": {"exit": 0, "stdout": "ffedbf55b517b309",
        "template.txt": "875bcc987bc2b25e"},
    "cone": {"exit": 0, "stdout": "58c2e69290712931",
        "cone.txt": "8bbbd5464598ee16"},
    "cone-closure": {"exit": 0, "stdout": "1444e8b4112bb5bf",
        "closure.cert": "ffbef0d7b73a2055", "closure.txt": "13763b2606624991"},
    "spartite": {"exit": 0, "stdout": "30d43fd0fcf90081",
        "spartite.txt": "63ca6a6cd7ff56ef"},
    "percolate": {"exit": 0, "stdout": "0b51f74393fb201a",
        "percolate.txt": "4c2a92b8b1efd71c",
        "percolate_e1.txt": "957b10117fcc6017",
        "percolate_e2.txt": "95c6e95a1cc08c8b"},
    "s1": {"exit": 0, "stdout": "bc50a86e648fe6d6",
        "s1.txt": "46f9b10ae821db1c"},
    "main": {"exit": 0, "stdout": "3f8a348ed3d85b7b",
        "main.txt": "b69acd2cdf4eddc4", "main_cover.txt": "42ee23e72889c340"},
    "clique-extremal": {"exit": 0, "stdout": "cbc92c379c44c73e",
        "clique_extremal.txt": "bae29a3f9fe3f2c3"},
    "cover": {"exit": 0, "stdout": "98fb71d3ecc1b919",
        "cover.txt": "186a87c4959fdd21"},
    "cover-pool": {"exit": 0, "stdout": "bb00d9d302d073a5",
        "cover.txt": "696911121d0cd2d0"},
    "cover-set": {"exit": 0, "stdout": "2af0e18718c55f03",
        "cover.txt": "43df5a6b8d619d83"},
    "cover-t2": {"exit": 0, "stdout": "9b7f257ed7e4162f",
        "cover.txt": "ff759cc37700ebca"},
    "exact": {"exit": 0, "stdout": "54fae44516f58dd0",
        "witness.cert": "3085de5cbc2fb871", "witness.txt": "20b9fa0c7a1eb676"},
    "upper": {"exit": 0, "stdout": "fc5f3e90837e2c93",
        "witness.cert": "7fcfb9d4e7946e8a", "witness.txt": "81f00a5fb4739833"},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _golden_paths(tmp_path):
    """The values GOLDEN_COMMANDS' placeholders take, input files written."""
    return {"star": write_graph(tmp_path / "star.txt", STAR4),
            "tminus": write_graph(tmp_path / "tminus.txt", template_minus(2, 4, 2)),
            "out": str(tmp_path)}


def test_golden_outputs(tmp_path, capsys):
    paths = _golden_paths(tmp_path)
    seen = {}
    for name, argv in GOLDEN_COMMANDS.items():
        out_dir = tmp_path / name
        code, out, err = run(capsys, *[a.format(**paths) for a in argv],
                             "--output", str(out_dir))
        assert err == "", (name, err)
        seen[name] = {"exit": code, "stdout": _digest(out.encode())}
        for path in sorted(out_dir.iterdir()) if out_dir.exists() else ():
            seen[name][path.name] = _digest(path.read_bytes())
    assert seen == GOLDEN_DIGESTS


@pytest.mark.parametrize("name, verify", [("closure", "verify"),
                                          ("closure-template", "verify-template")])
def test_verify_reads_any_integer_phase_key(tmp_path, capsys, name, verify):
    """The middle column of a step line must be an integer and is read no
    further: a golden certificate with keys 7 and -3 verifies as written,
    and a key x is a format error naming its line."""
    paths = _golden_paths(tmp_path)
    code, _, _ = run(capsys, *[a.format(**paths) for a in GOLDEN_COMMANDS[name]],
                     "--output", str(tmp_path / name))
    assert code == 0
    header, *steps = (tmp_path / name / "closure.cert").read_text().splitlines()
    keyed = tmp_path / "keyed.cert"
    argv = [a.format(**paths) for a in GOLDEN_COMMANDS[verify][:-1]] + [str(keyed)]

    def verify_with(*keys):
        lines = [header]
        for i, line in enumerate(steps):
            edge, _, witness = line.split(" | ")
            lines.append(f"{edge} | {keys[i % len(keys)]} | {witness}")
        keyed.write_text("\n".join(lines) + "\n")
        return run(capsys, *argv)

    valid = (0, f"valid steps={len(steps)}\n", "")
    assert verify_with(0) == valid
    assert verify_with(7, -3) == valid
    assert verify_with(-3, 7) == valid
    # the last step's key is x: its line follows the header and every step
    assert verify_with(*[0] * (len(steps) - 1), "x") == (64, "", (
        f"wsat: format error: line {len(steps) + 1}: phase key 'x' is not an integer\n"))


GENERATE_POSITIONALS = {"template": "r h s", "clique-extremal": "n t r",
                        "cover": "N k t"}
# every positional and required flag of each generate command; --seed has a
# default, so dropping it is no error
MISSING_CASES = [
    (kind, i)
    for kind, argv in GOLDEN_COMMANDS.items() if argv[0] == "generate"
    for i in range(2, len(argv))
    if "--seed" not in argv[i - 1:i + 1]
    and (argv[1] in GENERATE_POSITIONALS or argv[i].startswith("--"))
]


@pytest.mark.parametrize("kind, i", MISSING_CASES,
                         ids=[f"{k}-{GOLDEN_COMMANDS[k][i]}" for k, i in MISSING_CASES])
def test_generate_missing_argument_is_named(tmp_path, capsys, kind, i):
    argv = GOLDEN_COMMANDS[kind]
    dropped = argv[i]
    rest = argv[:i] + argv[i + (2 if dropped.startswith("--") else 1):]
    code, out, err = run(capsys, *rest, "--output", str(tmp_path))
    assert code == 64 and out == ""
    assert "Traceback" not in err
    assert (GENERATE_POSITIONALS.get(argv[1]) or dropped) in err


# a valid value for each kind flag of generate
KIND_FLAG_VALUES = {"--r": "2", "--s": "2", "--h": "3", "--size-a": "4",
                    "--size-b": "1", "--l": "3", "--t": "3", "--n": "5",
                    "--m1": "4", "--part-sizes": "3,3", "--pattern": "K3"}
# each golden generate command with one argument that its usage line does
# not name: a kind flag of another kind, or a positional after a flag kind's
# flags; (name, extra argv, the error)
STRAY_CASES = [
    (name, extra, f"wsat: error: generate {argv[1]} {message}\n")
    for name, argv in GOLDEN_COMMANDS.items() if argv[0] == "generate"
    for extra, message in (
        [([flag, value], f"does not take {flag}")
         for flag, value in KIND_FLAG_VALUES.items() if flag not in argv]
        + ([(["7"], f"needs: {GENERATE[argv[1]][0]}")]
           if argv[1] not in GENERATE_POSITIONALS else []))
]


@pytest.mark.parametrize("name, extra, error", STRAY_CASES,
                         ids=[f"{n}-{' '.join(e)}" for n, e, _ in STRAY_CASES])
def test_generate_refuses_an_argument_its_kind_does_not_take(tmp_path, capsys, name,
                                                            extra, error):
    """A kind takes exactly the arguments of its usage line: another kind's
    flag, with a valid value, is a usage error naming it, a stray positional
    one naming the usage line, and nothing is made."""
    out_dir = tmp_path / "out"
    assert run(capsys, *GOLDEN_COMMANDS[name], *extra, "--output", str(out_dir)) == (
        64, "", error)
    assert not out_dir.exists()


@pytest.mark.parametrize("name", [name for name, argv in GOLDEN_COMMANDS.items()
                                  if argv[0] == "generate"])
def test_generate_takes_the_common_flags(tmp_path, capsys, name):
    """--threads, --budget and --seed (its own value) are taken by every
    kind, as perfbench passes them, with the golden stdout unchanged."""
    argv = GOLDEN_COMMANDS[name]
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "0"
    code, out, _ = run(capsys, *argv, "--threads", "2", "--budget", "10000000",
                       "--seed", seed, "--output", str(tmp_path))
    assert code == GOLDEN_DIGESTS[name]["exit"]
    assert _digest(out.encode()) == GOLDEN_DIGESTS[name]["stdout"]


REFUSED_OR_INCONCLUSIVE = [
    (["generate", "cone", "--r", "2", "--s", "2", "--h", "3", "--size-a", "4"], 64),
    (["generate", "template", "3", "5"], 64),
    (["generate", "nope", "1"], 64),
    (["generate", "cone", "--r", "2", "--s", "2", "--h", "3", "--size-a", "2",
      "--size-b", "5"], 64),
    (["generate", "main", "--pattern", "K3", "--n", "13", "--m1", "4"], 64),
    (["wsat", "9", "K3", "--exact"], 64),
    (["wsat", "6", "K3", "--exact", "--budget", "5"], 2),
    (["closure", "{graph}", "K4^3"], 64),
]


@pytest.mark.parametrize("argv, code", REFUSED_OR_INCONCLUSIVE,
                         ids=[" ".join(argv) for argv, _ in REFUSED_OR_INCONCLUSIVE])
def test_refused_and_inconclusive_runs_make_no_output(tmp_path, capsys, argv, code):
    """Every check and computation comes before the --output directory is
    made: a missing flag, a wrong count, an unknown kind, a bad gadget or
    layout parameter, a universe past the solver limit, a uniformity
    mismatch and a spent budget leave a fresh --output path absent."""
    graph = write_graph(tmp_path / "g.txt", STAR4)
    out_dir = tmp_path / "fresh"
    got, out, err = run(capsys, *[a.format(graph=graph) for a in argv],
                        "--output", str(out_dir))
    assert got == code and "Traceback" not in err
    assert out == "" if code == 64 else "inconclusive" in out
    assert not out_dir.exists()


# -- argv parsing ---------------------------------------------------------------
#
# The argparse parser the CLI used before parse_args, kept as the oracle of
# the differential test below; only --part-sizes has since gained the
# converter parse_args uses.

class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


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
    p.add_argument("--part-sizes", type=_int_list, help="comma-separated part sizes")
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


def _oracle(argv):
    """vars() of the argparse parse, "help", or "error"."""
    try:
        with redirect_stdout(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except _ParseError:
        return "error"
    except SystemExit as exc:
        assert exc.code == 0
        return "help"


def test_console_script_is_cli_main():
    """The `wsat` command that pip installs from pyproject.toml runs
    wsat.cli.main (tomllib is 3.11+)."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert pkgutil.resolve_name(scripts["wsat"]) is main


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [line.split("#")[0].split()[1:]
            for line in readme.read_text().splitlines() if line.startswith("wsat ")]


_GOLDEN_ARGV = [[a.format(star="star.txt", tminus="tminus.txt", out="o") for a in argv]
                for argv in GOLDEN_COMMANDS.values()]
# perfbench appends --seed (generate only), --threads and --output
_SHAPED = [argv + ["--seed", "1234567", "--threads", "2", "--output", "out"]
           for argv in _readme_commands() + _GOLDEN_ARGV]
ARGV_ACCEPTED = _readme_commands() + _GOLDEN_ARGV + _SHAPED + [
    ["wsat", "5", "K3", "--exa", "--out", "o"],
    ["wsat", "5", "K3", "--exact", "--output=o", "--seed=-3"],
    ["wsat", "5", "K3", "--ex", "--bud", "100", "--budget", "200"],
    ["wsat", "5", "K3", "--exact", "--exact"],
    ["wsat", "5", "K3", "--ta", "3..6"],
    ["wsat", "5", "K3", "--table=3..6", "--table", "4..7"],
    ["wsat", "-1", "K3", "--upper"],
    ["wsat", "--exact", "5", "K3"],
    ["wsat", "5", "--exact", "K3"],
    ["closure", "g.txt", "--te", "4", "2"],
    ["closure", "g.txt", "--template", "4", "2", "--template", "3", "2"],
    ["closure", "--seed", "3", "g.txt", "K3"],
    ["closure", "--", "g.txt", "K3"],
    ["closure", "g.txt", "K3", "--th", "4", "--o=", "--se=7"],
    ["closure", "g.txt", "-", "--output", "-"],
    ["closure", "-g b.txt", "K3"],
    ["generate", "cone", "--r=2", "--s", "2", "--h", "3", "--size-a=4",
     "--size-b", "1"],
    ["generate", "spartite", "--r", "2", "--h", "3", "--par", "4,4"],
    ["generate", "s1", "--pat", "K3", "--n", "5", "--n", "6"],
    ["generate", "--seed", "3", "cover", "12", "5", "2"],
    ["generate", "cover", "-3", "5", "2", "--seed", "-4"],
    ["generate", "template", " 3", "+5", "2"],
    ["generate", "cone"],
    ["verify", "g", "K3", "c", "--budget", "1_000"],
]
ARGV_HELP = [
    ["-h"], ["--help"], ["--hel"], ["closure", "-h"], ["closure", "--h"],
    ["wsat", "5", "K3", "--help"], ["generate", "cone", "--he"],
]
ARGV_REJECTED = [
    [], ["clos", "g", "K3"], ["frobnicate"], ["--output", "o", "closure", "g", "K3"],
    ["wsat", "five", "K3", "--exact"],
    ["wsat", "5", "K3", "--exact", "--seed", "x"],
    ["wsat", "5", "K3", "--exact", "--seed", "1.5"],
    ["generate", "cover", "6", "3", "two"],
    ["generate", "template", "3.0", "5", "2"],
    ["wsat", "5", "--exact"], ["verify", "g", "K3"], ["closure"], ["generate"],
    ["verify", "g", "K3", "c", "extra"], ["closure", "g", "K3", "extra"],
    ["wsat", "5", "K3", "K4", "--upper"],
    ["wsat", "5", "K3"],
    ["wsat", "5", "K3", "--exact", "--upper"],
    ["wsat", "5", "K3", "--upper", "--table", "3..5"],
    ["generate", "nope", "1"],
    ["generate", "cone", "--size", "3"], ["generate", "cone", "--p", "K3"],
    ["wsat", "5", "K3", "--exact", "--t", "2"],
    ["closure", "g", "K3", "--frob"], ["closure", "g", "K3", "-x"],
    ["closure", "g", "--template", "4"],
    ["closure", "g", "--template", "4", "--seed", "1"],
    ["closure", "g", "--template=4", "2"],
    ["wsat", "5", "K3", "--exact=yes"],
    ["closure", "g", "K3", "--output"],
    ["closure", "g", "K3", "--seed", "--threads", "2"],
    ["closure", "--", "g", "K3", "--seed", "1"],
    ["closure", "--output", "--", "g", "K3"], ["--", "closure", "g", "K3"],
    ["generate", "--h"],
    ["generate", "spartite", "--r", "3", "--h", "4", "--part-sizes", "4,x"],
]
# argparse rejects positionals split by flags once it has passed an optional
# or variadic positional; parse_args collects every positional first.  Each
# entry is (argv, the same argv with its positionals moved before the flags).
ARGV_INTERLEAVED = [
    (["generate", "cover", "12", "--seed", "3", "5", "2"],
     ["generate", "cover", "12", "5", "2", "--seed", "3"]),
    (["generate", "cover", "--seed", "3", "12", "5", "2"],
     ["generate", "cover", "12", "5", "2", "--seed", "3"]),
    (["closure", "g.txt", "--seed", "1", "K3"],
     ["closure", "g.txt", "K3", "--seed", "1"]),
]
ARGV_CASES = ([(argv, "accepted") for argv in ARGV_ACCEPTED]
              + [(argv, "help") for argv in ARGV_HELP]
              + [(argv, "error") for argv in ARGV_REJECTED]
              + [(argv, canonical) for argv, canonical in ARGV_INTERLEAVED])


@pytest.mark.parametrize("argv, expect", ARGV_CASES,
                         ids=[" ".join(argv) or "(empty)" for argv, _ in ARGV_CASES])
def test_parse_args_matches_argparse(tmp_path, monkeypatch, capsys, argv, expect):
    oracle = _oracle(argv)
    if expect == "accepted":
        assert isinstance(oracle, dict)
        assert vars(parse_args(argv)) == oracle
    elif expect == "help":
        assert oracle == "help"
        assert run(capsys, *argv) == (0, USAGE, "")
    elif expect == "error":
        assert oracle == "error"
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and err.startswith("wsat: error: ")
        assert "Traceback" not in err and not any(tmp_path.iterdir())
    else:
        assert oracle == "error"
        assert vars(parse_args(argv)) == _oracle(expect)


def test_bad_part_sizes_name_their_flag(tmp_path, capsys):
    for sizes in ("4,x", "4,", "4;4"):
        assert run(capsys, "generate", "spartite", "--r", "3", "--h", "4",
                   "--part-sizes", sizes, "--output", str(tmp_path)) == (
            64, "", f"wsat: error: argument --part-sizes: invalid value {sizes!r}\n")
    assert not any(tmp_path.iterdir())


def test_generate_table_matches_the_parser():
    """Each GENERATE spec's flags, at its even positions, take one value in
    the generate verb's table, every kind-specific flag is in some spec and
    in KIND_FLAG_VALUES, and the usage text shows each kind's spec, in table
    order."""
    flags = VERBS["generate"][1]
    named = set()
    for kind, (spec, _) in GENERATE.items():
        words = spec.split()
        spec_flags = [word for word in words if word.startswith("-")]
        assert spec_flags in ([], words[::2]), kind
        assert all(flags[flag][1] == 1 for flag in spec_flags), kind
        named.update(spec_flags)
    assert named == set(flags) - set(COMMON_FLAGS) == set(KIND_FLAG_VALUES)
    kinds = "".join(f"  {kind} {spec}\n" for kind, (spec, _) in GENERATE.items())
    assert f"generate kinds and their arguments:\n{kinds}\n" in USAGE


def test_usage_names_every_verb_kind_and_flag(capsys):
    for spelling in ("-h", "--help"):
        assert run(capsys, spelling) == (0, USAGE, "")
    words = set(re.findall(r"[\w-]+", USAGE))
    flags = {flag for _, verb_flags in VERBS.values() for flag in verb_flags}
    assert set(VERBS) | set(GENERATE) | flags <= words


def _fresh_interpreter(tmp_path, script: str) -> str:
    """The last line script prints when run by a new interpreter in tmp_path."""
    src = str(Path(__import__("wsat").__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_cold_job_loads_no_argparse(tmp_path):
    script = ("import sys, wsat.cli\n"
              "code = wsat.cli.main(['wsat', '5', 'K3', '--exact', '--output', 'o'])\n"
              "print(code, [m for m in ('argparse', 'gettext', 'locale')"
              " if m in sys.modules])\n")
    assert _fresh_interpreter(tmp_path, script) == "0 []"


def test_cold_jobs_load_no_dataclasses_or_fractions(tmp_path):
    """Against what the interpreter loaded before the script ran (as for a
    bare `python -c pass`), importing wsat.cli and then one job of each
    verb adds none of the modules that frozen dataclasses or Fraction pull
    in."""
    script = ("import sys\n"
              "start = set(sys.modules)\n"
              "import wsat.cli\n"
              "jobs = [None, ['generate', 'cover', '12', '5', '2', '--output', 'o'],\n"
              "        ['wsat', '5', 'K3', '--exact', '--output', 'o'],\n"
              "        ['closure', 'o/witness.txt', 'K3', '--output', 'c'],\n"
              "        ['verify', 'o/witness.txt', 'K3', 'o/witness.cert']]\n"
              "seen = []\n"
              "for argv in jobs:\n"
              "    code = argv and wsat.cli.main(argv)\n"
              "    added = set(sys.modules) - start\n"
              "    seen.append((code, sorted(added & {'dataclasses', 'inspect',"
              " 'fractions', 'decimal'})))\n"
              "print(seen)\n")
    assert _fresh_interpreter(tmp_path, script) == str([(None, [])] + [(0, [])] * 4)


# each module's own `from .x import` lines, closed over: what importing it loads
IMPORT_LAYERS = {
    "hypergraph": {"hypergraph"},
    "percolation": {"hypergraph", "percolation"},
    "designs": {"hypergraph", "designs"},
    "templates": {"hypergraph", "percolation", "templates"},
    "cli": {"hypergraph", "percolation", "designs", "templates", "constructions",
            "solver", "cli"},
}


@pytest.mark.parametrize("module", IMPORT_LAYERS)
def test_importing_a_module_loads_only_what_it_uses(tmp_path, module):
    script = (f"import sys, wsat.{module}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'wsat'))\n")
    expected = sorted(["wsat"] + [f"wsat.{m}" for m in IMPORT_LAYERS[module]])
    assert _fresh_interpreter(tmp_path, script) == str(expected)
