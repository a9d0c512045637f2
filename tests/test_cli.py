import argparse
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsat import (
    FormatError,
    Hypergraph,
    certificate_from_text,
    certificate_to_text,
    closure,
    complete_graph,
    graph_from_text,
    graph_to_text,
    make_pattern,
    template_cert_to_pattern_cert,
    template_closure,
    template_minus,
    verify_certificate,
)
from wsat.cli import (
    GENERATE,
    USAGE,
    VERBS,
    CLIError,
    main,
    parse_args,
    parse_pattern_token,
)
from wsat.percolation import read_certificate
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
    from wsat import CoverDesign
    every = tuple(combinations(range(4), 2))
    # a valid cover with one block repeated: C(4, 2) + 1 blocks
    monkeypatch.setattr(cli, "greedy_cover", lambda N, k, t, seed=0:
                        CoverDesign(N, k, t, every + every[:1]))
    code, out, _ = run(capsys, "generate", "cover", "4", "2", "2",
                       "--output", str(tmp_path))
    assert "valid=true" in out
    assert "#BOUND cover_blocks 7 6 false" in out
    assert code == 1


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
    from wsat import template_minus
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
VERIFY_BASES = {K4_CERT: K4_GRAPH, K4_EXTREMAL_CERT: K4_EXTREMAL,
                K4_TEMPLATE_CERT: K4_TEMPLATE_GRAPH}


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    return {base: write_graph(root / f"graph{i}.txt", g)
            for i, (base, g) in enumerate(VERIFY_BASES.items())}, root / "mutant.cert"


def expected_verify(g, pattern, text):
    """(exit code, stdout) of wsat verify by the materialized path: parse the
    whole certificate, convert a template one, then replay it with
    verify_certificate.  A conversion ValueError is exit 64."""
    cert = certificate_from_text(text)
    if cert.kind == "template":
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
    "exact": {"exit": 0, "stdout": "54fae44516f58dd0",
        "witness.cert": "3085de5cbc2fb871", "witness.txt": "20b9fa0c7a1eb676"},
    "upper": {"exit": 0, "stdout": "fc5f3e90837e2c93",
        "witness.cert": "7fcfb9d4e7946e8a", "witness.txt": "81f00a5fb4739833"},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_golden_outputs(tmp_path, capsys):
    paths = {"star": write_graph(tmp_path / "star.txt", STAR4),
             "tminus": write_graph(tmp_path / "tminus.txt", template_minus(2, 4, 2)),
             "out": str(tmp_path)}
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


# -- argv parsing ---------------------------------------------------------------
#
# The argparse parser the CLI used before parse_args, kept verbatim as the
# oracle of the differential test below.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


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


def _oracle(argv):
    """vars() of the argparse parse, "help", or "error"."""
    try:
        with redirect_stdout(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except CLIError:
        return "error"
    except SystemExit as exc:
        assert exc.code == 0
        return "help"


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


def test_usage_names_every_verb_kind_and_flag(capsys):
    for spelling in ("-h", "--help"):
        assert run(capsys, spelling) == (0, USAGE, "")
    words = set(re.findall(r"[\w-]+", USAGE))
    flags = {flag for _, verb_flags in VERBS.values() for flag in verb_flags}
    assert set(VERBS) | set(GENERATE) | flags <= words


def test_cold_job_loads_no_argparse(tmp_path):
    src = str(Path(__import__("wsat").__file__).resolve().parent.parent)
    script = ("import sys, wsat.cli\n"
              "code = wsat.cli.main(['wsat', '5', 'K3', '--exact', '--output', 'o'])\n"
              "print(code, [m for m in ('argparse', 'gettext', 'locale')"
              " if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
