from itertools import combinations
from pathlib import Path

import pytest

from wsat import (
    Hypergraph,
    complete_graph,
    graph_from_text,
    graph_to_text,
    make_pattern,
)
from wsat.cli import main, parse_pattern_token


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
