"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

from wsat.cli import main as cli_main
from wsat.constructions import (
    clique_extremal,
    cone_bound,
    cone_gadget,
    main_construction,
    padded_example,
    padding_bound,
    percolate_bound,
    percolate_gadget,
    spartite_gadget,
)
from wsat.designs import greedy_cover, rodl_bound, verify_cover
from wsat.hypergraph import Hypergraph, complete_graph, edge_universe, graph_to_text
from wsat.percolation import (
    closure,
    is_weakly_saturated,
    verify_certificate,
)
from wsat.solver import wsat_exact
from wsat.templates import (
    make_pattern,
    template_cert_to_pattern_cert,
    template_closure,
    template_minus,
)

from test_percolation import closure_in_order

K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
K43 = make_pattern(complete_graph(4, 3))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def is_tree(g: Hypergraph) -> bool:
    if g.r != 2 or g.edge_count != g.n - 1:
        return False
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_criterion_1_clique_ground_truth():
    with criterion(1, "clique ground truth"):
        start = time.time()
        for n in range(3, 8):
            assert wsat_exact(n, K3).value == n - 1
        for n in range(4, 7):
            assert wsat_exact(n, K4).value == comb(n, 2) - comb(n - 2, 2)
        assert wsat_exact(5, K43).value == 6
        elapsed = time.time() - start
        print(f"  criterion 1 runtime: {elapsed:.1f}s")
        assert elapsed < 60


def test_criterion_2_triangle_vs_pendant():
    with criterion(2, "triangle vs triangle-with-pendant"):
        for n in (4, 5):
            res = wsat_exact(n, K3)
            assert res.value == n - 1
            assert is_tree(res.witness)
            res_p = wsat_exact(n, TRI_PENDANT)
            assert res_p.value == 3


def _random_pattern(rng):
    while True:
        n, r = rng.choice([(4, 2), (5, 2), (4, 3), (5, 3)])
        edges = [e for e in edge_universe(n, r) if rng.random() < 0.6]
        if not edges:
            continue
        if len({v for e in edges for v in e}) != n:
            continue
        pat = make_pattern(Hypergraph(n, r, edges))
        if pat.s >= 2:
            return pat


def test_criterion_3_template_implies_pattern_saturation():
    with criterion(3, "template saturation implies weak saturation"):
        rng = random.Random(2024)
        percolating = 0
        attempts = 0
        while percolating < 20 and attempts < 200:
            attempts += 1
            pat = _random_pattern(rng)
            n = pat.h + rng.choice([0, 1])
            g = Hypergraph(n, pat.r, template_minus(pat.r, pat.h, pat.s).edges)
            g = g.with_edges(e for e in edge_universe(n, pat.r)
                             if rng.random() < 0.5)
            res = template_closure(g, pat.h, pat.s)
            if not res.percolated:
                continue
            percolating += 1
            converted = template_cert_to_pattern_cert(res.certificate, pat)
            assert verify_certificate(g, pat, converted), (pat, g)
            assert is_weakly_saturated(g, pat), (pat, g)
        assert percolating >= 20


# gadget parameters in call order: cone (r, h, s, size_a, size_b), spartite
# (r, h, part_sizes), percolate (r, h, s, clusters, cluster_size)
CONE_GRID = [
    (2, 3, 2, 4, 1),
    (2, 3, 2, 5, 2),
    (2, 4, 2, 6, 3),
    (2, 5, 2, 7, 7),
    (3, 4, 2, 6, 2),
    (3, 4, 3, 5, 3),
    (3, 5, 2, 6, 2),
]

SPARTITE_GRID = [
    (2, 3, (4, 4)),
    (2, 3, (5, 4)),
    (2, 4, (6, 5)),
    (3, 4, (5, 5)),
    (3, 4, (4, 4, 4)),
]

PERCOLATE_GRID = [
    (2, 3, 2, 3, 3),
    (2, 3, 2, 4, 4),
    (3, 4, 2, 3, 4),
    (3, 4, 3, 3, 4),
]

PADDING_GRID = [
    (Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]), 1, K3),
    (Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]), 2, K3),
    (clique_extremal(5, 4, 2), 1, K4),
    (clique_extremal(5, 4, 2), 2, K4),
    (clique_extremal(5, 4, 3), 2, K43),
]


def test_criterion_4_gadget_grid():
    with criterion(4, "gadget percolation grid with bounds"):
        start = time.time()
        assert len(CONE_GRID) >= 6 and len(SPARTITE_GRID) >= 4 \
            and len(PERCOLATE_GRID) >= 4
        for params in CONE_GRID:
            _, h, s, size_a, _ = params
            g = cone_gadget(*params)
            assert template_closure(g, h, s).percolated, params
            assert cone_bound(g, h, s, size_a).holds, params
        for params in SPARTITE_GRID:
            g = spartite_gadget(*params)
            assert template_closure(g, params[1], len(params[2])).percolated, params
        for params in PERCOLATE_GRID:
            r, h, s, clusters, size = params
            e1, e2 = percolate_gadget(*params)
            g = Hypergraph(clusters * size, r, e1 | e2)
            assert template_closure(g, h, s).percolated, params
            assert percolate_bound(e2, *params).holds, params
        for base, k2, pat in PADDING_GRID:
            padded = padded_example(base, k2, pat)
            assert is_weakly_saturated(padded, pat), (base, k2)
            assert padding_bound(base, padded, pat).holds, (base, k2)
        elapsed = time.time() - start
        print(f"  criterion 4 runtime: {elapsed:.1f}s")
        assert elapsed < 300


def test_criterion_5_main_construction():
    with criterion(5, "composite construction end to end"):
        start = time.time()
        star4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
        cover = greedy_cover(3, 1, 1)
        result = main_construction(K3, 12, 4, star4, cover)
        assert is_weakly_saturated(result.graph, K3)
        copies_bound = result.bounds[0]
        assert copies_bound.name == "copies_union" and copies_bound.holds
        assert copies_bound.rhs == len(cover.blocks) * star4.edge_count

        gm = clique_extremal(5, 4, 2)
        result2 = main_construction(K4, 15, 5, gm, cover)
        assert is_weakly_saturated(result2.graph, K4)
        copies_bound2 = result2.bounds[0]
        assert copies_bound2.holds
        assert copies_bound2.rhs == len(cover.blocks) * gm.edge_count
        elapsed = time.time() - start
        print(f"  criterion 5 runtime: {elapsed:.1f}s")
        assert elapsed < 300


def test_criterion_6_closure_properties():
    with criterion(6, "closure order-independence, monotonicity, idempotence"):
        rng = random.Random(99)
        instances = []
        while len(instances) < 50:
            n, r, pat = rng.choice([(5, 2, K3), (6, 2, K3), (5, 2, K4),
                                    (5, 3, K43), (6, 2, TRI_PENDANT)])
            g = Hypergraph(n, r, [e for e in edge_universe(n, r)
                                  if rng.random() < rng.choice([0.3, 0.5, 0.7])])
            instances.append((g, pat))
        for g, pat in instances:
            reference = closure(g, pat)
            universe = comb(g.n, g.r)
            for _ in range(20):
                order = list(range(universe))
                rng.shuffle(order)
                assert closure_in_order(g, pat, order).closure == reference.closure
            # idempotence everywhere
            again = closure(reference.closure, pat)
            assert again.closure == reference.closure and len(again.certificate) == 0

        # monotonicity: saturated graphs stay saturated under edge addition
        checked = 0
        while checked < 50:
            n = rng.choice([5, 6])
            seed = rng.choice([
                Hypergraph(n, 2, [(0, v) for v in range(1, n)]),
                Hypergraph(n, 2, [(v, v + 1) for v in range(n - 1)]),
                clique_extremal(n, 3, 2),
            ])
            if not is_weakly_saturated(seed, K3):
                continue
            extra = [e for e in edge_universe(n, 2) if rng.random() < 0.4]
            assert is_weakly_saturated(seed.with_edges(extra), K3)
            checked += 1


def test_criterion_7_padding_inequality_on_solver_values():
    with criterion(7, "padding inequality with exact solver values"):
        triples = [(K3, 4, 1), (K3, 4, 2), (K3, 5, 1), (K4, 4, 1), (K43, 4, 1)]
        assert len(triples) >= 5
        for pat, k1, k2 in triples:
            lhs = wsat_exact(k1 + k2, pat).value
            rhs = wsat_exact(k1, pat).value + (
                pat.r * pat.h ** pat.r * k1 ** (pat.s - 2) * k2)
            assert lhs <= rhs, (pat, k1, k2, lhs, rhs)


def test_criterion_8_cover_grid():
    with criterion(8, "greedy covers valid across the grid"):
        for n_pts in range(1, 13):
            for k in range(1, min(4, n_pts) + 1):
                for t in range(1, min(3, k) + 1):
                    design = greedy_cover(n_pts, k, t)
                    assert verify_cover(design), (n_pts, k, t)
                    ratio = len(design.blocks) / rodl_bound(n_pts, k, t)
                    print(f"  cover N={n_pts} k={k} t={t} "
                          f"blocks={len(design.blocks)} ratio={float(ratio):.3f}")


def _run_cli(capsys, argv):
    code = cli_main(argv)
    return code, capsys.readouterr().out


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*")) if p.is_file()}


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "CLI byte-identical reruns, 1 vs 4 threads"):
        star = tmp_path / "star.txt"
        star.write_text(graph_to_text(Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])))

        commands = [
            ["closure", str(star), "K3"],
            ["generate", "template", "3", "5", "2"],
            ["generate", "cone", "--r", "2", "--s", "2", "--h", "3",
             "--size-a", "4", "--size-b", "2"],
            ["generate", "spartite", "--r", "2", "--h", "3", "--part-sizes", "4,4"],
            ["generate", "percolate", "--r", "2", "--s", "2", "--h", "3",
             "--l", "3", "--t", "3"],
            ["generate", "s1", "--pattern", "triangle+pendant", "--n", "5"],
            ["generate", "main", "--pattern", "K3", "--n", "12", "--m1", "4"],
            ["generate", "clique-extremal", "5", "3", "2"],
            ["generate", "cover", "6", "3", "2"],
            ["wsat", "5", "K3", "--exact"],
            ["wsat", "6", "K3", "--upper"],
            ["wsat", "0", "K3", "--table", "3..6"],
        ]
        for i, argv in enumerate(commands):
            runs = []
            for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
                out_dir = tmp_path / f"cmd{i}{tag}"
                code, out = _run_cli(capsys,
                                     argv + ["--output", str(out_dir),
                                             "--threads", threads, "--seed", "0"])
                assert code == 0, (argv, code)
                runs.append((out, _snapshot(out_dir) if out_dir.exists() else {}))
            assert runs[0] == runs[1], argv
            assert runs[0] == runs[2], argv

        # verify command determinism (needs the closure run's certificate)
        cert = tmp_path / "cmd0a" / "closure.cert"
        v1 = _run_cli(capsys, ["verify", str(star), "K3", str(cert)])
        v2 = _run_cli(capsys, ["verify", str(star), "K3", str(cert)])
        assert v1 == v2 and v1[0] == 0
