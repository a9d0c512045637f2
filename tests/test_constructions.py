from math import comb

import pytest

from wsat import (
    ConeSpec,
    Hypergraph,
    MainSpec,
    PercolateSpec,
    SpartiteSpec,
    check_cone,
    check_percolate,
    check_spartite,
    clique_extremal,
    clique_extremal_bound,
    clique_wsat_value,
    complete_graph,
    cone_gadget,
    greedy_cover,
    is_weakly_saturated,
    main_clusters,
    main_construction,
    make_pattern,
    padded_example,
    padding_bound,
    percolate_gadget,
    s1_construction,
    spartite_gadget,
    template_closure,
)

K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
SINGLE_3EDGE = make_pattern(complete_graph(3, 3))
STAR4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])


def test_cone_small_example():
    spec = ConeSpec(r=2, h=3, s=2, size_a=4, size_b=1)
    g = cone_gadget(spec)
    extra = sorted(e for e in g.edges if e[-1] == 4)
    assert extra == [(0, 4), (1, 4), (2, 4)]  # apex joined to the anchor
    _, result, bound = check_cone(spec)
    assert result.percolated
    assert bound.lhs == 3 and bound.rhs == 18 and bound.holds


def test_cone_empty_apex_side():
    spec = ConeSpec(r=2, h=3, s=2, size_a=4, size_b=0)
    assert cone_gadget(spec) == complete_graph(4, 2).with_edges([])

    with pytest.raises(ValueError):
        ConeSpec(r=2, h=3, s=2, size_a=3, size_b=4)  # apex side too big
    with pytest.raises(ValueError):
        ConeSpec(r=2, h=5, s=2, size_a=4, size_b=1)  # A smaller than h


def test_cone_phase_keys_recorded():
    spec = ConeSpec(r=2, h=3, s=2, size_a=4, size_b=2)
    _, result, _ = check_cone(spec)
    anchor = set(spec.anchor)
    for step in result.certificate.steps:
        assert step.phase_key == sum(1 for v in step.edge if v not in anchor)


def test_padded_example():
    padded = padded_example(STAR4, 2, K3)
    assert padded.n == 6
    assert is_weakly_saturated(padded, K3)
    bound = padding_bound(STAR4, 2, K3)
    assert bound.holds and bound.rhs == 2 * 9 * 1 * 2

    assert padded_example(STAR4, 0, K3) == STAR4

    g_opt = clique_extremal(5, 4, 2)
    assert g_opt.edge_count == 7
    padded2 = padded_example(g_opt, 1, K4)
    assert padded2.n == 6
    assert is_weakly_saturated(padded2, K4)


def test_padded_example_rejections():
    with pytest.raises(ValueError):
        padded_example(STAR4, 5, K3)  # k2 > k1
    with pytest.raises(ValueError):
        padded_example(Hypergraph(4, 2, [(0, 1)]), 1, K3)  # not saturated
    with pytest.raises(ValueError):
        padded_example(STAR4, 1, TRI_PENDANT)  # sparseness 1


def test_spartite_small_example():
    spec = SpartiteSpec(r=2, h=3, part_sizes=(4, 4))
    g = spartite_gadget(spec)
    # missing edges are exactly the cross pairs touching a loose vertex
    missing = {e for e in complete_graph(8, 2).edges} - g.edges
    loose = {3, 7}
    assert missing == {e for e in complete_graph(8, 2).edges
                       if len({e[0] // 4, e[1] // 4}) == 2 and (set(e) & loose)}
    _, result = check_spartite(spec)
    assert result.percolated


def test_spartite_tight_parts_give_complete_graph():
    spec = SpartiteSpec(r=2, h=3, part_sizes=(3, 3))
    assert spartite_gadget(spec) == complete_graph(6, 2)


def test_spartite_rejections():
    with pytest.raises(ValueError):
        SpartiteSpec(r=2, h=3, part_sizes=(2, 4))  # part below h
    with pytest.raises(ValueError):
        SpartiteSpec(r=2, h=3, part_sizes=(4,))  # fewer than 2 parts
    with pytest.raises(ValueError):
        SpartiteSpec(r=2, h=3, part_sizes=(4, 4, 4))  # more parts than r


def test_percolate_small_example():
    spec = PercolateSpec(r=2, h=3, s=2, clusters=3, cluster_size=3)
    e1, e2 = percolate_gadget(spec)
    assert len(e2) <= 2 * 27 * 2 * 1
    g, _, result, bound = check_percolate(spec)
    assert result.percolated and bound.holds
    # extras live on rigid pairs across a group including the last cluster
    for e in e2:
        clusters_hit = {v // 3 for v in e}
        assert len(clusters_hit) == 2 and 2 in clusters_hit


def test_percolate_single_group_when_clusters_equal_s():
    spec = PercolateSpec(r=2, h=3, s=2, clusters=2, cluster_size=4)
    e1, e2 = percolate_gadget(spec)
    sp = SpartiteSpec(r=2, h=3, part_sizes=(4, 4))
    assert e2 == frozenset(spartite_gadget(sp).edges - e1)


def test_percolate_rejections():
    with pytest.raises(ValueError):
        PercolateSpec(r=2, h=3, s=2, clusters=1, cluster_size=4)
    with pytest.raises(ValueError):
        PercolateSpec(r=2, h=3, s=2, clusters=3, cluster_size=2)


def test_s1_construction():
    g = s1_construction(TRI_PENDANT, 5)
    assert g == Hypergraph(5, 2, complete_graph(4, 2).edges)
    assert g.edge_count == 6
    assert is_weakly_saturated(g, TRI_PENDANT)

    assert s1_construction(TRI_PENDANT, 4) == complete_graph(4, 2)

    g3 = s1_construction(SINGLE_3EDGE, 6)
    assert g3.edge_count == 1
    assert is_weakly_saturated(g3, SINGLE_3EDGE)

    with pytest.raises(ValueError):
        s1_construction(K3, 5)  # sparseness 2


def test_main_construction_k3():
    cover = greedy_cover(3, 1, 1)
    spec = MainSpec(pattern=K3, n=12, m1=4, seed_graph=STAR4, cover=cover)
    result = main_construction(spec)
    assert result.percolated
    assert result.block_count == 3
    assert result.copies_edge_count == 9
    assert all(b.holds for b in result.bounds)
    assert result.copies_edge_count <= result.block_count * STAR4.edge_count


def test_main_construction_rejects_bad_seed():
    cover = greedy_cover(3, 1, 1)
    bad_seed = Hypergraph(4, 2, [(0, 1)])
    spec = MainSpec(pattern=K3, n=12, m1=4, seed_graph=bad_seed, cover=cover)
    with pytest.raises(ValueError, match="not weakly saturated"):
        main_construction(spec)


def test_main_construction_named_invariant_failures():
    cover = greedy_cover(3, 1, 1)
    with pytest.raises(ValueError, match="clusters"):
        # single cluster: n = m
        main_construction(MainSpec(pattern=K3, n=4, m1=4,
                                   seed_graph=STAR4, cover=greedy_cover(1, 1, 1)))
    with pytest.raises(ValueError, match="multiple"):
        main_construction(MainSpec(pattern=K3, n=13, m1=4,
                                   seed_graph=STAR4, cover=cover))
    with pytest.raises(ValueError, match="cover must have"):
        main_construction(MainSpec(pattern=K3, n=12, m1=4,
                                   seed_graph=STAR4, cover=greedy_cover(4, 1, 1)))


def test_main_clusters():
    assert main_clusters(12, 4, 2) == (4, 4, 3)
    assert main_clusters(16, 16, 3) == (4, 16, 4)
    assert main_clusters(15, 5, 3) == (3, 9, 5)  # c = ceil(sqrt(5))
    for n, m1, s, match in ((0, 0, 2, "--n"), (12, 0, 2, "--m1"),
                            (13, 4, 2, "multiple"), (4, 4, 2, "clusters"),
                            (12, 4, 1, "sparseness")):
        with pytest.raises(ValueError, match=match):
            main_clusters(n, m1, s)


def test_main_construction_s3():
    # sparseness-3 pattern: single cluster size must be a perfect square root
    pattern = make_pattern(complete_graph(4, 3))
    assert pattern.s == 3
    seed = clique_extremal(16, 4, 3)
    cover = greedy_cover(4, 4, 2)
    spec = MainSpec(pattern=pattern, n=16, m1=16, seed_graph=seed, cover=cover)
    result = main_construction(spec)
    assert result.percolated
    assert all(b.holds for b in result.bounds)


def test_clique_extremal_matches_formula_grid():
    for n in range(1, 9):
        for t in range(1, n + 1):
            for r in range(1, t + 1):
                bound = clique_extremal_bound(clique_extremal(n, t, r), t)
                assert bound.holds, (n, t, r)


def test_clique_extremal_percolates_sampled():
    for n, t, r in [(5, 3, 2), (6, 3, 2), (5, 4, 2), (5, 4, 3), (6, 4, 3),
                    (6, 5, 2), (4, 4, 2), (5, 3, 3)]:
        g = clique_extremal(n, t, r)
        assert g.edge_count == clique_wsat_value(n, t, r)
        assert is_weakly_saturated(g, make_pattern(complete_graph(t, r)))


def test_clique_extremal_t_equals_r_is_empty():
    g = clique_extremal(5, 2, 2)
    assert g.edge_count == 0
    assert is_weakly_saturated(g, make_pattern(complete_graph(2, 2)))
    with pytest.raises(ValueError):
        clique_extremal(4, 5, 2)


def test_gadget_outputs_reverify_under_template_closure():
    # a couple of r=3 instances exercising the hypergraph path
    spec = ConeSpec(r=3, h=4, s=3, size_a=5, size_b=3)
    g, result, bound = check_cone(spec)
    assert result.percolated and bound.holds

    sp = SpartiteSpec(r=3, h=4, part_sizes=(4, 4, 4))
    g2, result2 = check_spartite(sp)
    assert result2.percolated

    ps = PercolateSpec(r=3, h=4, s=2, clusters=3, cluster_size=4)
    g3, _, result3, bound3 = check_percolate(ps)
    assert result3.percolated and bound3.holds
