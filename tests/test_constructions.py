from itertools import combinations
from math import comb

import pytest

from wsat.constructions import (
    _near_anchor_edges,
    _spartite_split,
    clique_extremal,
    clique_extremal_bound,
    cone_bound,
    cone_gadget,
    main_clusters,
    main_construction,
    padded_example,
    padding_bound,
    percolate_bound,
    percolate_gadget,
    s1_construction,
    spartite_gadget,
)
from wsat.designs import CoverDesign, greedy_cover
from wsat.hypergraph import Hypergraph, complete_graph, edge_universe
from wsat.percolation import clique_wsat_value, is_weakly_saturated
from wsat.templates import make_pattern, template_closure

K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
SINGLE_3EDGE = make_pattern(complete_graph(3, 3))
STAR4 = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])


def test_cone_small_example():
    g = cone_gadget(2, 3, 2, 4, 1)
    extra = sorted(e for e in g.edges if e[-1] == 4)
    assert extra == [(0, 4), (1, 4), (2, 4)]  # apex joined to the anchor
    result = template_closure(g, 3, 2)
    bound = cone_bound(g, 3, 2, 4)
    assert result.percolated
    assert bound.lhs == 3 and bound.rhs == 18 and bound.holds


def test_cone_empty_apex_side():
    assert cone_gadget(2, 3, 2, 4, 0) == complete_graph(4, 2).with_edges([])

    with pytest.raises(ValueError):
        cone_gadget(2, 3, 2, 3, 4)  # apex side too big
    with pytest.raises(ValueError):
        cone_gadget(2, 5, 2, 4, 1)  # A smaller than h


def test_padded_example():
    padded = padded_example(STAR4, 2, K3)
    assert padded.n == 6
    assert is_weakly_saturated(padded, K3)
    bound = padding_bound(STAR4, padded, K3)
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
        padded_example(STAR4, 1, TRI_PENDANT)  # sparseness 1


def test_padded_example_leaves_the_base_to_its_caller():
    """An unsaturated base is the caller's fault: the graph is built, and
    the caller's closure rejects it."""
    padded = padded_example(Hypergraph(4, 2, [(0, 1)]), 1, K3)
    assert padded.n == 5 and (0, 1) in padded.edges
    assert not is_weakly_saturated(padded, K3)


def test_spartite_small_example():
    g = spartite_gadget(2, 3, (4, 4))
    # missing edges are exactly the cross pairs touching a loose vertex
    missing = {e for e in complete_graph(8, 2).edges} - g.edges
    loose = {3, 7}
    assert missing == {e for e in complete_graph(8, 2).edges
                       if len({e[0] // 4, e[1] // 4}) == 2 and (set(e) & loose)}
    assert template_closure(g, 3, 2).percolated


def test_spartite_tight_parts_give_complete_graph():
    assert spartite_gadget(2, 3, (3, 3)) == complete_graph(6, 2)


def test_spartite_rejections():
    with pytest.raises(ValueError):
        spartite_gadget(2, 3, (2, 4))  # part below h
    with pytest.raises(ValueError):
        spartite_gadget(2, 3, (4,))  # fewer than 2 parts
    with pytest.raises(ValueError):
        spartite_gadget(2, 3, (4, 4, 4))  # more parts than r


def test_percolate_small_example():
    e1, e2 = percolate_gadget(2, 3, 2, 3, 3)
    assert len(e2) <= 2 * 27 * 2 * 1
    result = template_closure(Hypergraph(9, 2, e1 | e2), 3, 2)
    assert result.percolated and percolate_bound(e2, 2, 3, 2, 3, 3).holds
    # extras live on rigid pairs across a group including the last cluster
    for e in e2:
        clusters_hit = {v // 3 for v in e}
        assert len(clusters_hit) == 2 and 2 in clusters_hit


def test_percolate_single_group_when_clusters_equal_s():
    e1, e2 = percolate_gadget(2, 3, 2, 2, 4)
    assert e2 == frozenset(spartite_gadget(2, 3, (4, 4)).edges - e1)


def test_percolate_rejections():
    with pytest.raises(ValueError):
        percolate_gadget(2, 3, 2, 1, 4)
    with pytest.raises(ValueError):
        percolate_gadget(2, 3, 2, 3, 2)


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
    result = main_construction(K3, 12, 4, STAR4, cover)
    assert is_weakly_saturated(result.graph, K3)
    assert len(cover.blocks) == 3
    assert result.copies_edge_count == 9
    assert all(b.holds for b in result.bounds)
    assert result.copies_edge_count <= len(cover.blocks) * STAR4.edge_count


def test_main_construction_leaves_the_seed_and_cover_to_its_caller():
    """An unsaturated seed or a cover that misses a t-set is the caller's
    fault: the graph is built, and the caller's closure rejects it."""
    cover = greedy_cover(3, 1, 1)
    bad_seed = Hypergraph(4, 2, [(0, 1)])
    result = main_construction(K3, 12, 4, bad_seed, cover)
    assert result.graph.n == 12 and result.copies_edge_count == 3
    assert not is_weakly_saturated(result.graph, K3)

    short = CoverDesign(3, 1, 1, ((0,), (1,)))
    result = main_construction(K3, 12, 4, STAR4, short)
    assert result.copies_edge_count == 2 * STAR4.edge_count
    assert not is_weakly_saturated(result.graph, K3)


def test_main_construction_named_invariant_failures():
    cover = greedy_cover(3, 1, 1)
    with pytest.raises(ValueError, match="clusters"):
        # single cluster: n = m
        main_construction(K3, 4, 4, STAR4, greedy_cover(1, 1, 1))
    with pytest.raises(ValueError, match="multiple"):
        main_construction(K3, 13, 4, STAR4, cover)
    with pytest.raises(ValueError, match="cover must have"):
        main_construction(K3, 12, 4, STAR4, greedy_cover(4, 1, 1))


def test_main_clusters():
    assert main_clusters(12, 4, 2, 3) == (4, 4, 3, 1)
    assert main_clusters(16, 16, 3, 4) == (4, 16, 4, 4)
    assert main_clusters(15, 5, 3, 3) == (3, 9, 5, 3)  # c = ceil(sqrt(5))
    for n, m1, s, h, match in ((0, 0, 2, 3, "--n"), (12, 0, 2, 3, "--m1"),
                               (13, 4, 2, 3, "multiple"), (4, 4, 2, 3, "clusters"),
                               (12, 4, 1, 3, "sparseness"),
                               (15, 5, 3, 4, "cluster size 3 below h=4")):
        with pytest.raises(ValueError, match=match):
            main_clusters(n, m1, s, h)


def test_main_construction_s3():
    # sparseness-3 pattern: single cluster size must be a perfect square root
    pattern = make_pattern(complete_graph(4, 3))
    assert pattern.s == 3
    seed = clique_extremal(16, 4, 3)
    cover = greedy_cover(4, 4, 2)
    result = main_construction(pattern, 16, 16, seed, cover)
    assert is_weakly_saturated(result.graph, pattern)
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
    # what wsat_upper_witness's padded base rests on: clique_extremal(n, h, r)
    # percolates under every pattern on h vertices that has an edge
    for r in (2, 3):
        for h in range(r, 5):
            universe = edge_universe(h, r)
            for size in range(1, len(universe) + 1):
                for edges in combinations(universe, size):
                    pattern = make_pattern(Hypergraph(h, r, edges))
                    for n in (h, h + 2):
                        assert is_weakly_saturated(clique_extremal(n, h, r),
                                                   pattern), (n, edges)


def test_clique_extremal_t_equals_r_is_empty():
    g = clique_extremal(5, 2, 2)
    assert g.edge_count == 0
    assert is_weakly_saturated(g, make_pattern(complete_graph(2, 2)))
    with pytest.raises(ValueError):
        clique_extremal(4, 5, 2)


def test_gadget_outputs_reverify_under_template_closure():
    # a couple of r=3 instances exercising the hypergraph path
    g = cone_gadget(3, 4, 3, 5, 3)
    assert template_closure(g, 4, 3).percolated
    assert cone_bound(g, 4, 3, 5).holds

    assert template_closure(spartite_gadget(3, 4, (4, 4, 4)), 4, 3).percolated

    e1, e2 = percolate_gadget(3, 4, 2, 3, 4)
    assert template_closure(Hypergraph(12, 3, e1 | e2), 4, 2).percolated
    assert percolate_bound(e2, 3, 4, 2, 3, 4).holds


# -- the universe-filtering gadget builders, kept as oracles --------------------
#
# The gadgets enumerate their edges; these are the builders that scanned the
# whole C(n, r) universe and kept the edges passing each gadget's test.

def oracle_near_anchor_edges(n: int, r: int, s: int, inner: int,
                             anchor: tuple[int, ...]) -> set:
    """Edges not inside {0..inner-1} with at most s - 1 vertices off the anchor."""
    anchor_set = set(anchor)
    out = set()
    for e in edge_universe(n, r):
        if e[-1] < inner:
            continue
        if sum(1 for v in e if v not in anchor_set) <= s - 1:
            out.add(e)
    return out


def oracle_spartite_edges(n: int, r: int, parts, rigid_sets, h: int) -> set:
    """Edge set of the s-partite gadget on the given parts, inside the (n, r)
    universe; edges leaving the union of the parts are not included."""
    s = len(parts)
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    rigid = set()
    for rs in rigid_sets:
        rigid.update(rs)
    edges = set()
    for e in edge_universe(n, r):
        if any(v not in part_of for v in e):
            continue
        hit = {part_of[v] for v in e}
        if len(hit) < s:
            edges.add(e)
        elif sum(1 for v in e if v in rigid) >= r - s + 2:
            edges.add(e)
    return edges


def interval_layout(sizes, h: int):
    """(parts, rigid sets): consecutive intervals of the given sizes from
    vertex 0, and the first h vertices of each."""
    parts = []
    for size in sizes:
        start = parts[-1][-1] + 1 if parts else 0
        parts.append(tuple(range(start, start + size)))
    return parts, [p[:h] for p in parts]


def oracle_percolate_gadget(r: int, h: int, s: int, clusters: int, size: int):
    """(E1, E2): E1 = edges meeting at most s - 1 clusters; E2 = union over
    (s-1)-groups Q of the first clusters of the spartite extras on the parts
    {cluster q : q in Q} plus the last cluster, minus what E1 already has."""
    n = clusters * size
    cluster, rigid = interval_layout([size] * clusters, h)
    e1 = set()
    for e in edge_universe(n, r):
        if len({v // size for v in e}) <= s - 1:
            e1.add(e)
    e2 = set()
    last = clusters - 1
    for q_group in combinations(range(last), s - 1):
        group = tuple(q_group) + (last,)
        parts = [cluster[i] for i in group]
        rigid_sets = [rigid[i] for i in group]
        extras = oracle_spartite_edges(n, r, parts, rigid_sets, h)
        e2 |= extras - e1
    return frozenset(e1), frozenset(e2)


RS_GRID = [(r, s) for r in range(2, 5) for s in range(2, r + 1)]


def assert_split_matches_oracle(n: int, r: int, parts, rigid_sets, h: int) -> set:
    """Both sides of _spartite_split against the oracle: the r-sets of the
    union that meet every part, split into the ones the oracle keeps (rich)
    and the ones it drops (poor).  Returns the oracle's edge set."""
    expected = oracle_spartite_edges(n, r, parts, rigid_sets, h)
    union = set(combinations(sorted(set().union(*parts)), r))
    meets = {e for e in union if all(set(e).intersection(p) for p in parts)}
    rich = list(_spartite_split(r, parts, rigid_sets, True))
    poor = list(_spartite_split(r, parts, rigid_sets, False))
    assert len(set(rich)) == len(rich) and len(set(poor)) == len(poor)
    assert set(rich) == meets & expected
    assert set(poor) == meets - expected
    assert union.difference(poor) == expected
    return expected


@pytest.mark.parametrize("r,s", RS_GRID)
def test_spartite_edges_match_universe_filter(r, s):
    for h in (r, r + 1):
        # uneven part sizes, largest first, last and in the middle
        for extra in ((2, 0, 1, 3), (0, 1, 3, 0), (1, 3, 0, 2)):
            sizes = [h + x for x in extra[:s]]
            expected = assert_split_matches_oracle(sum(sizes), r,
                                                   *interval_layout(sizes, h), h)
            assert spartite_gadget(r, h, sizes).edges == expected
    # parts that are not intervals, with vertices left out of every part
    n = 3 * s + 4
    parts = [tuple(range(i, n - 1, s)) for i in range(s)]
    rigid = [p[: r - 1] for p in parts]
    assert_split_matches_oracle(n, r, parts, rigid, r - 1)


@pytest.mark.parametrize("r,s", RS_GRID)
def test_near_anchor_edges_match_universe_filter(r, s):
    for h in range(r, r + 3):
        for inner in range(h, h + 4):
            for n in range(inner, inner + 5):
                assert _near_anchor_edges(n, r, s, h, inner) == \
                    oracle_near_anchor_edges(n, r, s, inner, tuple(range(h)))


@pytest.mark.parametrize("r,s", RS_GRID)
def test_percolate_gadget_matches_universe_filter(r, s):
    for h in (r, r + 1):
        for clusters in (s, s + 1, s + 2):
            for size in (h, h + 1):
                if comb(clusters * size, r) > 30_000:
                    continue
                params = r, h, s, clusters, size
                e1, e2 = percolate_gadget(*params)
                assert (e1, e2) == oracle_percolate_gadget(*params)
                # what lets E2 be a plain union of the groups' extras: they
                # miss E1 and are pairwise disjoint across groups
                assert not e1 & e2
                last = clusters - 1
                cluster, rigid = interval_layout([size] * clusters, h)
                extras = [set(_spartite_split(r, [cluster[i] for i in g],
                                              [rigid[i] for i in g], True))
                          for g in (q + (last,)
                                    for q in combinations(range(last), s - 1))]
                for a, b in combinations(extras, 2):
                    assert not a & b
                assert set().union(*extras) == e2


def test_gadgets_match_universe_filter_at_workload_size():
    assert spartite_gadget(3, 5, (12, 12, 12)).edges == \
        oracle_spartite_edges(36, 3, *interval_layout((12, 12, 12), 5), 5)
    # the cone gadgets 3-2-6-20-15 and 3-3-4-16-12 (r, s, h, size_a, size_b)
    assert _near_anchor_edges(35, 3, 2, 6, 20) == \
        oracle_near_anchor_edges(35, 3, 2, 20, tuple(range(6)))
    assert _near_anchor_edges(28, 3, 3, 4, 16) == \
        oracle_near_anchor_edges(28, 3, 3, 16, tuple(range(4)))
    assert percolate_gadget(3, 4, 3, 6, 5) == oracle_percolate_gadget(3, 4, 3, 6, 5)
