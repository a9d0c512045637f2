"""The exact solver against the blind colex scan it replaced, closed forms
and pinned values; upper bounds and ratio tables."""

import random
from itertools import combinations
from math import comb

import pytest

from wsat import (
    Hypergraph,
    certificate_to_text,
    clique_wsat_value,
    closure,
    complete_graph,
    graph_of_mask,
    is_weakly_saturated,
    make_pattern,
    padding_bound,
    ratio_table,
    verify_certificate,
    wsat_exact,
    wsat_upper,
    wsat_upper_witness,
    witness_index,
)
from wsat.hypergraph import edge_universe
from wsat.solver import MAX_SOLVER_UNIVERSE, _transposition_tables


def rank_table(n, r):
    """Edge -> colex rank, by tuple: the lookup the oracles were written with."""
    return {e: i for i, e in enumerate(edge_universe(n, r))}


K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
K43 = make_pattern(complete_graph(4, 3))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
SINGLE_EDGE = make_pattern(complete_graph(2, 2))
EDGE_1 = make_pattern(complete_graph(1, 1))
TWO_VERTEX_1 = make_pattern(Hypergraph(2, 1, [(0,), (1,)]))


def colex_combinations(universe: int, size: int):
    """All size-subsets of range(universe) as increasing tuples, in colex order."""
    if size == 0:
        yield ()
        return
    if size > universe:
        return
    idx = list(range(size))
    while True:
        yield tuple(idx)
        i = 0
        while i + 1 < size and idx[i] + 1 == idx[i + 1]:
            i += 1
        if idx[i] + 1 == universe:
            return
        idx[i] += 1
        for j in range(i):
            idx[j] = j


def blind_wsat_exact(n, pattern):
    """Oracle: every edge count in turn, every subset of that size in colex
    order; the first percolating subset gives the value and the witness mask."""
    idx = witness_index(n, pattern)
    for m in range(idx.universe + 1):
        for ranks in colex_combinations(idx.universe, m):
            mask = sum(1 << rk for rk in ranks)
            if idx.close(mask) == idx.full_mask:
                return m, mask
    raise AssertionError("unreachable: the complete graph percolates")


def test_colex_combinations_order():
    got = list(colex_combinations(4, 2))
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(colex_combinations(3, 0)) == [()]
    assert list(colex_combinations(2, 3)) == []
    assert len(list(colex_combinations(10, 4))) == comb(10, 4)


@pytest.mark.parametrize("n,t,r", [(4, 3, 2), (5, 3, 2), (6, 3, 2),
                                   (4, 4, 2), (5, 4, 2), (5, 4, 3),
                                   (5, 5, 3), (4, 4, 3), (3, 3, 3)])
def test_exact_matches_clique_formula(n, t, r):
    # the central correctness anchor, universes up to C(6,2) = 15
    pattern = make_pattern(complete_graph(t, r))
    result = wsat_exact(n, pattern)
    assert result.status == "exact"
    assert result.value == clique_wsat_value(n, t, r)
    assert result.witness.edge_count == result.value
    assert is_weakly_saturated(result.witness, pattern)
    assert verify_certificate(result.witness, pattern, result.certificate)


def test_exact_single_edge_pattern_is_zero():
    result = wsat_exact(5, SINGLE_EDGE)
    assert result.value == 0
    assert result.witness.edge_count == 0


def test_exact_triangle_pendant():
    for n in (4, 5):
        result = wsat_exact(n, TRI_PENDANT)
        assert result.value == 3


def _random_patterns(rng, h, r, count):
    all_edges = list(combinations(range(h), r))
    seen = set()
    for _ in range(count):
        edges = tuple(e for e in all_edges if rng.random() < 0.5) or (all_edges[0],)
        if edges not in seen:
            seen.add(edges)
            yield make_pattern(Hypergraph(h, r, edges))


def _differential_cases():
    patterns = [EDGE_1, TWO_VERTEX_1]
    rng = random.Random(2024)
    for r, heights in ((2, range(2, 6)), (3, range(3, 6))):
        for h in heights:
            patterns.extend(_random_patterns(rng, h, r, 4))
    for pattern in patterns:
        n = pattern.r
        while comb(n, pattern.r) <= 20:
            yield n, pattern
            n += 1


def seed_transposition_tables(n, r):
    """_transposition_tables as first written: each transposition applied to
    every edge tuple, sorted and looked up by tuple."""
    universe = edge_universe(n, r)
    ranks = rank_table(n, r)
    swaps = []
    for a, b in combinations(range(n), 2):
        swap = {a: b, b: a}
        swaps.append((a, b, tuple(ranks[tuple(sorted(swap.get(v, v) for v in f))]
                                  for f in universe)))
    return tuple(tuple(t for a, b, t in swaps if (a in e) != (b in e))
                 for e in universe)


def test_transposition_tables_match_seed_construction():
    cases = 0
    for r in range(1, MAX_SOLVER_UNIVERSE + 1):
        n = r
        while comb(n, r) <= MAX_SOLVER_UNIVERSE:
            assert (_transposition_tables(n, r)
                    == seed_transposition_tables(n, r)), (n, r)
            cases += 1
            n += 1
    assert cases > 60


def test_exact_matches_blind_scan():
    cases = 0
    for n, pattern in _differential_cases():
        value, mask = blind_wsat_exact(n, pattern)
        result = wsat_exact(n, pattern)
        label = (n, pattern.graph.sorted_edges)
        assert result.status == "exact", label
        assert (result.value, result.witness.mask) == (value, mask), label
        expected = closure(graph_of_mask(n, pattern.r, mask), pattern).certificate
        assert (certificate_to_text(result.certificate)
                == certificate_to_text(expected)), label
        cases += 1
    assert cases > 100


def test_exact_k4_n7_witness():
    result = wsat_exact(7, K4)
    assert result.value == 11
    star = [(u, v) for v in range(3, 7) for u in (0, 1)]
    assert result.witness.edges == frozenset([(0, 1), (0, 2), (1, 2)] + star)
    assert result.witness.mask == 101599  # the blind scan's witness


def test_exact_k4_n8_matches_clique_formula():
    result = wsat_exact(8, K4)
    assert result.value == clique_wsat_value(8, 4, 2) == 13
    assert verify_certificate(result.witness, K4, result.certificate)


def test_budget_exhaustion_is_explicit():
    result = wsat_exact(6, K3, budget=10)
    assert result.status == "inconclusive"
    assert result.value is None and result.witness is None
    assert result.excluded_up_to == 2  # counts 0..2 refuted, 3 in progress
    assert result.explored == 10

    # one closure short: the budget runs out in the witness search
    done = wsat_exact(6, K3)
    late = wsat_exact(6, K3, budget=done.explored - 1)
    assert late.status == "inconclusive"
    assert late.value is None and late.witness is None
    assert late.excluded_up_to == done.value - 1
    assert late.explored == done.explored - 1

    with pytest.raises(ValueError):
        wsat_exact(6, K3, budget=0)


def test_solver_universe_limit():
    with pytest.raises(ValueError, match="solver limit"):
        wsat_exact(9, K3)  # C(9,2) = 36 > 30


def test_upper_bounds():
    assert wsat_upper(6, TRI_PENDANT) == 6  # clique on h=4 vertices
    assert wsat_upper(6, K3) == 5
    assert wsat_upper(4, K4) == comb(4, 2) - 1
    value, witness = wsat_upper_witness(6, K3)
    assert witness.edge_count == value
    assert is_weakly_saturated(witness, K3)


def test_exact_below_upper():
    for n, pattern in [(4, K3), (5, K3), (6, K3), (5, K4), (5, K43),
                       (5, TRI_PENDANT), (4, SINGLE_EDGE)]:
        exact = wsat_exact(n, pattern).value
        assert exact <= wsat_upper(n, pattern)


def test_padding_inequality_with_exact_values():
    # wsat(k1 + k2) <= wsat(k1) + r * h^r * k1^(s-2) * k2 on solver values
    triples = [(K3, 4, 1), (K3, 4, 2), (K3, 5, 1), (K4, 4, 1), (K43, 4, 1)]
    for pattern, k1, k2 in triples:
        lhs = wsat_exact(k1 + k2, pattern).value
        rhs = wsat_exact(k1, pattern).value + (
            pattern.r * pattern.h ** pattern.r * k1 ** (pattern.s - 2) * k2)
        assert lhs <= rhs


def test_ratio_table_k3():
    rows = ratio_table(K3, range(3, 9))
    assert [row.value for row in rows] == [2, 3, 4, 5, 6, 7]
    expected = [(n - 1) / n for n in range(3, 9)]
    for row, want in zip(rows, expected):
        assert abs(row.ratio - want) < 1e-12
    assert [row.method for row in rows] == ["exact"] * 4 + ["upper"] * 2


def test_ratio_table_single_edge_all_zero():
    rows = ratio_table(SINGLE_EDGE, range(2, 7))
    assert all(row.value == 0 and row.ratio == 0 for row in rows)


def test_ratio_table_k43():
    rows = ratio_table(K43, range(5, 8))
    assert [row.value for row in rows] == [comb(n - 1, 2) for n in (5, 6, 7)]
    for row in rows:
        assert abs(row.ratio - comb(row.n - 1, 2) / row.n ** 2) < 1e-12
