"""The exact solver against the blind colex scan it replaced, closed forms
and pinned values; upper bounds and ratio tables."""

import random
from itertools import combinations
from math import comb

import pytest

from wsat.constructions import clique_extremal, padded_example, s1_construction
from wsat.hypergraph import Hypergraph, complete_graph, edge_universe, graph_of_mask
from wsat.percolation import (
    certificate_to_text,
    clique_wsat_value,
    closure,
    is_weakly_saturated,
    verify_certificate,
    witness_index,
)
from wsat.solver import (
    MAX_SOLVER_UNIVERSE,
    _transposition_tables,
    exact_or_upper,
    ratio_table,
    wsat_exact,
    wsat_upper_witness,
)
from wsat.templates import make_pattern


def rank_table(n, r):
    """Edge -> colex rank, by tuple: the lookup the oracles were written with."""
    return {e: i for i, e in enumerate(edge_universe(n, r))}


K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
K43 = make_pattern(complete_graph(4, 3))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
C4 = make_pattern(Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]))
K4_MINUS_E = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]))
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
    cert = closure(result.witness, pattern).certificate
    assert verify_certificate(result.witness, pattern, cert)


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
        cert = closure(result.witness, pattern).certificate
        assert certificate_to_text(cert) == certificate_to_text(expected), label
        cases += 1
    assert cases > 100


def test_exact_k4_n7_witness():
    result = wsat_exact(7, K4)
    assert result.value == 11
    star = [(u, v) for v in range(3, 7) for u in (0, 1)]
    assert result.witness.edges == frozenset([(0, 1), (0, 2), (1, 2)] + star)
    assert result.witness.mask == 101599  # the blind scan's witness


@pytest.mark.parametrize("n,pattern,value,explored", [
    (6, K4, 9, 173), (6, C4, 6, 80), (7, C4, 7, 217), (6, K4_MINUS_E, 6, 87),
    (5, K43, 6, 40), (6, K43, 10, 1516)])
def test_exact_work_is_pinned(n, pattern, value, explored):
    # explored pins the exact form of phase 1's cut (chosen ranks plus every
    # rank from e up): a cut that left e out would return the same values and
    # witnesses here after fewer closures, but is not proved sound
    result = wsat_exact(n, pattern)
    assert (result.value, result.explored) == (value, explored)


def test_exact_k4_n8_matches_clique_formula():
    result = wsat_exact(8, K4)
    assert result.value == clique_wsat_value(8, 4, 2) == 13
    cert = closure(result.witness, K4).certificate
    assert verify_certificate(result.witness, K4, cert)


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
    assert wsat_upper_witness(6, TRI_PENDANT).edge_count == 6  # clique on h=4 vertices
    assert wsat_upper_witness(6, K3).edge_count == 5
    assert wsat_upper_witness(4, K4).edge_count == comb(4, 2) - 1
    assert is_weakly_saturated(wsat_upper_witness(6, K3), K3)


# K4^3 - e and the tight 5-cycle C5^3, where padding half of the vertices
# beats clique_extremal on all of them: (n, pattern, padded, clique_extremal)
K43_MINUS_E = make_pattern(Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]))
C53 = make_pattern(Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4),
                                     (0, 1, 4)]))


@pytest.mark.parametrize("n, pattern, padded, extremal",
                         [(11, K43_MINUS_E, 40, 45), (10, C53, 59, 64)],
                         ids=["K4^3-e", "C5^3"])
def test_upper_witness_takes_the_padded_candidate(n, pattern, padded, extremal):
    assert pattern.s >= 2
    k1 = max(pattern.h, -(-n // 2))
    expected = padded_example(clique_extremal(k1, pattern.h, 3), n - k1, pattern)
    witness = wsat_upper_witness(n, pattern)
    assert witness == expected
    assert witness.edge_count == padded
    assert clique_extremal(n, pattern.h, 3).edge_count == extremal
    assert is_weakly_saturated(witness, pattern)


def upper_candidates(n, pattern):
    """The graphs wsat_upper_witness chooses from, in the order it builds them."""
    r, h, s = pattern.r, pattern.h, pattern.s
    candidates = [complete_graph(n, r) if n >= r else Hypergraph(n, r)]
    if n >= h:
        candidates.append(clique_extremal(n, h, r))
        if s == 1:
            candidates.append(s1_construction(pattern, n))
        k1 = max(h, (n + 1) // 2)
        if s >= 2 and 0 < n - k1 <= k1:
            candidates.append(padded_example(clique_extremal(k1, h, r), n - k1,
                                             pattern))
    return candidates


def upper_oracle(n, pattern):
    """Close every candidate; keep the first of least edge count that
    percolates.  Returns it and the number of candidates closed."""
    candidates = upper_candidates(n, pattern)
    best = None
    for g in candidates:
        if is_weakly_saturated(g, pattern):
            if best is None or g.edge_count < best.edge_count:
                best = g
    return best, len(candidates)


@pytest.mark.parametrize("pattern", [
    K3, K4, K43, make_pattern(complete_graph(5, 3)), TRI_PENDANT, C4, K43_MINUS_E,
    make_pattern(complete_graph(3, 3))],
    ids=["K3", "K4", "K4^3", "K5^3", "triangle+pendant", "C4", "K4^3-e", "edge^3"])
def test_upper_witness_matches_close_every_candidate(monkeypatch, pattern):
    import wsat.solver as solver
    calls = 0

    def counted(g, p):
        nonlocal calls
        calls += 1
        return is_weakly_saturated(g, p)

    monkeypatch.setattr(solver, "is_weakly_saturated", counted)
    for n in range(14):
        expected, closed = upper_oracle(n, pattern)
        calls = 0
        assert wsat_upper_witness(n, pattern) == expected, n
        assert calls <= closed, n


def test_upper_witness_builds_no_complete_graph_from_h_on(monkeypatch):
    """For n >= h, clique_extremal beats the complete graph, which is then
    never built; below h it is the answer, closed by no engine."""
    import wsat.solver as solver
    built = []

    def recorded(n, r):
        built.append(n)
        return complete_graph(n, r)

    monkeypatch.setattr(solver, "complete_graph", recorded)
    for pattern in (K3, K43, TRI_PENDANT, C4):
        for n in range(pattern.h, 10):
            wsat_upper_witness(n, pattern)
    assert built == []
    monkeypatch.setattr(solver, "is_weakly_saturated", None)
    assert wsat_upper_witness(3, K4) == complete_graph(3, 2)
    assert wsat_upper_witness(2, K43) == Hypergraph(2, 3)
    assert built == [3]


def test_exact_below_upper():
    for n, pattern in [(4, K3), (5, K3), (6, K3), (5, K4), (5, K43),
                       (5, TRI_PENDANT), (4, SINGLE_EDGE)]:
        exact = wsat_exact(n, pattern).value
        assert exact <= wsat_upper_witness(n, pattern).edge_count


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


def test_exact_or_upper_decides_in_one_place():
    assert exact_or_upper(6, K3) == (wsat_exact(6, K3).witness, "exact")
    # out of budget, or a universe above EXACT_TABLE_UNIVERSE (C(7, 2) = 21)
    assert exact_or_upper(6, K3, budget=10) == (wsat_upper_witness(6, K3), "upper")
    assert exact_or_upper(7, K3) == (wsat_upper_witness(7, K3), "upper")


def test_ratio_table_single_edge_all_zero():
    rows = ratio_table(SINGLE_EDGE, range(2, 7))
    assert all(row.value == 0 and row.ratio == 0 for row in rows)


def test_ratio_table_k43():
    rows = ratio_table(K43, range(5, 8))
    assert [row.value for row in rows] == [comb(n - 1, 2) for n in (5, 6, 7)]
    for row in rows:
        assert abs(row.ratio - comb(row.n - 1, 2) / row.n ** 2) < 1e-12
