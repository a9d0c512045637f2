"""The witness index against a per-edge oracle and the direct search."""

import random

from hypothesis import given, settings, strategies as st

import wsat.percolation as percolation
from wsat import (
    Hypergraph,
    certificate_to_text,
    closure,
    complete_graph,
    creates_new_copy,
    edge_universe,
    make_pattern,
)
from wsat.hypergraph import rank_table
from wsat.percolation import WitnessIndex, _pinned_embeddings


class OracleWitnessIndex(WitnessIndex):
    """The witness index built by running the pinned search on every edge."""

    def __init__(self, n, pattern):
        self.n = n
        self.pattern = pattern
        universe = edge_universe(n, pattern.r)
        ranks = rank_table(n, pattern.r)
        self.universe = len(universe)
        self.full_mask = (1 << self.universe) - 1
        pat_edges = pattern.graph.sorted_edges
        masks: list[list[int]] = []
        mappings: list[list[tuple[int, ...]]] = []
        for e in universe:
            entry_masks: list[int] = []
            entry_maps: list[tuple[int, ...]] = []
            seen: set[int] = set()
            if pattern.h <= n:
                e_set = set(e)
                for assignment in _pinned_embeddings(pattern, e, n,
                                                     lambda img: True):
                    req = 0
                    for pe in pat_edges:
                        img = tuple(sorted(assignment[w] for w in pe))
                        if set(img) != e_set:
                            req |= 1 << ranks[img]
                    if req not in seen:
                        seen.add(req)
                        entry_masks.append(req)
                        entry_maps.append(tuple(assignment[v]
                                                for v in range(pattern.h)))
            masks.append(entry_masks)
            mappings.append(entry_maps)
        self._masks = masks
        self._mappings = mappings


def _graph(n, edges):
    return make_pattern(Hypergraph(n, 2, edges))


COMPLETE = {
    "K3": make_pattern(complete_graph(3, 2)),
    "K4": make_pattern(complete_graph(4, 2)),
    "K5": make_pattern(complete_graph(5, 2)),
    "K4^3": make_pattern(complete_graph(4, 3)),
}
NON_COMPLETE = {
    "K4-e": _graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "C4": _graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "W4": _graph(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                     (1, 2), (2, 3), (3, 4), (1, 4)]),
    "triangle+pendant": _graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
}


def _relabeled(pattern, rng):
    g = pattern.graph
    perm = rng.sample(range(g.n), g.n)
    return make_pattern(Hypergraph(g.n, g.r,
                                   [[perm[v] for v in e] for e in g.edges]))


def _cases():
    rng = random.Random(41)
    patterns = dict(COMPLETE)
    patterns.update(NON_COMPLETE)
    for name, pat in NON_COMPLETE.items():
        patterns[name + " relabeled"] = _relabeled(pat, rng)
    for name, pat in patterns.items():
        for n in range(pat.h, 9):
            yield name, n, pat
    # too few vertices for the pattern: every entry stays empty
    yield "K5", 4, COMPLETE["K5"]
    yield "K4^3", 3, COMPLETE["K4^3"]


def test_index_matches_per_edge_oracle():
    for name, n, pat in _cases():
        fast, oracle = WitnessIndex(n, pat), OracleWitnessIndex(n, pat)
        assert fast.universe == oracle.universe, (name, n)
        assert fast._masks == oracle._masks, (name, n)
        assert fast._mappings == oracle._mappings, (name, n)


def test_closure_certificates_match_oracle_backed_index(monkeypatch):
    rng = random.Random(7)
    cases = []
    for pat, n, r in [(COMPLETE["K4"], 8, 2), (COMPLETE["K4^3"], 7, 3),
                      (NON_COMPLETE["C5"], 7, 2),
                      (NON_COMPLETE["triangle+pendant"], 8, 2)]:
        for _ in range(3):
            edges = [e for e in edge_universe(n, r) if rng.random() < 0.3]
            cases.append((Hypergraph(n, r, edges), pat))
    fast = [certificate_to_text(closure(g, pat).certificate)
            for g, pat in cases]
    monkeypatch.setattr(percolation, "witness_index", OracleWitnessIndex)
    oracle = [certificate_to_text(closure(g, pat).certificate)
              for g, pat in cases]
    assert fast == oracle
    assert any(text.count("\n") > 1 for text in fast)


PROPERTY_PATTERNS = [COMPLETE["K3"], COMPLETE["K4"], COMPLETE["K4^3"],
                     *NON_COMPLETE.values()]


@st.composite
def graph_and_pattern(draw):
    pat = draw(st.sampled_from(PROPERTY_PATTERNS))
    r = pat.r
    n = draw(st.integers(min_value=pat.h, max_value=7))
    universe = edge_universe(n, r)
    present = draw(st.lists(st.booleans(), min_size=len(universe),
                            max_size=len(universe)))
    edges = [e for e, keep in zip(universe, present) if keep]
    return Hypergraph(n, r, edges), pat


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_and_pattern())
def test_first_witness_is_the_direct_search_witness(case):
    g, pat = case
    idx = percolation.witness_index(g.n, pat)
    ranks = rank_table(g.n, g.r)
    for e in edge_universe(g.n, g.r):
        if e in g.edges:
            continue
        direct = creates_new_copy(g, pat, e)
        found = idx.first_witness(ranks[e], g.mask)
        if direct is None:
            assert found is None
        else:
            assert found == direct.mapping
