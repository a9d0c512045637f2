"""Exact weak saturation numbers by search, plus engine-verified upper bounds.

wsat_exact finds the least edge count m* of a percolating r-graph in two
phases over WitnessIndex.close, and returns the colex-least witness.

1. Refute edge counts level by level on sorted rank tuples.  A tuple grows
   by a rank above its last one, and survives only if the new rank is not
   in the closure so far (minimum percolating sets are independent), no
   vertex transposition maps it to a lexicographically smaller sorted tuple,
   and adding every higher rank still percolates.  Dropping the largest rank
   of an S_n-lex-least tuple leaves an S_n-lex-least tuple (orderly
   generation, Read 1978), and closure commutes with relabelling, so every
   prefix of the canonical form of a minimum set survives; the first level
   with a percolating tuple is m*.
2. At level m* only, a DFS in colex order (largest rank first, ascending)
   with no symmetry reduction returns the first percolating set.  It skips
   ranks already in the closure of the chosen ones, and starts each loop at
   the least rank e for which the chosen ranks plus all of [0, e] percolate.

The budget counts closure calls; when it runs out the result says which
edge counts were fully refuted instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .constructions import clique_extremal, padded_example, s1_construction
from .hypergraph import (
    Hypergraph,
    Pattern,
    complete_graph,
    graph_of_mask,
    mask_rank_table,
)
from .percolation import (
    SaturationCertificate,
    closure,
    is_weakly_saturated,
    witness_index,
)

DEFAULT_BUDGET = 10_000_000
MAX_SOLVER_UNIVERSE = 30
EXACT_TABLE_UNIVERSE = 20  # ratio_table switches to upper bounds beyond this


@dataclass(frozen=True)
class WsatResult:
    """Outcome of an exact search.

    status is "exact" when the search finished; "inconclusive" means the
    budget ran out and only edge counts up to excluded_up_to are ruled out.
    explored counts the closure checks (WitnessIndex.close calls) made.
    """

    value: int | None
    witness: Hypergraph | None
    certificate: SaturationCertificate | None
    explored: int
    status: str
    excluded_up_to: int | None = None


@lru_cache(maxsize=64)
def _transposition_tables(n: int, r: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each colex rank e, the rank permutations induced by the vertex
    transpositions that move edge e: one vertex in e, the other outside.

    A transposition fixing e setwise cannot map a tuple ending in e below
    itself unless it maps the tuple without e below that, so a tuple grown
    from a transposition-least parent need only be tested against these.
    """
    rank_of = mask_rank_table(n, r)
    swaps = []
    for a, b in combinations(range(n), 2):
        # the transposition moves edge m iff m holds exactly one of a, b
        ab = 1 << a | 1 << b
        swaps.append((ab, tuple([rank_of[m ^ ab] if m & ab not in (0, ab) else i
                                 for m, i in rank_of.items()])))
    return tuple(tuple(t for ab, t in swaps if m & ab not in (0, ab))
                 for m in rank_of)


def _transposition_least(ranks: tuple[int, ...], tables) -> bool:
    key = list(ranks)
    for t in tables:
        if sorted(map(t.__getitem__, ranks)) < key:
            return False
    return True


class _OutOfBudget(Exception):
    pass


def _refuted_levels(root: int, close, full: int, tables):
    """Yield 0, 1, 2, ... as each edge count is refuted; stop at the first
    count that some surviving rank tuple percolates at."""
    if root == full:
        return
    universe = full.bit_length()
    frontier = [((), root)]
    level = 0
    while frontier:
        yield level
        level += 1
        children = []
        for ranks, cl in frontier:
            last = ranks[-1] if ranks else -1
            for e in range(last + 1, universe):
                if cl >> e & 1:
                    continue
                child = ranks + (e,)
                if not _transposition_least(child, tables[e]):
                    continue
                # descendants only add ranks above e; at e = last + 1 this
                # is the cut the parent itself passed
                if e > last + 1 and close(cl | full >> e << e) != full:
                    break  # and for every larger e, by monotonicity
                child_cl = close(cl | 1 << e)
                if child_cl == full:
                    return
                children.append((child, child_cl))
        frontier = children
    raise AssertionError("unreachable: the complete graph percolates")


def _colex_least(root: int, close, full: int, size: int) -> int:
    """Mask of the colex-least percolating set of `size` ranks, given that
    no smaller set percolates."""

    def extend(chosen: int, cl: int, k: int, hi: int) -> int | None:
        # choose k more ranks below hi, the largest first; cl plus every
        # rank below hi is known to percolate
        if k == 0:
            return chosen if cl == full else None
        lo, top = k - 1, hi - 1
        while lo < top:  # least e for which cl plus all of [0, e] percolates
            mid = (lo + top) // 2
            if close(cl | (2 << mid) - 1) == full:
                top = mid
            else:
                lo = mid + 1
        for e in range(lo, hi):
            if cl >> e & 1:
                continue  # dependent: the set would close like a smaller one
            found = extend(chosen | 1 << e, close(cl | 1 << e), k - 1, e)
            if found is not None:
                return found
        return None

    found = extend(0, root, size, full.bit_length())
    assert found is not None, "some set of the least percolating size percolates"
    return found


def wsat_exact(n: int, pattern: Pattern, budget: int = DEFAULT_BUDGET
               ) -> WsatResult:
    """Smallest edge count of a weakly saturated r-graph on n vertices,
    established by exhaustive search, with the colex-least witness."""
    universe = comb(n, pattern.r)
    if universe > MAX_SOLVER_UNIVERSE:
        raise ValueError(
            f"edge universe C({n},{pattern.r}) = {universe} exceeds the "
            f"solver limit {MAX_SOLVER_UNIVERSE}")
    if budget < 1:
        raise ValueError("budget must be positive")
    idx = witness_index(n, pattern)
    full = idx.full_mask
    explored = 0

    def close(mask: int) -> int:
        nonlocal explored
        if explored == budget:
            raise _OutOfBudget
        explored += 1
        return idx.close(mask)

    refuted = -1
    try:
        root = close(0)
        tables = _transposition_tables(n, pattern.r)
        for refuted in _refuted_levels(root, close, full, tables):
            pass
        mask = _colex_least(root, close, full, refuted + 1)
    except _OutOfBudget:
        return WsatResult(None, None, None, explored, "inconclusive", refuted)
    witness = graph_of_mask(n, pattern.r, mask)
    cert = closure(witness, pattern).certificate
    return WsatResult(refuted + 1, witness, cert, explored, "exact")


def wsat_upper_witness(n: int, pattern: Pattern) -> tuple[int, Hypergraph]:
    """Best engine-verified upper bound among the generator pipelines, with
    the graph achieving it."""
    r, h, s = pattern.r, pattern.h, pattern.s
    candidates: list[Hypergraph] = []
    if n >= r:
        candidates.append(complete_graph(n, r))
    else:
        candidates.append(Hypergraph(n, r))  # empty universe, vacuously complete
    if n >= h:
        candidates.append(clique_extremal(n, h, r))
        if s == 1:
            candidates.append(s1_construction(pattern, n))
        if s >= 2:
            k1 = max(h, (n + 1) // 2)
            k2 = n - k1
            if 0 < k2 <= k1:
                candidates.append(padded_example(clique_extremal(k1, h, r),
                                                 k2, pattern))
    best = None
    for g in candidates:
        if is_weakly_saturated(g, pattern):
            if best is None or g.edge_count < best.edge_count:
                best = g
    assert best is not None  # the complete graph always qualifies
    return best.edge_count, best


def wsat_upper(n: int, pattern: Pattern) -> int:
    return wsat_upper_witness(n, pattern)[0]


@dataclass(frozen=True)
class RatioRow:
    n: int
    value: int
    ratio: float
    method: str  # "exact" | "upper"


def ratio_table(pattern: Pattern, sizes, budget: int = DEFAULT_BUDGET
                ) -> list[RatioRow]:
    """Normalized values value / n^(s-1) across sizes, exact where the
    universe is small enough and upper bounds elsewhere.  The ratio is
    undefined at n = 0 unless s = 1, which raises ValueError."""
    s = pattern.s
    rows = []
    for n in sizes:
        if n == 0 and s > 1:
            raise ValueError(f"ratio value / n^(s-1) is undefined at n = 0 for s={s}")
        result = wsat_exact(n, pattern, budget) \
            if comb(n, pattern.r) <= EXACT_TABLE_UNIVERSE else None
        if result is not None and result.status == "exact":
            value, method = result.value, "exact"
        else:
            value, method = wsat_upper(n, pattern), "upper"
        rows.append(RatioRow(n, value, value / n ** (s - 1), method))
    return rows
