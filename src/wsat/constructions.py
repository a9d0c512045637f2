"""Explicit weakly-saturated constructions and their per-instance bound checks.

Each generator builds the edge set of one construction:

  cone_gadget      clique on A plus all near-core edges touching B; bootstraps
                   every edge of A ∪ B once A is complete.
  padded_example   a weakly saturated graph on k1 vertices padded to k1 + k2
                   vertices with the cone gadget's extra edges.
  spartite_gadget  s parts; all edges missing a part, plus edges concentrated
                   on the designated h-subsets (at least r - s + 2 vertices).
  percolate_gadget many clusters; all edges meeting at most s - 1 clusters
                   are handled by covering groups of s clusters (the last one
                   always included) with spartite extras.
  s1_construction  a clique on h vertices suffices when sparseness is 1.
  main_construction copies of a small weakly saturated graph placed along the
                   blocks of a covering design, plus the percolate extras.
  clique_extremal  all edges meeting a fixed (t - r)-set; matches the
                   closed-form optimum for complete patterns.

Each generator takes its parameters directly and raises ValueError, naming
the one at fault, when they admit no construction.  The s-partite gadget,
the percolation gadget and main_construction share one layout (_intervals):
consecutive intervals of [n] from vertex 0, the first h vertices of each
being its rigid set.

The cone gadget and padding enumerate their extra edges, joining anchor
(r-j)-sets to off-anchor j-sets, and the percolation gadget's E1 is the
r-subsets of each union of s - 1 clusters.  The r-sets that meet every
part of an s-partite layout are enumerated once, part by part, and split by
their rigid count (_spartite_split): spartite_gadget drops the side with
fewer than r - s + 2 rigid vertices from the colex universe of [n], so its
graph is written without a sort, and the other side on each group of
clusters is that group's extras (_percolate_extras), which percolate_gadget
returns as E2 and main_construction adds to its copies without building E1.

Every generator's output is meant to percolate under the engine named in its
contract; the numbered edge-count bounds are evaluated as exact integer
inequalities and reported as BoundChecks, never assumed.  No construction
runs an engine, on its input or its output: the verdict's code closes the
finished graph once.  `wsat generate` runs template_closure(g, h, s) on a
gadget and is_weakly_saturated on a pattern construction, and passes when
that check and every BoundCheck hold.  wsat_upper_witness returns the
first of its candidates, by edge count, that percolates.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, filterfalse, product
from math import comb
from typing import Iterator

from .designs import CoverDesign
from .hypergraph import Edge, Hypergraph, Pattern, _Value, check_universe, edge_universe
from .percolation import clique_wsat_value
from .templates import _check_params


class BoundCheck(_Value):
    """One evaluated inequality lhs <= rhs (or identity lhs == rhs)."""

    _fields = ("name", "lhs", "rhs", "relation")

    def __init__(self, name: str, lhs: int, rhs: int, relation: str = "<="):
        self.__dict__.update(name=name, lhs=lhs, rhs=rhs, relation=relation)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs

    def as_report(self) -> str:
        return f"#BOUND {self.name} {self.lhs} {self.rhs} {str(self.holds).lower()}"


# -- cone gadget --------------------------------------------------------------

def _near_anchor_edges(n: int, r: int, s: int, h: int, inner: int) -> set[Edge]:
    """Edges not inside {0..inner-1} (inner >= h) with at most s - 1 vertices
    off the anchor {0..h-1}: an anchor (r-j)-set followed by an off-anchor
    j-set whose largest vertex is at least inner, for 1 <= j <= s - 1.  The
    anchor part comes first, so each concatenation is already sorted."""
    out = set()
    for j in range(1, s):
        anchored = list(combinations(range(h), r - j))
        for off in combinations(range(h, n), j):
            if off[-1] >= inner:
                out.update([a + off for a in anchored])
    return out


def cone_gadget(r: int, h: int, s: int, size_a: int, size_b: int) -> Hypergraph:
    """Complete graph on A = {0..size_a-1}, plus every edge that touches the
    apex side B, the next size_b vertices, and has at most s - 1 vertices off
    the anchor {0..h-1}."""
    _check_params(r, h, s)
    if size_b > size_a:
        raise ValueError(f"need size_b <= size_a, got {size_b} > {size_a}")
    if size_a < h:
        raise ValueError(f"need size_a >= h, got {size_a} < {h}")
    if size_b < 0:
        raise ValueError(f"need size_b >= 0, got {size_b}")
    check_universe(size_a + size_b, r)
    edges = set(combinations(range(size_a), r))
    edges |= _near_anchor_edges(size_a + size_b, r, s, h, size_a)
    return Hypergraph(size_a + size_b, r, edges)


def cone_bound(g: Hypergraph, h: int, s: int, size_a: int) -> BoundCheck:
    """Bound on the extra edges of g = cone_gadget(g.r, h, s, size_a,
    g.n - size_a)."""
    extra = g.edge_count - comb(size_a, g.r)
    rhs = g.r * h ** g.r * size_a ** (s - 2) * (g.n - size_a)
    return BoundCheck("cone_extra_edges", extra, rhs)


# -- padding a smaller example ------------------------------------------------

def padded_example(g_minus: Hypergraph, k2: int, pattern: Pattern) -> Hypergraph:
    """Extend g_minus on k1 vertices, weakly saturated for the pattern (the
    caller's precondition, not checked here), by k2 <= k1 fresh vertices,
    adding the cone gadget's near-anchor edges."""
    k1 = g_minus.n
    if k2 > k1:
        raise ValueError(f"need k2 <= k1, got k2={k2} > k1={k1}")
    if k2 < 0:
        raise ValueError("k2 must be non-negative")
    if pattern.r != g_minus.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, "
                         f"graph r={g_minus.r}")
    if pattern.s < 2:
        raise ValueError(f"padding needs sparseness >= 2, pattern has s={pattern.s}")
    if k1 < pattern.h:
        raise ValueError(f"need k1 >= h = {pattern.h}, got k1={k1}")
    n = k1 + k2
    edges = set(g_minus.edges)
    edges |= _near_anchor_edges(n, pattern.r, pattern.s, pattern.h, k1)
    return Hypergraph(n, pattern.r, edges)


def padding_bound(g_minus: Hypergraph, padded: Hypergraph,
                  pattern: Pattern) -> BoundCheck:
    """Bound on the extra edges of padded = padded_example(g_minus, k2,
    pattern), where k2 = padded.n - g_minus.n."""
    extra = padded.edge_count - g_minus.edge_count
    k2 = padded.n - g_minus.n
    rhs = pattern.r * pattern.h ** pattern.r * g_minus.n ** (pattern.s - 2) * k2
    return BoundCheck("padding_extra_edges", extra, rhs)


# -- s-partite and percolation gadgets ----------------------------------------

def _intervals(sizes, h: int) -> tuple[list[range], list[range]]:
    """The consecutive intervals of [sum(sizes)] with the given sizes, and
    the rigid set of each: its first h vertices."""
    parts = [range(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
    return parts, [part[:h] for part in parts]


def _spartite_split(r: int, parts, rigid_sets, rich: bool) -> Iterator[Edge]:
    """The r-subsets of the union of the disjoint parts that meet every part
    and have at least r - s + 2 rigid vertices (those in any rigid set) when
    rich, fewer when not.  Each part gives a nonempty combination of a of its
    rigid and b of its other vertices; every choice of (a, b) per part with
    sizes summing to r and rigid counts on the asked side of r - s + 2 is
    expanded part by part."""
    s = len(parts)
    rigid = set().union(*rigid_sets)
    sides = [([v for v in p if v in rigid], [v for v in p if v not in rigid])
             for p in parts]
    # a part gives 1 to r - s + 1 vertices, as every other part gives one
    splits = [(a, k - a) for k in range(1, r - s + 2) for a in range(k + 1)]
    for choice in product(splits, repeat=s):
        if (sum(a + b for a, b in choice) == r
                and (sum(a for a, _ in choice) >= r - s + 2) == rich):
            pools = [combinations(side, size) for (a, b), (rig, other)
                     in zip(choice, sides) for side, size in ((rig, a), (other, b))]
            yield from map(tuple, map(sorted, map(chain.from_iterable,
                                                  product(*pools))))


def spartite_gadget(r: int, h: int, part_sizes) -> Hypergraph:
    """s = len(part_sizes) parts laid out by _intervals.  All edges missing a
    part, plus all edges with at least r - s + 2 rigid vertices: the colex
    universe of [n] without the r-sets that meet every part with fewer, so
    the edges come in colex order."""
    s = len(part_sizes)
    if not r >= s >= 2:
        raise ValueError(f"need r >= s >= 2 parts, got r={r}, s={s}")
    if h < r:
        raise ValueError(f"need h >= r, got h={h} < r={r}")
    if any(size < h for size in part_sizes):
        raise ValueError(f"every part needs at least h={h} vertices, "
                         f"got sizes {tuple(part_sizes)}")
    universe = edge_universe(sum(part_sizes), r)
    misses = set(_spartite_split(r, *_intervals(part_sizes, h), False))
    return Hypergraph(sum(part_sizes), r, filterfalse(misses.__contains__, universe))


def _percolate_extras(r: int, s: int, parts, rigid) -> set[Edge]:
    """E2 of the percolation gadget on the given clusters and rigid sets:
    the spartite edges with at least r - s + 2 rigid vertices on each group
    of s clusters that includes the last one.  Each such edge meets exactly
    its group's clusters, so it is in no other group's extras and in no edge
    set of s - 1 clusters, and E2 is their plain union."""
    last = len(parts) - 1
    e2: set[Edge] = set()
    for q_group in combinations(range(last), s - 1):
        group = q_group + (last,)
        e2.update(_spartite_split(r, [parts[i] for i in group],
                                  [rigid[i] for i in group], True))
    return e2


def percolate_gadget(r: int, h: int, s: int, clusters: int, cluster_size: int
                     ) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """(E1, E2) on clusters equal intervals laid out by _intervals: E1 =
    edges meeting at most s - 1 clusters, enumerated as the r-subsets of
    each union of s - 1 clusters (sorted, as the clusters are consecutive
    intervals); E2 = _percolate_extras."""
    _check_params(r, h, s)
    if clusters < s:
        raise ValueError(f"need at least s={s} clusters, got {clusters}")
    if cluster_size < h:
        raise ValueError(f"cluster size {cluster_size} below h={h}")
    check_universe(clusters * cluster_size, r)
    parts, rigid = _intervals([cluster_size] * clusters, h)
    e1: set[Edge] = set()
    for group in combinations(parts, s - 1):
        e1.update(combinations(chain.from_iterable(group), r))
    return frozenset(e1), frozenset(_percolate_extras(r, s, parts, rigid))


def percolate_bound(e2, r: int, h: int, s: int, clusters: int,
                    cluster_size: int) -> BoundCheck:
    """Bound on E2 = percolate_gadget(r, h, s, clusters, cluster_size)[1]."""
    rhs = r * h ** (r - s + 2) * comb(clusters - 1, s - 1) * cluster_size ** (s - 2)
    return BoundCheck("percolate_extra_edges", len(e2), rhs)


# -- sparseness-1 seed --------------------------------------------------------

def s1_construction(pattern: Pattern, n: int) -> Hypergraph:
    """For patterns of sparseness 1 a clique on h vertices already saturates
    any larger vertex set."""
    if pattern.s != 1:
        raise ValueError(f"construction needs sparseness 1, pattern has s={pattern.s}")
    if n < pattern.h:
        raise ValueError(f"need n >= h = {pattern.h}, got n={n}")
    edges = combinations(range(pattern.h), pattern.r)
    return Hypergraph(n, pattern.r, edges)


# -- composite construction ---------------------------------------------------

class MainResult(_Value):
    _fields = ("graph", "copies_edge_count", "extra_edge_count", "bounds")

    def __init__(self, graph: Hypergraph, copies_edge_count: int,
                 extra_edge_count: int, bounds: tuple[BoundCheck, ...]):
        self.__dict__.update(graph=graph, copies_edge_count=copies_edge_count,
                             extra_edge_count=extra_edge_count, bounds=bounds)


def main_clusters(n: int, m1: int, s: int, h: int) -> tuple[int, int, int, int]:
    """(c, m, clusters, k) of the composite construction on n vertices: the
    cluster size c = ceil(m1^(1/(s-1))), which must be at least h, the seed
    order m = c^(s-1), the cluster count n / c and the block size k = c^(s-2).
    Raises ValueError, naming the CLI flag, when the numbers admit no
    construction, so callers refuse before building a cover or a seed."""
    if s < 2:
        raise ValueError(f"composite construction needs sparseness >= 2, got s={s}")
    if n < 1:
        raise ValueError(f"n (--n) must be at least 1, got {n}")
    if m1 < 1:
        raise ValueError(f"m1 (--m1) must be at least 1, got {m1}")
    c = 1
    while c ** (s - 1) < m1:
        c += 1
    if n % c != 0:
        raise ValueError(f"n={n} (--n) is not a multiple of the cluster size {c}")
    clusters = n // c
    if clusters < s:
        raise ValueError(f"need at least s={s} clusters, got {clusters}")
    if c < h:
        raise ValueError(f"cluster size {c} below h={h}")
    return c, c ** (s - 1), clusters, c ** (s - 2)


def main_construction(pattern: Pattern, n: int, m1: int, seed_graph: Hypergraph,
                      cover: CoverDesign) -> MainResult:
    """Place one copy of the seed graph per cover block, union the percolation
    gadget's extras, and report the edge accounting with its two bounds.  The
    result is not closed here: `wsat generate main` checks it.

    main_clusters(n, m1, s, h) lays out the clusters and checks n and m1.
    cover must be a design on N = n / c points with block size k = c^(s-2)
    and strength t = s - 1, and seed_graph an r-graph on m = c^(s-1)
    vertices; a mismatch raises ValueError.  That the cover covers every
    t-set and the seed is weakly saturated for the pattern are the caller's
    preconditions, not checked here.
    """
    r, h, s = pattern.r, pattern.h, pattern.s
    c, m, clusters, k = main_clusters(n, m1, s, h)
    if (cover.N, cover.k, cover.t) != (clusters, k, s - 1):
        raise ValueError(
            f"cover must have N={clusters}, k={k}, t={s - 1}; "
            f"got N={cover.N}, k={cover.k}, t={cover.t}")
    if seed_graph.n != m or seed_graph.r != r:
        raise ValueError(
            f"seed graph must have n={m}, r={r}; "
            f"got n={seed_graph.n}, r={seed_graph.r}")

    parts, rigid = _intervals([c] * clusters, h)
    copies: set[Edge] = set()
    for block in cover.blocks:
        hosts = [v for i in block for v in parts[i]]
        for e in seed_graph.edges:
            copies.add(tuple(sorted(hosts[v] for v in e)))

    e2 = _percolate_extras(r, s, parts, rigid)
    graph = Hypergraph(n, r, copies | e2)

    bounds = (
        BoundCheck("copies_union", len(copies),
                   len(cover.blocks) * seed_graph.edge_count),
        percolate_bound(e2, r, h, s, clusters, c),
    )
    return MainResult(graph=graph, copies_edge_count=len(copies),
                      extra_edge_count=len(e2), bounds=bounds)


# -- clique extremal example --------------------------------------------------

def clique_extremal(n: int, t: int, r: int) -> Hypergraph:
    """All r-subsets of [n] meeting the fixed (t - r)-set {0..t-r-1}; with
    t = r this is the empty graph, which is already saturated for a single
    edge pattern."""
    if not n >= t >= r >= 1:
        raise ValueError(f"need n >= t >= r >= 1, got n={n}, t={t}, r={r}")
    hit = set(range(t - r))
    edges = [e for e in edge_universe(n, r) if hit.intersection(e)]
    return Hypergraph(n, r, edges)


def clique_extremal_bound(g: Hypergraph, t: int) -> BoundCheck:
    """g = clique_extremal(n, t, r) has the closed-form number of edges."""
    return BoundCheck("clique_extremal_edges", g.edge_count,
                      clique_wsat_value(g.n, t, g.r), relation="==")
