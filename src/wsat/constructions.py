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

The cone gadget and padding enumerate their extra edges, joining anchor
(r-j)-sets to off-anchor j-sets, and the percolation gadget's E1 is the
r-subsets of each union of s - 1 clusters.  The r-sets that meet every
part of an s-partite layout are enumerated once, part by part, and split by
their rigid count (_spartite_split): spartite_gadget drops the side with
fewer than r - s + 2 rigid vertices from the colex universe of [n], so its
graph is written without a sort, and percolate_gadget takes the other side
of each group of clusters as that group's extras.

Every generator's output is meant to percolate under the engine named in its
contract; the numbered edge-count bounds are evaluated as exact integer
inequalities and reported as BoundChecks, never assumed.  No generator
closes its own output: `wsat generate` runs template_closure(g, h, s) on
each gadget and is_weakly_saturated on the pattern constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, product
from math import comb
from typing import Iterator

from .designs import CoverDesign, verify_cover
from .hypergraph import Edge, Hypergraph, Pattern, edge_universe
from .percolation import clique_wsat_value, is_weakly_saturated
from .templates import _check_params


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality lhs <= rhs (or identity lhs == rhs)."""

    name: str
    lhs: int
    rhs: int
    relation: str = "<="

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs

    def as_report(self) -> str:
        return f"#BOUND {self.name} {self.lhs} {self.rhs} {str(self.holds).lower()}"


# -- cone gadget --------------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """Clique side A = {0..size_a-1}, apex side B = the rest; the anchor set C
    is the first h vertices of A."""

    r: int
    h: int
    s: int
    size_a: int
    size_b: int

    def __post_init__(self):
        _check_params(self.r, self.h, self.s)
        if self.size_b > self.size_a:
            raise ValueError(
                f"need size_b <= size_a, got {self.size_b} > {self.size_a}")
        if self.size_a < self.h:
            raise ValueError(f"need size_a >= h, got {self.size_a} < {self.h}")
        if self.size_b < 0:
            raise ValueError(f"need size_b >= 0, got {self.size_b}")

    @property
    def n(self) -> int:
        return self.size_a + self.size_b


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


def cone_gadget(spec: ConeSpec) -> Hypergraph:
    """Complete graph on A, plus every missing edge with at most s - 1
    vertices outside the anchor (each such edge touches B)."""
    edges = set(combinations(range(spec.size_a), spec.r))
    edges |= _near_anchor_edges(spec.n, spec.r, spec.s, spec.h, spec.size_a)
    return Hypergraph(spec.n, spec.r, edges)


def cone_bound(spec: ConeSpec, g: Hypergraph) -> BoundCheck:
    """Bound on the extra edges of g = cone_gadget(spec)."""
    extra = g.edge_count - comb(spec.size_a, spec.r)
    rhs = spec.r * spec.h ** spec.r * spec.size_a ** (spec.s - 2) * spec.size_b
    return BoundCheck("cone_extra_edges", extra, rhs)


# -- padding a smaller example ------------------------------------------------

def padded_example(g_minus: Hypergraph, k2: int, pattern: Pattern) -> Hypergraph:
    """Extend a weakly saturated graph on k1 vertices by k2 <= k1 fresh
    vertices, adding the cone gadget's near-anchor edges."""
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
    if not is_weakly_saturated(g_minus, pattern):
        raise ValueError("base graph is not weakly saturated for the pattern")
    if k2 == 0:
        return g_minus
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


# -- s-partite gadget ---------------------------------------------------------

@dataclass(frozen=True)
class SpartiteSpec:
    """s parts laid out as consecutive intervals; rigid set R_i = the first h
    vertices of each part."""

    r: int
    h: int
    part_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "part_sizes", tuple(self.part_sizes))
        s = len(self.part_sizes)
        if not self.r >= s >= 2:
            raise ValueError(f"need r >= s >= 2 parts, got r={self.r}, s={s}")
        if self.h < self.r:
            raise ValueError(f"need h >= r, got h={self.h} < r={self.r}")
        if any(size < self.h for size in self.part_sizes):
            raise ValueError(f"every part needs at least h={self.h} vertices, "
                             f"got sizes {self.part_sizes}")

    @property
    def s(self) -> int:
        return len(self.part_sizes)

    @property
    def n(self) -> int:
        return sum(self.part_sizes)

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        out = []
        start = 0
        for size in self.part_sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)

    @property
    def rigid(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p[: self.h] for p in self.parts)


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


def spartite_gadget(spec: SpartiteSpec) -> Hypergraph:
    """All edges missing a part, plus all edges with at least r - s + 2
    rigid vertices: the colex universe of [n] without the r-sets that meet
    every part with fewer, so the edges come in colex order."""
    misses = set(_spartite_split(spec.r, spec.parts, spec.rigid, False))
    return Hypergraph(spec.n, spec.r, filterfalse(
        misses.__contains__, edge_universe(spec.n, spec.r)))


# -- percolation gadget -------------------------------------------------------

@dataclass(frozen=True)
class PercolateSpec:
    """clusters consecutive intervals of equal size; rigid set = first h of
    each cluster; covering groups always include the last cluster."""

    r: int
    h: int
    s: int
    clusters: int
    cluster_size: int

    def __post_init__(self):
        _check_params(self.r, self.h, self.s)
        if self.clusters < self.s:
            raise ValueError(
                f"need at least s={self.s} clusters, got {self.clusters}")
        if self.cluster_size < self.h:
            raise ValueError(
                f"cluster size {self.cluster_size} below h={self.h}")

    @property
    def n(self) -> int:
        return self.clusters * self.cluster_size

    def cluster(self, i: int) -> tuple[int, ...]:
        return tuple(range(i * self.cluster_size, (i + 1) * self.cluster_size))

    def rigid(self, i: int) -> tuple[int, ...]:
        return self.cluster(i)[: self.h]


def percolate_gadget(spec: PercolateSpec) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """(E1, E2): E1 = edges meeting at most s - 1 clusters; E2 = the
    spartite edges outside E1 on each group of s clusters that includes the
    last one.  E1 is enumerated as the r-subsets of each union of s - 1
    clusters, which is sorted as the clusters are consecutive intervals.  A
    group's extras are enumerated as the r-sets that meet each of its
    clusters with at least r - s + 2 rigid vertices; each meets exactly that
    group's clusters, so it is in no other group's extras and not in E1, and
    E2 is their plain union."""
    r, s = spec.r, spec.s
    e1: set[Edge] = set()
    for group in combinations(range(spec.clusters), s - 1):
        e1.update(combinations([v for i in group for v in spec.cluster(i)], r))
    e2: set[Edge] = set()
    last = spec.clusters - 1
    for q_group in combinations(range(last), s - 1):
        group = q_group + (last,)
        e2.update(_spartite_split(r, [spec.cluster(i) for i in group],
                                  [spec.rigid(i) for i in group], True))
    return frozenset(e1), frozenset(e2)


def percolate_bound(spec: PercolateSpec, e2: frozenset[Edge]) -> BoundCheck:
    """Bound on E2 = percolate_gadget(spec)[1]."""
    rhs = (spec.r * spec.h ** (spec.r - spec.s + 2)
           * comb(spec.clusters - 1, spec.s - 1)
           * spec.cluster_size ** (spec.s - 2))
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

@dataclass(frozen=True)
class MainResult:
    graph: Hypergraph
    copies_edge_count: int
    extra_edge_count: int
    bounds: tuple[BoundCheck, ...]


def main_clusters(n: int, m1: int, s: int) -> tuple[int, int, int]:
    """(c, m, clusters) of the composite construction on n vertices: the
    cluster size c = ceil(m1^(1/(s-1))), the seed order m = c^(s-1) and the
    cluster count n / c.  Raises ValueError, naming the CLI flag, when the
    numbers admit no construction."""
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
    return c, c ** (s - 1), clusters


def main_construction(pattern: Pattern, n: int, m1: int, seed_graph: Hypergraph,
                      cover: CoverDesign) -> MainResult:
    """Place one copy of the seed graph per cover block, union the percolation
    gadget's extras, and report the edge accounting with its two bounds.  The
    result is not closed here: `wsat generate main` checks it.

    n must be a multiple of the cluster size c = ceil(m1^(1/(s-1))), and
    cover a design on N = n / c points with block size k = c^(s-2) and
    strength t = s - 1.  seed_graph is a weakly saturated graph for the
    pattern on m = c^(s-1) vertices (main_clusters derives c and m).  Each
    of these conditions is checked and raises ValueError when it fails.
    """
    r, h, s = pattern.r, pattern.h, pattern.s
    c, m, clusters = main_clusters(n, m1, s)
    if c < h:
        raise ValueError(f"cluster size {c} below h={h}")
    k = c ** (s - 2)
    if (cover.N, cover.k, cover.t) != (clusters, k, s - 1):
        raise ValueError(
            f"cover must have N={clusters}, k={k}, t={s - 1}; "
            f"got N={cover.N}, k={cover.k}, t={cover.t}")
    if not verify_cover(cover):
        raise ValueError("cover does not cover every t-subset")
    if seed_graph.n != m or seed_graph.r != r:
        raise ValueError(
            f"seed graph must have n={m}, r={r}; "
            f"got n={seed_graph.n}, r={seed_graph.r}")
    if not is_weakly_saturated(seed_graph, pattern):
        raise ValueError("seed graph is not weakly saturated for the pattern")

    cluster_vertices = [tuple(range(i * c, (i + 1) * c)) for i in range(clusters)]
    copies: set[Edge] = set()
    for block in cover.blocks:
        hosts = sorted(v for i in block for v in cluster_vertices[i])
        for e in seed_graph.edges:
            copies.add(tuple(sorted(hosts[v] for v in e)))

    gspec = PercolateSpec(r=r, h=h, s=s, clusters=clusters, cluster_size=c)
    _, e2 = percolate_gadget(gspec)
    graph = Hypergraph(n, r, copies | set(e2))

    bounds = (
        BoundCheck("copies_union", len(copies),
                   len(cover.blocks) * seed_graph.edge_count),
        percolate_bound(gspec, e2),
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
