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

Every generator's output is meant to percolate under the engine named in its
contract; the numbered edge-count bounds are evaluated as exact integer
inequalities and reported as BoundChecks, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from .designs import CoverDesign, verify_cover
from .hypergraph import Edge, Hypergraph, Pattern, edge_universe
from .percolation import ClosureResult, clique_wsat_value, is_weakly_saturated
from .templates import _check_params, template_closure


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
    def anchor(self) -> tuple[int, ...]:
        return tuple(range(self.h))

    @property
    def n(self) -> int:
        return self.size_a + self.size_b


def _near_anchor_edges(n: int, r: int, s: int, inner: int,
                       anchor: tuple[int, ...]) -> set[Edge]:
    """Edges not inside {0..inner-1} with at most s - 1 vertices off the anchor."""
    anchor_set = set(anchor)
    out = set()
    for e in edge_universe(n, r):
        if e[-1] < inner:
            continue
        if sum(1 for v in e if v not in anchor_set) <= s - 1:
            out.add(e)
    return out


def cone_gadget(spec: ConeSpec) -> Hypergraph:
    """Complete graph on A, plus every missing edge with at most s - 1
    vertices outside the anchor (each such edge touches B)."""
    edges = set(combinations(range(spec.size_a), spec.r))
    edges |= _near_anchor_edges(spec.n, spec.r, spec.s, spec.size_a, spec.anchor)
    return Hypergraph(spec.n, spec.r, edges)


def cone_bound(spec: ConeSpec, g: Hypergraph) -> BoundCheck:
    """Bound on the extra edges of g = cone_gadget(spec)."""
    extra = g.edge_count - comb(spec.size_a, spec.r)
    rhs = spec.r * spec.h ** spec.r * spec.size_a ** (spec.s - 2) * spec.size_b
    return BoundCheck("cone_extra_edges", extra, rhs)


def cone_phase(spec: ConeSpec) -> Callable[[Edge], int]:
    anchor = set(spec.anchor)
    return lambda e: sum(1 for v in e if v not in anchor)


def check_cone(spec: ConeSpec) -> tuple[Hypergraph, ClosureResult, BoundCheck]:
    g = cone_gadget(spec)
    result = template_closure(g, spec.h, spec.s, phase_fn=cone_phase(spec))
    return g, result, cone_bound(spec, g)


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
    anchor = tuple(range(pattern.h))
    edges = set(g_minus.edges)
    edges |= _near_anchor_edges(n, pattern.r, pattern.s, k1, anchor)
    return Hypergraph(n, pattern.r, edges)


def padding_bound(g_minus: Hypergraph, k2: int, pattern: Pattern) -> BoundCheck:
    padded = padded_example(g_minus, k2, pattern)
    extra = padded.edge_count - g_minus.edge_count
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


def _spartite_edges(n: int, r: int, parts, rigid_sets, h: int) -> set[Edge]:
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


def spartite_gadget(spec: SpartiteSpec) -> Hypergraph:
    """All edges missing a part, plus all edges with at least r - s + 2
    rigid vertices."""
    edges = _spartite_edges(spec.n, spec.r, spec.parts, spec.rigid, spec.h)
    return Hypergraph(spec.n, spec.r, edges)


def spartite_phase(spec: SpartiteSpec) -> Callable[[Edge], int]:
    """Induction measure: edges with exactly s - 1 loose vertices are keyed by
    the smallest fully-rigid per-part intersection; edges with more loose
    vertices are keyed by r + loose count, keeping the two stages ordered."""
    parts = spec.parts
    rigid_sets = [set(rs) for rs in spec.rigid]
    loose = set()
    for p, rs in zip(parts, spec.rigid):
        loose.update(set(p) - set(rs))
    s = spec.s

    def phase(e: Edge) -> int:
        lam = sum(1 for v in e if v in loose)
        if lam <= s - 2:
            return 0
        if lam == s - 1:
            rho = None
            for p, rs in zip(parts, rigid_sets):
                inter = [v for v in e if v in p]
                if all(v in rs for v in inter):
                    size = len(inter)
                    rho = size if rho is None else min(rho, size)
            return rho if rho is not None else 0
        return spec.r + lam

    return phase


def check_spartite(spec: SpartiteSpec) -> tuple[Hypergraph, ClosureResult]:
    g = spartite_gadget(spec)
    result = template_closure(g, spec.h, spec.s, phase_fn=spartite_phase(spec))
    return g, result


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
    """(E1, E2): E1 = edges meeting at most s - 1 clusters; E2 = union over
    (s-1)-groups Q of the first clusters of the spartite extras on the parts
    {cluster q : q in Q} plus the last cluster, minus what E1 already has."""
    n, r, s = spec.n, spec.r, spec.s
    size = spec.cluster_size
    e1 = set()
    for e in edge_universe(n, r):
        if len({v // size for v in e}) <= s - 1:
            e1.add(e)
    e2: set[Edge] = set()
    last = spec.clusters - 1
    for q_group in combinations(range(last), s - 1):
        group = tuple(q_group) + (last,)
        parts = [spec.cluster(i) for i in group]
        rigid_sets = [spec.rigid(i) for i in group]
        extras = _spartite_edges(n, r, parts, rigid_sets, spec.h)
        e2 |= extras - e1
    return frozenset(e1), frozenset(e2)


def percolate_bound(spec: PercolateSpec, e2: frozenset[Edge]) -> BoundCheck:
    """Bound on E2 = percolate_gadget(spec)[1]."""
    rhs = (spec.r * spec.h ** (spec.r - spec.s + 2)
           * comb(spec.clusters - 1, spec.s - 1)
           * spec.cluster_size ** (spec.s - 2))
    return BoundCheck("percolate_extra_edges", len(e2), rhs)


def percolate_phase(spec: PercolateSpec) -> Callable[[Edge], int]:
    last = set(spec.cluster(spec.clusters - 1))
    return lambda e: sum(1 for v in e if v not in last)


def check_percolate(spec: PercolateSpec
                    ) -> tuple[Hypergraph, frozenset[Edge], ClosureResult, BoundCheck]:
    """The gadget graph E1 ∪ E2, its extras E2, its template closure and the
    bound on E2."""
    e1, e2 = percolate_gadget(spec)
    g = Hypergraph(spec.n, spec.r, e1 | e2)
    result = template_closure(g, spec.h, spec.s, phase_fn=percolate_phase(spec))
    return g, e2, result, percolate_bound(spec, e2)


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
class MainSpec:
    """Parameters of the composite construction.

    n must be a multiple of the cluster size c = ceil(m1^(1/(s-1))), and
    the cover a design on N = n / c points with block size k = c^(s-2) and
    strength t = s - 1.  seed_graph is a weakly saturated graph for the
    pattern on m = c^(s-1) vertices (main_clusters derives c and m).
    """

    pattern: Pattern
    n: int
    m1: int
    seed_graph: Hypergraph
    cover: CoverDesign


@dataclass(frozen=True)
class MainResult:
    graph: Hypergraph
    copies_edge_count: int
    extra_edge_count: int
    block_count: int
    bounds: tuple[BoundCheck, ...]
    seed_ratio: float
    total_ratio: float
    percolated: bool


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


def main_construction(spec: MainSpec) -> MainResult:
    """Place one copy of the seed graph per cover block, union the percolation
    gadget's extras, engine-check the result, and report the edge accounting."""
    pattern = spec.pattern
    r, h, s = pattern.r, pattern.h, pattern.s
    c, m, clusters = main_clusters(spec.n, spec.m1, s)
    if c < h:
        raise ValueError(f"cluster size {c} below h={h}")
    k = c ** (s - 2)
    cover = spec.cover
    if (cover.N, cover.k, cover.t) != (clusters, k, s - 1):
        raise ValueError(
            f"cover must have N={clusters}, k={k}, t={s - 1}; "
            f"got N={cover.N}, k={cover.k}, t={cover.t}")
    if not verify_cover(cover):
        raise ValueError("cover does not cover every t-subset")
    seed = spec.seed_graph
    if seed.n != m or seed.r != r:
        raise ValueError(
            f"seed graph must have n={m}, r={r}; got n={seed.n}, r={seed.r}")
    if not is_weakly_saturated(seed, pattern):
        raise ValueError("seed graph is not weakly saturated for the pattern")

    cluster_vertices = [tuple(range(i * c, (i + 1) * c)) for i in range(clusters)]
    copies: set[Edge] = set()
    for block in cover.blocks:
        hosts = sorted(v for i in block for v in cluster_vertices[i])
        for e in seed.edges:
            copies.add(tuple(sorted(hosts[v] for v in e)))

    gspec = PercolateSpec(r=r, h=h, s=s, clusters=clusters, cluster_size=c)
    _, e2 = percolate_gadget(gspec)
    graph = Hypergraph(spec.n, r, copies | set(e2))

    bounds = (
        BoundCheck("copies_union", len(copies), len(cover.blocks) * seed.edge_count),
        percolate_bound(gspec, e2),
    )
    percolated = is_weakly_saturated(graph, pattern)
    return MainResult(
        graph=graph,
        copies_edge_count=len(copies),
        extra_edge_count=len(e2),
        block_count=len(cover.blocks),
        bounds=bounds,
        seed_ratio=seed.edge_count / m ** (s - 1),
        total_ratio=graph.edge_count / spec.n ** (s - 1),
        percolated=percolated,
    )


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
