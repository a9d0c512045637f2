"""Template graphs and template saturation.

The template on parameters (r, h, s) is built from the complete r-graph on h
vertices by deleting every edge containing a fixed s-set (the *core*) and
restoring a single one of them (the *special edge*).  A template saturation
process adds missing edges so that each one plays the special-edge role in a
fresh template copy; any graph saturated this way is weakly H-saturated for
every H with h vertices and sparseness s >= 2.

There is one certificate checker, percolation.replay_steps.  A template
certificate reaches it through template_mappings, which turns each
(edge, vertex_set, core) step into the (edge, mapping) step of a pattern
embedding for H, step by step.  Against the template graph itself
(H = T(r, h, s), whose sparseness witness is the core and whose unique edge
is the special edge) the replay checks exactly that every r-subset of W not
containing Z is present and the edge is new.

Canonical representatives: core = {0..s-1}, special edge = {0..r-1}.

template_closure runs percolation.sweep, searching for a template copy on
a link map: for each (r-1)-set R, the bitmask of vertices v with R ∪ {v} an
edge, updated with r writes per added edge.  The vertices that may extend a
partial copy W are then an AND of link masks, narrowed as W grows.  The
search visits (W, Z) in the order of the plain set-based search (cores in
colex order, then vertices in increasing index), so it finds the same first
copy and the certificates are the same.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, starmap
from typing import Iterable, Iterator

from .hypergraph import (
    Edge,
    Hypergraph,
    Pattern,
    colex_key,
    edge_universe,
)
from .percolation import (
    ClosureResult,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    sweep,
)


def sparseness_witness(graph: Hypergraph) -> tuple[tuple[int, ...], Edge]:
    """Smallest (colex-first) vertex set contained in exactly one edge,
    together with that edge."""
    if not graph.edges:
        raise ValueError("sparseness is undefined for an empty edge set")
    edges = graph.sorted_edges
    for size in range(1, graph.r + 1):
        for cand in sorted(combinations(range(graph.n), size), key=colex_key):
            cs = set(cand)
            hits = [e for e in edges if cs.issubset(e)]
            if len(hits) == 1:
                return cand, hits[0]
    raise AssertionError("unreachable: a full edge is always a witness")


def sparseness(graph: Hypergraph) -> int:
    """The sparseness s: min |W| over vertex sets W lying in exactly one edge."""
    return len(sparseness_witness(graph)[0])


def make_pattern(graph: Hypergraph) -> Pattern:
    return Pattern(graph, sparseness(graph))


def _check_params(r: int, h: int, s: int) -> None:
    if not h >= r >= s >= 2:
        raise ValueError(f"need h >= r >= s >= 2, got h={h}, r={r}, s={s}")


def template_minus(r: int, h: int, s: int) -> Hypergraph:
    """Complete r-graph on h vertices minus all edges containing {0..s-1}."""
    _check_params(r, h, s)
    core = set(range(s))
    edges = [e for e in combinations(range(h), r) if not core.issubset(e)]
    return Hypergraph(h, r, edges)


def template(r: int, h: int, s: int) -> tuple[Hypergraph, Edge]:
    """The template graph and its special edge {0..r-1}."""
    minus = template_minus(r, h, s)
    special = tuple(range(r))
    return minus.with_edges([special]), special


def _link_map(edges) -> dict[int, int]:
    """For each (r-1)-set R, as a vertex bitmask, the bitmask of vertices v
    such that R ∪ {v} is an edge."""
    link: dict[int, int] = {}
    for e in edges:
        _link_add(link, e)
    return link


def _link_add(link: dict[int, int], e: Edge) -> None:
    bits = [1 << v for v in e]
    emask = sum(bits)
    for bit in bits:
        rest = emask ^ bit
        link[rest] = link.get(rest, 0) | bit


@lru_cache(maxsize=64)
def _core_positions(r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Positions of the s-subsets of an increasing r-tuple, in colex order
    (the same for every such tuple)."""
    return tuple(sorted(combinations(range(r), s), key=colex_key))


def _find_template_copy(link: dict[int, int], r: int, e: Edge, h: int, s: int
                        ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The template-copy search of template_closure: the first (W, Z) with
    Z ⊆ e ⊆ W, |W| = h, |Z| = s, such that every r-subset of W not
    containing Z is an edge of the graph whose link map is given.

    Cores Z ⊆ e are tried in colex order; W is grown from e by adding
    vertices in increasing index.  A vertex v may join W when R ∪ {v} is an
    edge for every (r-1)-subset R of W with Z ⊄ R, so the vertices that may
    join are the AND of link[R] over those R: for W = e they are the R =
    e - {z}, z ∈ Z, and when v joins, link[Q ∪ {v}] is ANDed in for every
    (r-2)-subset Q of W with Z ⊄ Q.  The condition is closed under shrinking
    W, so the first pair in this order is returned, and None only when no
    pair exists.  With h = r + 1 the one vertex to add is the lowest set bit
    of a core's candidate mask, and the subsets of W that growing a copy
    further needs are built only when h - r >= 2; the last vertex of a copy
    is likewise the lowest candidate left, taken without a further call.
    """
    if h == r:
        # W = e: its one r-subset is e, which contains Z; e[:s] is the
        # colex-first core
        return e, e[:s]
    bits = [1 << v for v in e]
    emask = sum(bits)
    # the j-subsets of W, as bitmasks, for j = 0..r-2
    subsets = [list(map(sum, combinations(bits, j))) for j in range(r - 1)] \
        if h - r >= 2 else None

    def grow(chosen: list[int], subs: list[list[int]], mask: int
             ) -> list[int] | None:
        need = h - r - len(chosen)  # at least 2
        while mask.bit_count() >= need:
            low = mask & -mask
            mask ^= low
            # mask now holds the candidates above v; keep those that
            # complete every new (r-1)-set Q ∪ {v} to an edge
            rest = mask
            for q in subs[r - 2]:
                if q & zmask != zmask:
                    rest &= link.get(q | low, 0)
                    if not rest:
                        break
            if need == 2:
                # the copy is complete with the lowest candidate above v
                if rest:
                    return chosen + [low.bit_length() - 1,
                                     (rest & -rest).bit_length() - 1]
            elif rest.bit_count() >= need - 1:
                grown = [subs[0]] + [subs[j] + [q | low for q in subs[j - 1]]
                                     for j in range(1, r - 1)]
                found = grow(chosen + [low.bit_length() - 1], grown, rest)
                if found is not None:
                    return found
        return None

    for positions in _core_positions(r, s):
        zbits = [bits[p] for p in positions]
        zmask = sum(zbits)  # the core tried, read by grow
        mask = ~emask
        for zbit in zbits:
            mask &= link.get(emask ^ zbit, 0)
        if h == r + 1:
            found = [(mask & -mask).bit_length() - 1] if mask else None
        else:
            found = grow([], subsets, mask)
        if found is not None:
            return tuple(sorted(e + tuple(found))), tuple([e[p] for p in positions])
    return None


def template_closure(g: Hypergraph, h: int, s: int) -> ClosureResult:
    """Template saturation closure under percolation.sweep, each added edge
    witnessed by a fresh template copy in which it is the special edge."""
    _check_params(g.r, h, s)
    if g.n < h:
        raise ValueError(f"need at least h={h} vertices, graph has n={g.n}")
    universe = edge_universe(g.n, g.r)
    full = (1 << len(universe)) - 1
    link = _link_map(g.edges)

    def step_for(rank: int, mask: int) -> TemplateStep | None:
        e = universe[rank]
        hit = _find_template_copy(link, g.r, e, h, s)
        if hit is None:
            return None
        _link_add(link, e)  # sweep adds e at once
        return TemplateStep(e, *hit)

    steps = tuple(sweep(g.mask, full, step_for)[1])
    return ClosureResult(g, SaturationCertificate("template", g.n, g.r, steps))


def template_mappings(pattern: Pattern, r: int, steps: Iterable[tuple]
                      ) -> Iterator[tuple]:
    """Convert the (edge, vertex_set, core) steps of a template certificate
    on r-sets into (edge, mapping) steps for H.

    Uses a sparseness witness S of H and its unique containing edge: each
    step's template copy (W, Z) yields an embedding of H into W sending S
    onto Z and the unique edge onto the step's added edge.  Any bijection
    between the three blocks works; sorted blocks are paired ascending.  A
    step whose W is not an h-set or Z not an s-set, or without Z ⊆ edge ⊆
    W, raises ValueError; the edge's form, the ranges and edge presence are
    left to replay_steps.
    """
    if pattern.s < 2:
        raise ValueError(f"conversion needs sparseness >= 2, pattern has s={pattern.s}")
    if pattern.r != r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, "
                         f"certificate r={r}")
    witness_set, witness_edge = sparseness_witness(pattern.graph)
    h, s = pattern.h, pattern.s
    sources = [sorted(witness_set), sorted(set(witness_edge) - set(witness_set)),
               sorted(set(range(h)) - set(witness_edge))]
    for i, (edge, vertex_set, core) in enumerate(steps):
        w, z, e = set(vertex_set), set(core), set(edge)
        if len(vertex_set) != h:
            raise ValueError(f"step {i}: template on {len(vertex_set)} vertices, "
                             f"pattern has h={h}")
        if len(core) != s:
            raise ValueError(f"step {i}: core of size {len(core)}, pattern has s={s}")
        if len(w) != h:
            raise ValueError(f"step {i}: W must be an h-set, "
                             f"got {tuple(sorted(vertex_set))}")
        if len(z) != s:
            raise ValueError(f"step {i}: Z must be an s-set, got {tuple(sorted(core))}")
        if not z <= e <= w:
            raise ValueError(f"step {i}: need Z ⊆ edge ⊆ W")
        mapping = [0] * h
        for src, targets in zip(sources, (sorted(z), sorted(e - z), sorted(w - e))):
            for v, u in zip(src, targets):
                mapping[v] = u
        yield tuple(sorted(edge)), tuple(mapping)


def template_cert_to_pattern_cert(cert: SaturationCertificate, pattern: Pattern
                                  ) -> SaturationCertificate:
    """Convert a template certificate into a pattern certificate for H, step
    by step through template_mappings."""
    if cert.kind != "template":
        raise ValueError(f"expected a template certificate, got kind={cert.kind!r}")
    for i, step in enumerate(cert.steps):
        if len(step) != 3:
            raise ValueError(f"step {i} is not a template step")
    steps = template_mappings(pattern, cert.r, cert.steps)
    return SaturationCertificate("pattern", cert.n, cert.r,
                                 tuple(starmap(PatternStep, steps)))
