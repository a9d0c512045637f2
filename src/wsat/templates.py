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
make_pattern is hypergraph.Pattern, which works out H's sparseness.

template_closure runs percolation.sweep over the missing edges, with one
fused step per edge (_template_step) that searches for a template copy on a
link map: for each (r-1)-set R, the bitmask of vertices v with R ∪ {v} an
edge, updated with r writes per added edge.  The map is built, a column at
a time, from whichever side is smaller: the present edges set their r bits
each, or, when fewer edges are missing than present, every (r-1)-set starts
from its full link and the missing edges clear theirs.
The r lookups link[e - {x}], x ∈ e, give every core's candidate mask; the
vertices that may extend a partial copy W are an AND of link masks, narrowed
as W grows, and the subsets of W that narrowing needs exist only when
h >= r + 2.  The search visits (W, Z) in the order of the plain set-based
search (cores in colex order, then vertices in increasing index), so it
finds the same first copy and the certificates are the same.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, filterfalse, starmap
from operator import itemgetter, xor
from typing import Callable, Iterable, Iterator

from .hypergraph import (
    Edge,
    Hypergraph,
    Pattern,
    edge_universe,
    sparseness_witness,
)
from .percolation import (
    ClosureResult,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    sweep,
)


make_pattern = Pattern


def _check_params(r: int, h: int, s: int) -> None:
    if not h >= r >= s >= 2:
        raise ValueError(f"need h >= r >= s >= 2, got h={h}, r={r}, s={s}")


def template_minus(r: int, h: int, s: int) -> Hypergraph:
    """Complete r-graph on h vertices minus all edges containing {0..s-1},
    read off the colex universe of [h], which refuses an oversized one."""
    _check_params(r, h, s)
    core = set(range(s))
    return Hypergraph(h, r, [e for e in edge_universe(h, r) if not core.issubset(e)])


def template(r: int, h: int, s: int) -> tuple[Hypergraph, Edge]:
    """The template graph and its special edge {0..r-1}."""
    minus = template_minus(r, h, s)
    special = tuple(range(r))
    return minus.with_edges([special]), special


def _link_map(edges, missing, n: int, r: int) -> defaultdict[int, int]:
    """For each (r-1)-set R, as a vertex bitmask, the bitmask of vertices v
    such that R ∪ {v} is an edge of the n-vertex r-graph with the given
    edges and missing edges.  Each edge of the smaller side toggles its r
    bits, a column of edge vertices at a time: from an empty map for the
    present edges, or from every R's full link (all vertices outside R) for
    the missing ones.  Read with get, so that a lookup adds nothing."""
    bits = [1 << v for v in range(n)]
    link: defaultdict[int, int] = defaultdict(int)
    if len(missing) < len(edges):
        full = (1 << n) - 1
        rests = [*map(sum, combinations(bits, r - 1))]
        link.update(zip(rests, map(full.__xor__, rests)))
        edges = missing
    columns = [[*map(bits.__getitem__, column)] for column in zip(*edges)]
    emasks = [*map(sum, zip(*columns))]
    for column in columns:
        for rest, bit in zip(map(xor, emasks, column), column):
            link[rest] ^= bit
    return link


def _template_step(link: defaultdict[int, int], n: int, r: int, h: int, s: int
                   ) -> Callable[[Edge], TemplateStep | None]:
    """The step of template_closure: for a missing edge e, the TemplateStep
    of the first template copy (W, Z) with Z ⊆ e ⊆ W, |W| = h, |Z| = s,
    such that every r-subset of W not containing Z is an edge of the graph
    whose link map is given, or None when there is none.  On success e is
    added to the link map, as sweep adds it at once.

    Cores Z ⊆ e are tried in colex order; W is grown from e by adding
    vertices in increasing index.  A vertex v may join W when R ∪ {v} is an
    edge for every (r-1)-subset R of W with Z ⊄ R, so the vertices that may
    join are the AND of link[R] over those R.  For W = e they are the R =
    e - {z}, z ∈ Z: the r lookups link[e - {x}], x ∈ e, give every core's
    candidate mask.  When v joins, link[Q ∪ {v}] is ANDed in for every
    (r-2)-subset Q of W with Z ⊄ Q; the subsets of W not containing Z are
    closed under this growth, so only they are kept, and only when
    h >= r + 2.  The condition is closed under shrinking W, so the first
    pair in this order is found, and None only when no pair exists.  The last
    vertex of a copy is the lowest candidate left, taken without a further
    level; with h = r + 1 it is the lowest bit of a core's candidate mask.
    Everything that depends only on (r, s) is laid out once here; a call
    searches with a loop over an explicit stack of levels (candidates left,
    kept subsets, vertices chosen), with no nested function.
    """
    bits = [1 << v for v in range(n)]
    bit_of = bits.__getitem__
    get = link.get
    cores = edge_universe(r, s)
    # per core: its positions in e, and the positions of the j-subsets of e
    # not containing it for j = 2..r-2 (as s >= 2, no smaller one does)
    plans = [(positions, itemgetter(*positions),
              [[q for q in combinations(range(r), j)
                if not set(positions) <= set(q)] for j in range(2, r - 1)])
             for positions in cores]
    extra = h - r  # vertices a copy adds to e

    def step(e: Edge) -> TemplateStep | None:
        if not extra:
            # W = e: its one r-subset is e, which contains Z; e[:s] is the
            # colex-first core
            return TemplateStep(e, e, e[:s])
        ebits = [*map(bit_of, e)]
        emask = sum(ebits)
        links = [get(emask ^ bit, 0) for bit in ebits]
        for positions, core_of, subsets in plans:
            mask = -1
            for p in positions:
                mask &= links[p]
            if not mask:
                continue
            if extra == 1:
                found = ((mask & -mask).bit_length() - 1,)
            else:
                found = None
                # the j-subsets of e not containing Z, j = 0..r-2, as masks
                subs = [[0], ebits][:r - 1] + [[sum(map(ebits.__getitem__, q))
                                                for q in qs] for qs in subsets]
                levels = [(mask, subs, ())]
                while levels:
                    mask, subs, chosen = levels.pop()
                    need = extra - len(chosen)  # at least 2
                    if mask.bit_count() < need:
                        continue
                    low = mask & -mask
                    mask ^= low
                    levels.append((mask, subs, chosen))
                    # keep the candidates above v that complete every new
                    # (r-1)-set Q ∪ {v} to an edge
                    for q in subs[-1]:
                        mask &= get(q | low, 0)
                        if not mask:
                            break
                    v = low.bit_length() - 1
                    if need == 2:
                        if mask:
                            found = chosen + (v, (mask & -mask).bit_length() - 1)
                            break
                    elif mask.bit_count() >= need - 1:
                        grown = [subs[0]] + [subs[j] + [q | low for q in subs[j - 1]]
                                             for j in range(1, r - 1)]
                        levels.append((mask, grown, chosen + (v,)))
                if found is None:
                    continue
            for bit in ebits:
                link[emask ^ bit] |= bit
            return TemplateStep(e, tuple(sorted(e + found)), core_of(e))
        return None

    return step


def template_closure(g: Hypergraph, h: int, s: int) -> ClosureResult:
    """Template saturation closure under percolation.sweep, each added edge
    witnessed by a fresh template copy in which it is the special edge."""
    _check_params(g.r, h, s)
    if g.n < h:
        raise ValueError(f"need at least h={h} vertices, graph has n={g.n}")
    edges = g.edges
    missing = [*filterfalse(edges.__contains__, edge_universe(g.n, g.r))]
    step = _template_step(_link_map(edges, missing, g.n, g.r), g.n, g.r, h, s)
    steps = tuple(sweep(missing, step))
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
