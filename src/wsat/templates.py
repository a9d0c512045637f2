"""Template graphs and template saturation.

The template on parameters (r, h, s) is built from the complete r-graph on h
vertices by deleting every edge containing a fixed s-set (the *core*) and
restoring a single one of them (the *special edge*).  A template saturation
process adds missing edges so that each one plays the special-edge role in a
fresh template copy; any graph saturated this way is weakly H-saturated for
every H with h vertices and sparseness s >= 2, and the template certificate
converts mechanically into a pattern certificate.

Canonical representatives: core = {0..s-1}, special edge = {0..r-1}.

The search for a template copy works on a link map: for each (r-1)-set R,
the bitmask of vertices v with R ∪ {v} an edge, which template_closure
updates with r writes per added edge.  The vertices that may extend a
partial copy W are then an AND of link masks, narrowed as W grows.  The
search visits (W, Z) in the order of the plain set-based search (cores in
colex order, then vertices in increasing index), so it finds the same first
copy and the certificates are the same.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Callable

from .hypergraph import (
    Edge,
    Hypergraph,
    Pattern,
    canonical_edge,
    colex_key,
    edge_universe,
)
from .percolation import (
    CertificateCheck,
    ClosureResult,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    Witness,
    verify_certificate,
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
    return Pattern(graph, graph.n, sparseness(graph))


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
    emask = 0
    for v in e:
        emask |= 1 << v
    for v in e:
        bit = 1 << v
        link[emask ^ bit] = link.get(emask ^ bit, 0) | bit


def _find_template_copy(link: dict[int, int], r: int, e: Edge, h: int, s: int
                        ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Core search used by creates_template_copy and template_closure.

    Cores Z ⊆ e are tried in colex order; W is grown from e by adding
    vertices in increasing index.  A vertex v may join W when R ∪ {v} is an
    edge for every (r-1)-subset R of W with Z ⊄ R, so the vertices that may
    join are the AND of link[R] over those R: for W = e they are the R =
    e - {z}, z ∈ Z, and when v joins, link[Q ∪ {v}] is ANDed in for every
    (r-2)-subset Q of W with Z ⊄ Q.  The condition is closed under shrinking
    W, so the first pair in this order is returned, and None only when no
    pair exists.
    """
    emask = 0
    for v in e:
        emask |= 1 << v
    # the j-subsets of W, as bitmasks, for j = 0..r-2
    subsets = [[sum(1 << v for v in q) for q in combinations(e, j)]
               for j in range(r - 1)]

    for core in sorted(combinations(e, s), key=colex_key):
        if h == r:
            # W = e: its one r-subset is e, which contains Z
            return e, core
        zmask = 0
        for z in core:
            zmask |= 1 << z
        mask = ~emask
        for z in core:
            mask &= link.get(emask ^ (1 << z), 0)

        def grow(chosen: list[int], subs: list[list[int]], mask: int
                 ) -> list[int] | None:
            need = h - r - len(chosen)
            while mask.bit_count() >= need:
                low = mask & -mask
                mask ^= low
                if need == 1:
                    return chosen + [low.bit_length() - 1]
                # mask now holds the candidates above v; keep those that
                # complete every new (r-1)-set Q ∪ {v} to an edge
                rest = mask
                for q in subs[r - 2]:
                    if q & zmask != zmask:
                        rest &= link.get(q | low, 0)
                        if not rest:
                            break
                if rest.bit_count() >= need - 1:
                    grown = [subs[0]] + [subs[j] + [q | low for q in subs[j - 1]]
                                         for j in range(1, r - 1)]
                    found = grow(chosen + [low.bit_length() - 1], grown, rest)
                    if found is not None:
                        return found
            return None

        found = grow([], subsets, mask)
        if found is not None:
            return tuple(sorted(e + tuple(found))), core
    return None


def creates_template_copy(g: Hypergraph, e, h: int, s: int
                          ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search for (W, Z) with Z ⊆ e ⊆ W, |W| = h, |Z| = s, such that every
    r-subset of W not containing Z is an edge of g; None if no pair exists."""
    _check_params(g.r, h, s)
    if g.n < h:
        raise ValueError(f"need at least h={h} vertices, graph has n={g.n}")
    e = canonical_edge(e, g.n, g.r)
    if e in g.edges:
        raise ValueError(f"edge {e} is already present")
    return _find_template_copy(_link_map(g.edges), g.r, e, h, s)


def template_closure(g: Hypergraph, h: int, s: int,
                     phase_fn: Callable[[Edge], int] | None = None) -> ClosureResult:
    """Template saturation closure: colex sweeps to a fixed point, each added
    edge witnessed by a fresh template copy in which it is the special edge."""
    _check_params(g.r, h, s)
    if g.n < h:
        raise ValueError(f"need at least h={h} vertices, graph has n={g.n}")
    universe = edge_universe(g.n, g.r)
    current = set(g.edges)
    link = _link_map(current)
    steps: list[TemplateStep] = []
    while len(current) < len(universe):
        added = False
        for e in universe:
            if e in current:
                continue
            hit = _find_template_copy(link, g.r, e, h, s)
            if hit is not None:
                w, core = hit
                phase = phase_fn(e) if phase_fn is not None else 0
                steps.append(TemplateStep(e, phase, w, core))
                current.add(e)
                _link_add(link, e)
                added = True
        if not added:
            break
    cert = SaturationCertificate("template", g.n, g.r, tuple(steps))
    closed = Hypergraph(g.n, g.r, current)
    return ClosureResult(closed, cert, len(current) == len(universe))


def verify_template_certificate(g: Hypergraph, cert: SaturationCertificate,
                                h: int, s: int) -> CertificateCheck:
    """Independent replay of a template certificate."""
    if cert.kind != "template":
        raise ValueError(f"expected a template certificate, got kind={cert.kind!r}")
    if cert.n != g.n or cert.r != g.r:
        return CertificateCheck(False, None,
                                f"certificate is for n={cert.n} r={cert.r}, "
                                f"graph has n={g.n} r={g.r}")
    r = g.r
    current = set(g.edges)
    for i, step in enumerate(cert.steps):
        try:
            e = canonical_edge(step.edge, g.n, g.r)
        except ValueError as exc:
            return CertificateCheck(False, i, str(exc))
        if e in current:
            return CertificateCheck(False, i, f"edge {e} already present")
        w = tuple(sorted(step.vertex_set))
        z = tuple(sorted(step.core))
        if len(w) != h or len(set(w)) != h:
            return CertificateCheck(False, i, f"W must be an h-set, got {w}")
        if len(z) != s or len(set(z)) != s:
            return CertificateCheck(False, i, f"Z must be an s-set, got {z}")
        if any(not 0 <= v < g.n for v in w):
            return CertificateCheck(False, i, "W out of range")
        if not set(z).issubset(e) or not set(e).issubset(w):
            return CertificateCheck(False, i, "need Z ⊆ edge ⊆ W")
        z_set = set(z)
        for sub in combinations(w, r):
            if z_set.issubset(sub):
                continue
            if sub not in current:
                return CertificateCheck(False, i, f"required edge {sub} absent")
        current.add(e)
    return CertificateCheck(True)


def template_cert_to_pattern_cert(cert: SaturationCertificate, pattern: Pattern,
                                  rng: random.Random | None = None
                                  ) -> SaturationCertificate:
    """Convert a template certificate into a pattern certificate for H.

    Uses a sparseness witness S of H and its unique containing edge: each
    step's template copy (W, Z) yields an embedding of H into W sending S
    onto Z and the unique edge onto the step's added edge.  Any bijection
    between the three blocks works; the default pairs sorted blocks
    ascending, and rng (when given) shuffles the pairings instead.
    """
    if cert.kind != "template":
        raise ValueError(f"expected a template certificate, got kind={cert.kind!r}")
    if pattern.s < 2:
        raise ValueError(f"conversion needs sparseness >= 2, pattern has s={pattern.s}")
    if pattern.r != cert.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, "
                         f"certificate r={cert.r}")
    witness_set, witness_edge = sparseness_witness(pattern.graph)
    h, s = pattern.h, pattern.s
    steps: list[PatternStep] = []
    for i, step in enumerate(cert.steps):
        if not isinstance(step, TemplateStep):
            raise ValueError(f"step {i} is not a template step")
        w = tuple(sorted(step.vertex_set))
        z = tuple(sorted(step.core))
        e = tuple(sorted(step.edge))
        if len(w) != h:
            raise ValueError(f"step {i}: template on {len(w)} vertices, pattern has h={h}")
        if len(z) != s:
            raise ValueError(f"step {i}: core of size {len(z)}, pattern has s={s}")
        blocks = [
            (sorted(witness_set), sorted(z)),
            (sorted(set(witness_edge) - set(witness_set)), sorted(set(e) - set(z))),
            (sorted(set(range(h)) - set(witness_edge)), sorted(set(w) - set(e))),
        ]
        mapping = [0] * h
        for sources, targets in blocks:
            if rng is not None:
                targets = list(targets)
                rng.shuffle(targets)
            for src, dst in zip(sources, targets):
                mapping[src] = dst
        steps.append(PatternStep(e, step.phase_key, Witness(tuple(mapping), e)))
    return SaturationCertificate("pattern", cert.n, cert.r, tuple(steps))
