"""The H-bootstrap engine: addability tests, closures, and certificates.

An edge e missing from G is *addable* when G + e contains a copy of the
pattern H whose image covers e.  The closure adds addable edges until no
missing edge is addable; since a witness for an addable edge survives any
further additions, the closure set is independent of the schedule.  The
canonical schedule scans missing edges in colex order, adds an addable edge
immediately, keeps scanning, and repeats full sweeps to a fixed point, so
certificates are deterministic.

Witness search pins the added edge: it tries every pattern edge as the
preimage of e under every bijection onto e, then extends to the remaining
pattern vertices in decreasing-degree order, pruning on edge presence.  For
closure runs the same enumeration is done once per pattern, for the base
edge (0..r-1) against the complete universe, and relabelled onto every
candidate edge; the result is cached as required-edge bitmasks
(WitnessIndex), which turns each addability test into a handful of subset
checks.  Free vertices take complement vertices in increasing order and the
relabelling is monotone on the complement, so each edge's witnesses keep the
direct search's order: the first satisfied witness is the one it would find.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Callable, Iterable, Sequence

from .hypergraph import (
    Edge,
    FormatError,
    Hypergraph,
    Pattern,
    canonical_edge,
    colex_key,
    edge_universe,
    graph_of_mask,
    rank_table,
)


@dataclass(frozen=True)
class Witness:
    """An embedding of H into the host; mapping[i] hosts pattern vertex i."""

    mapping: tuple[int, ...]
    covered_edge: Edge


@dataclass(frozen=True)
class PatternStep:
    edge: Edge
    phase_key: int
    witness: Witness


@dataclass(frozen=True)
class TemplateStep:
    """A step witnessed by a template copy: core ⊆ edge ⊆ vertex_set."""

    edge: Edge
    phase_key: int
    vertex_set: tuple[int, ...]
    core: tuple[int, ...]


@dataclass(frozen=True)
class SaturationCertificate:
    """An ordered, machine-checkable record of a saturation process.

    phase_key carries the induction measure of whichever staged construction
    produced the step (0 when not applicable); it is descriptive metadata and
    plays no role in verification.
    """

    kind: str  # "pattern" | "template"
    n: int
    r: int
    steps: tuple = ()

    def __post_init__(self):
        if self.kind not in ("pattern", "template"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ClosureResult:
    closure: Hypergraph
    certificate: SaturationCertificate
    percolated: bool


@dataclass(frozen=True)
class CertificateCheck:
    """Verification verdict; step/reason locate the first failure."""

    ok: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _pattern_search_order(pattern: Pattern):
    """Deterministic search scaffolding shared by all witness searches.

    Returns the pattern's edges in colex order, the free-vertex order
    (decreasing degree, index as tiebreak) for each pinned edge, and the
    adjacency needed for incremental pruning.
    """
    g = pattern.graph
    pat_edges = g.sorted_edges
    degree = [0] * g.n
    for e in g.edges:
        for v in e:
            degree[v] += 1
    orders = {}
    for pinned in pat_edges:
        free = [v for v in range(g.n) if v not in pinned]
        free.sort(key=lambda v: (-degree[v], v))
        orders[pinned] = free
    return pat_edges, orders


def _extend_embeddings(pattern, pinned, free_order, assignment, host_n,
                       edge_present):
    """Yield completed assignments extending `assignment` (a dict).

    Candidates for each free vertex are scanned in increasing host index;
    a partial assignment is abandoned as soon as some fully-mapped pattern
    edge has an absent image.  Yields assignments in the deterministic
    search order.
    """
    pat_edges = pattern.graph.sorted_edges
    used = set(assignment.values())

    def attempt(i):
        if i == len(free_order):
            yield dict(assignment)
            return
        v = free_order[i]
        for u in range(host_n):
            if u in used:
                continue
            assignment[v] = u
            used.add(u)
            ok = True
            for pe in pat_edges:
                if v in pe and all(w in assignment for w in pe):
                    img = tuple(sorted(assignment[w] for w in pe))
                    if not edge_present(img):
                        ok = False
                        break
            if ok:
                yield from attempt(i + 1)
            del assignment[v]
            used.discard(u)

    yield from attempt(0)


def _pinned_embeddings(pattern: Pattern, e: Edge, host_n: int, edge_present):
    """Yield embeddings of the pattern whose image covers e, in search order.

    edge_present decides membership for every image edge other than e itself
    (e is treated as present, being the edge under test).
    """
    pat_edges, free_orders = _pattern_search_order(pattern)
    e_set = set(e)

    def present(img):
        return set(img) == e_set or edge_present(img)

    for pinned in pat_edges:
        for assigned in permutations(e):
            assignment = dict(zip(pinned, assigned))
            # the pinned edge maps exactly onto e; nothing to check yet
            for full in _extend_embeddings(pattern, pinned, free_orders[pinned],
                                           assignment, host_n, present):
                yield full


def creates_new_copy(g: Hypergraph, pattern: Pattern, e) -> Witness | None:
    """First witness (in search order) that g + e contains a copy of the
    pattern covering e, or None if no such copy exists."""
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    if pattern.h > g.n:
        raise ValueError(f"pattern on {pattern.h} vertices cannot embed into n={g.n}")
    e = canonical_edge(e, g.n, g.r)
    if e in g.edges:
        raise ValueError(f"edge {e} is already present")
    for assignment in _pinned_embeddings(pattern, e, g.n,
                                         lambda img: img in g.edges):
        mapping = tuple(assignment[v] for v in range(pattern.h))
        return Witness(mapping, e)
    return None


def _base_witnesses(pattern: Pattern, n: int):
    """Distinct pinned witnesses of the base edge (0..r-1) in the complete
    n-vertex universe, in first-found order.

    Returns (required, mappings): required[i] lists the colex ranks of the
    image edges other than the base edge, mappings[i] is the first vertex
    mapping found with that required set.
    """
    r = pattern.r
    base = tuple(range(r))
    ranks = rank_table(n, r)
    pat_edges = pattern.graph.sorted_edges
    seen: set[tuple[int, ...]] = set()
    required: list[tuple[int, ...]] = []
    mappings: list[tuple[int, ...]] = []
    for assignment in _pinned_embeddings(pattern, base, n, lambda img: True):
        imgs = [tuple(sorted([assignment[w] for w in pe])) for pe in pat_edges]
        req = tuple(sorted([ranks[img] for img in imgs if img != base]))
        if req not in seen:
            seen.add(req)
            required.append(req)
            mappings.append(tuple(assignment[v] for v in range(pattern.h)))
    return required, mappings


class WitnessIndex:
    """All pinned witnesses for every candidate edge of the (n, H) universe.

    For each colex rank, stores the distinct required-edge bitmasks (the
    image edges other than the candidate itself) in first-found order, with
    one representative vertex mapping each.  An edge is addable in G exactly
    when some required mask is a subset of G's edge mask, and the first
    satisfied entry is the witness the direct search would return.

    The search runs once, on the base edge b = (0..r-1); edge e's entries
    are its image under the relabelling pi that maps b onto e in order and
    {r..n-1} onto the complement of e in increasing order.  The pinned
    bijections onto e are pi applied to those onto b, and free vertices scan
    the complement in increasing order, on which pi is monotone; so the
    search for e visits pi of the base search in the same order.
    """

    def __init__(self, n: int, pattern: Pattern):
        self.n = n
        self.pattern = pattern
        r = pattern.r
        universe = edge_universe(n, r)
        ranks = rank_table(n, r)
        self.universe = len(universe)
        self.full_mask = (1 << self.universe) - 1
        if pattern.h > n:
            self._masks = [[] for _ in universe]
            self._mappings = [[] for _ in universe]
            return
        required, base_maps = _base_witnesses(pattern, n)
        # re-index the required ranks into the base edges they use
        used = sorted(set().union(*required))
        slot = {k: i for i, k in enumerate(used)}
        required = [[slot[k] for k in req] for req in required]
        used_edges = [universe[k] for k in used]
        masks: list[list[int]] = []
        mappings: list[list[tuple[int, ...]]] = []
        for e in universe:
            e_set = set(e)
            pi = e + tuple(v for v in range(n) if v not in e_set)
            # bit[i] is the mask bit of the image under pi of used_edges[i]
            bit = [1 << ranks[tuple(sorted([pi[v] for v in f]))]
                   for f in used_edges]
            masks.append([sum([bit[i] for i in req]) for req in required])
            mappings.append([tuple([pi[u] for u in m]) for m in base_maps])
        self._masks = masks
        self._mappings = mappings

    def first_witness(self, rank: int, graph_mask: int) -> tuple[int, ...] | None:
        for req, mapping in zip(self._masks[rank], self._mappings[rank]):
            if req & graph_mask == req:
                return mapping
        return None

    def close(self, mask: int) -> int:
        """Bootstrap closure of an edge mask (no certificate bookkeeping)."""
        universe = self.universe
        all_masks = self._masks
        full = self.full_mask
        while mask != full:
            added = False
            for rank in range(universe):
                bit = 1 << rank
                if mask & bit:
                    continue
                for req in all_masks[rank]:
                    if req & mask == req:
                        mask |= bit
                        added = True
                        break
            if not added:
                break
        return mask


@lru_cache(maxsize=64)
def _index_for(n: int, pattern: Pattern) -> WitnessIndex:
    return WitnessIndex(n, pattern)


def witness_index(n: int, pattern: Pattern) -> WitnessIndex:
    """Cached WitnessIndex for repeated closures over the same (n, H)."""
    return _index_for(n, pattern)


def closure(g: Hypergraph, pattern: Pattern,
            phase_fn: Callable[[Edge], int] | None = None,
            candidate_order: Sequence[int] | None = None) -> ClosureResult:
    """Bootstrap closure of g under the pattern, with a replayable certificate.

    candidate_order (a permutation of the universe ranks) overrides the colex
    scan order; the closure edge set does not depend on it, only the
    certificate does.  Exposed for the order-independence checks.
    """
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    idx = witness_index(g.n, pattern)
    universe = edge_universe(g.n, g.r)
    order = range(idx.universe) if candidate_order is None else candidate_order
    mask = g.mask
    steps: list[PatternStep] = []
    while mask != idx.full_mask:
        added = False
        for rank in order:
            bit = 1 << rank
            if mask & bit:
                continue
            mapping = idx.first_witness(rank, mask)
            if mapping is not None:
                e = universe[rank]
                phase = phase_fn(e) if phase_fn is not None else 0
                steps.append(PatternStep(e, phase, Witness(mapping, e)))
                mask |= bit
                added = True
        if not added:
            break
    cert = SaturationCertificate("pattern", g.n, g.r, tuple(steps))
    closed = graph_of_mask(g.n, g.r, mask)
    return ClosureResult(closed, cert, mask == idx.full_mask)


def is_weakly_saturated(g: Hypergraph, pattern: Pattern) -> bool:
    """True iff the missing edges admit a saturation process, i.e. the
    bootstrap closure of g is complete."""
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    idx = witness_index(g.n, pattern)
    return idx.close(g.mask) == idx.full_mask


def verify_certificate(g: Hypergraph, pattern: Pattern,
                       cert: SaturationCertificate) -> CertificateCheck:
    """Replay a pattern certificate against g, independently of the engine.

    Checks, per step: the edge is well-formed and absent, the witness mapping
    is an injective embedding of the pattern into the current graph plus the
    step's edge, and the image covers that edge.
    """
    if cert.kind != "pattern":
        raise ValueError(f"expected a pattern certificate, got kind={cert.kind!r}")
    if cert.n != g.n or cert.r != g.r:
        return CertificateCheck(False, None,
                                f"certificate is for n={cert.n} r={cert.r}, "
                                f"graph has n={g.n} r={g.r}")
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    current = set(g.edges)
    pat_edges = pattern.graph.sorted_edges
    for i, step in enumerate(cert.steps):
        try:
            e = canonical_edge(step.edge, g.n, g.r)
        except ValueError as exc:
            return CertificateCheck(False, i, str(exc))
        if e in current:
            return CertificateCheck(False, i, f"edge {e} already present")
        w = step.witness
        m = w.mapping
        if len(m) != pattern.h:
            return CertificateCheck(False, i, "mapping has wrong length")
        if any(not 0 <= u < g.n for u in m):
            return CertificateCheck(False, i, "mapping target out of range")
        if len(set(m)) != len(m):
            return CertificateCheck(False, i, "mapping is not injective")
        if tuple(sorted(w.covered_edge)) != e:
            return CertificateCheck(False, i, "witness covered_edge differs from step edge")
        covered = False
        for pe in pat_edges:
            img = tuple(sorted(m[v] for v in pe))
            if img == e:
                covered = True
            elif img not in current:
                return CertificateCheck(False, i, f"image edge {img} absent")
        if not covered:
            return CertificateCheck(False, i, "witness image does not cover the added edge")
        current.add(e)
    return CertificateCheck(True)


def clique_wsat_value(n: int, t: int, r: int) -> int:
    """Closed-form weak saturation number for complete patterns:
    C(n, r) - C(n - t + r, r)."""
    if not n >= t >= r >= 1:
        raise ValueError(f"need n >= t >= r >= 1, got n={n}, t={t}, r={r}")
    return comb(n, r) - comb(n - t + r, r)


# -- certificate text format --------------------------------------------------
#
#   CERT pattern|template <n> <r>
#   <edge> | <phase_key> | <witness>
#
# pattern witness: "v0->u0 v1->u1 ..." over pattern vertices in order;
# template witness: "W={...} Z={...}" with comma-separated vertex lists.

def certificate_to_text(cert: SaturationCertificate) -> str:
    lines = [f"CERT {cert.kind} {cert.n} {cert.r}"]
    for step in cert.steps:
        edge = " ".join(map(str, step.edge))
        if cert.kind == "pattern":
            witness = " ".join(f"{v}->{u}" for v, u in enumerate(step.witness.mapping))
        else:
            w = ",".join(map(str, step.vertex_set))
            z = ",".join(map(str, step.core))
            witness = f"W={{{w}}} Z={{{z}}}"
        lines.append(f"{edge} | {step.phase_key} | {witness}")
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, line_no: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise FormatError(line_no, f"expected integers, got {text!r}") from None


def certificate_from_text(text: str) -> SaturationCertificate:
    kind = n = r = None
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if kind is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "CERT":
                raise FormatError(line_no, "header must be 'CERT pattern|template n r'")
            kind = parts[1]
            if kind not in ("pattern", "template"):
                raise FormatError(line_no, f"unknown certificate kind {kind!r}")
            try:
                n, r = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(line_no, "header n and r must be integers") from None
            if n < 0 or r < 1:
                raise FormatError(line_no, f"invalid header n={n} r={r}")
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != 3:
            raise FormatError(line_no, "step must be 'edge | phase_key | witness'")
        edge = _parse_int_list(fields[0], line_no)
        try:
            phase = int(fields[1])
        except ValueError:
            raise FormatError(line_no, f"phase key {fields[1]!r} is not an integer") from None
        if kind == "pattern":
            mapping = {}
            for tok in fields[2].split():
                if "->" not in tok:
                    raise FormatError(line_no, f"bad mapping entry {tok!r}")
                a, _, b = tok.partition("->")
                try:
                    v, u = int(a), int(b)
                except ValueError:
                    raise FormatError(line_no, f"bad mapping entry {tok!r}") from None
                if v in mapping:
                    raise FormatError(line_no, f"pattern vertex {v} is mapped twice")
                mapping[v] = u
            if sorted(mapping) != list(range(len(mapping))):
                raise FormatError(line_no, "mapping must cover pattern vertices 0..h-1")
            m = tuple(mapping[v] for v in range(len(mapping)))
            steps.append(PatternStep(edge, phase, Witness(m, edge)))
        else:
            witness = fields[2]
            w_part, z_part = None, None
            for tok in witness.split():
                if tok.startswith("W={") and tok.endswith("}"):
                    w_part = tok[3:-1]
                elif tok.startswith("Z={") and tok.endswith("}"):
                    z_part = tok[3:-1]
            if w_part is None or z_part is None:
                raise FormatError(line_no, "template witness must be 'W={...} Z={...}'")
            w = _parse_int_list(w_part, line_no)
            z = _parse_int_list(z_part, line_no)
            steps.append(TemplateStep(edge, phase, w, z))
    if kind is None:
        raise FormatError(1, "missing certificate header")
    return SaturationCertificate(kind, n, r, tuple(steps))
