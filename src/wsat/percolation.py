"""The H-bootstrap engine: addability tests, closures, and certificates.

An edge e missing from G is *addable* when G + e contains a copy of the
pattern H whose image covers e.  The closure adds addable edges until no
missing edge is addable; since a witness for an addable edge survives any
further additions, the closure set is independent of the schedule.  Every
closure, pattern or template, with or without a certificate, runs the one
schedule in sweep().

The witness search pins the added edge: it tries every pattern edge as the
preimage of e under every bijection onto e, then extends to the remaining
pattern vertices in decreasing-degree order, pruning on edge presence.  For
closure runs the witnesses are found in the same order once per pattern, for
the base edge (0..r-1) against the complete universe, and relabelled onto
every candidate edge; the result is cached as required-edge bitmasks
(WitnessIndex), which turns each addability test into a handful of subset
checks.  In the complete universe nothing is pruned, so the base witnesses
are enumerated directly as the product of pinned edge, bijection and
injection of the free vertices, on vertex bitmasks.  Relabelled image edges
are looked up by vertex bitmask (mask_rank_table), and a vertex mapping is
built only for the entry that first_witness returns.  Free vertices take
complement vertices in increasing order and the relabelling is monotone on
the complement, so each edge's witnesses keep the direct search's order: the
first satisfied witness is the one it would find.

Certificates are checked by replay, which uses neither the witness index
nor the closure.  One loop, replay_steps, is the only certificate checker:
it reads (edge, mapping) pairs, with the per-step checks in a fixed order
and with fixed messages; a step's copy of H must cover the step's own edge,
so a step carries no other edge.  verify_certificate feeds it a
pattern certificate's steps; a template certificate reaches it through
templates.template_mappings, which turns each step's template copy into a
pattern embedding.  Edges are keyed by an order-free integer: with
M = r*n^r + 1 and code(v) = sum over j = 1..r of v^j * M^(j-1), the key of
an r-set S is the sum of its vertices' codes.  Its base-M digits are the
power sums p_1..p_r of S, with no carries since p_j <= r*(n-1)^j < M, and
by Newton's identities the power sums of an r-set determine it, so the key
is injective on r-sets.  Codes are computed for the vertices that occur,
and a step's image keys are summed from per-position column getters over
its mapping's codes, with no sort; only a failure message builds a sorted
edge.

The text parser (read_certificate) reads text chunks, such as the lines of
an open file, and returns the header and a generator of raw steps, from
which certificate_from_text builds the dataclasses.  wsat verify feeds the
generator, through template_mappings for a template certificate, straight
into replay_steps, so it holds neither the whole text nor any step object.
A pattern step line written exactly as certificate_to_text writes it is
matched by one regular expression, built from the first step's edge size
and mapping length.  Every other line goes through the per-token checks,
which are the only source of FormatErrors, so messages and line numbers do
not depend on the fast form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from math import comb
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .hypergraph import (
    Edge,
    FormatError,
    Hypergraph,
    Pattern,
    canonical_edge,
    edge_universe,
    graph_of_mask,
    mask_rank_table,
)


@dataclass(frozen=True)
class PatternStep:
    """A step witnessed by an embedding of H covering edge: mapping[i]
    hosts pattern vertex i."""

    edge: Edge
    phase_key: int
    mapping: tuple[int, ...]


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


def sweep(mask: int, full: int, order: Sequence[int],
          step_for: Callable[[int, int], object | None]) -> tuple[int, list]:
    """The canonical schedule: scan the ranks missing from mask in order (a
    colex range unless closure is given a candidate_order), add a rank at
    once when step_for(rank, mask) returns a step rather than None, and
    repeat full sweeps until one adds nothing or mask is full.  Returns the
    final mask and the steps in order, so certificates are deterministic."""
    steps = []
    while mask != full:
        start = mask
        for rank in order:
            if not mask >> rank & 1:
                step = step_for(rank, mask)
                if step is not None:
                    steps.append(step)
                    mask |= 1 << rank
        if mask == start:
            break
    return mask, steps


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


def creates_new_copy(g: Hypergraph, pattern: Pattern, e
                     ) -> tuple[int, ...] | None:
    """The mapping of the first embedding (in search order) of the pattern
    into g + e covering e, or None if no such copy exists."""
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    if pattern.h > g.n:
        raise ValueError(f"pattern on {pattern.h} vertices cannot embed into n={g.n}")
    e = canonical_edge(e, g.n, g.r)
    if e in g.edges:
        raise ValueError(f"edge {e} is already present")
    for assignment in _pinned_embeddings(pattern, e, g.n,
                                         lambda img: img in g.edges):
        return tuple(assignment[v] for v in range(pattern.h))
    return None


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """itemgetter(*indices) that always returns a tuple: itemgetter of a
    single index returns the bare item, and of none cannot be built."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _base_witnesses(pattern: Pattern, n: int):
    """Distinct pinned witnesses of the base edge (0..r-1) in the complete
    n-vertex universe, in first-found order.

    Returns (required, mappings): required[i] lists the colex ranks of the
    image edges other than the base edge, mappings[i] is the first vertex
    mapping found with that required set.

    In the complete universe no partial assignment is pruned, so the pinned
    search visits, for each pattern edge in colex order and each bijection
    of it onto the base edge, every injection of its free order into
    {r..n-1} in lexicographic order.  That product is enumerated directly,
    on vertex bitmasks: |E(H)|·r!·(n-r)!/(n-h)! assignments.
    """
    r, h = pattern.r, pattern.h
    pat_edges, free_orders = _pattern_search_order(pattern)
    rank_of = mask_rank_table(n, r)
    bits = [1 << v for v in range(n)]
    seen: set[tuple[int, ...]] = set()
    required: list[tuple[int, ...]] = []
    mappings: list[tuple[int, ...]] = []
    for pinned in pat_edges:
        # an assignment is a tuple of vertex bits: position k hosts order[k]
        order = pinned + tuple(free_orders[pinned])
        mapping_of = _getter([order.index(v) for v in range(h)])
        # the vertex bits of each other pattern edge's image
        images = [_getter([order.index(w) for w in pe])
                  for pe in pat_edges if pe != pinned]
        for head in permutations(bits[:r]):
            for tail in permutations(bits[r:], h - r):
                assigned = head + tail
                req = tuple(sorted([rank_of[sum(image(assigned))]
                                    for image in images]))
                if req not in seen:
                    seen.add(req)
                    required.append(req)
                    mappings.append(tuple([b.bit_length() - 1
                                           for b in mapping_of(assigned)]))
    return required, mappings


class WitnessIndex:
    """All pinned witnesses for every candidate edge of the (n, H) universe.

    For each colex rank, stores the distinct required-edge bitmasks (the
    image edges other than the candidate itself) in first-found order.  An
    edge is addable in G exactly when some required mask is a subset of G's
    edge mask, and the first satisfied entry is the witness the direct
    search would return.

    The search runs once, on the base edge b = (0..r-1); edge e's entries
    are its image under the relabelling pi that maps b onto e in order and
    {r..n-1} onto the complement of e in increasing order.  The pinned
    bijections onto e are pi applied to those onto b, and free vertices scan
    the complement in increasing order, on which pi is monotone; so the
    search for e visits pi of the base search in the same order.  Each base
    image edge is relabelled as a vertex bitmask and looked up in
    mask_rank_table.  Vertex mappings are kept once, for the base edge,
    with each edge's pi; _mapping builds an entry's mapping when asked.
    """

    def __init__(self, n: int, pattern: Pattern):
        self.n = n
        self.pattern = pattern
        r = pattern.r
        universe = edge_universe(n, r)
        self.universe = len(universe)
        self.full_mask = (1 << self.universe) - 1
        if pattern.h > n:
            self._masks = [[] for _ in universe]
            self._pis, self._base_maps = [], []
            return
        required, self._base_maps = _base_witnesses(pattern, n)
        # re-index the required ranks into the base edges they use
        used = sorted(set().union(*required))
        slot = {k: i for i, k in enumerate(used)}
        entry_of = [_getter([slot[k] for k in req]) for req in required]
        images = [_getter(universe[k]) for k in used]
        rank_of = mask_rank_table(n, r)
        bits = [1 << v for v in range(n)]
        masks: list[list[int]] = []
        pis: list[tuple[int, ...]] = []
        for e in universe:
            e_set = set(e)
            pi = e + tuple([v for v in range(n) if v not in e_set])
            pi_bits = [bits[v] for v in pi]
            # bit[i] is the mask bit of the image under pi of used edge i
            bit = [1 << rank_of[sum(image(pi_bits))] for image in images]
            masks.append([sum(entry(bit)) for entry in entry_of])
            pis.append(pi)
        self._masks = masks
        self._pis = pis

    def _mapping(self, rank: int, i: int) -> tuple[int, ...]:
        """The vertex mapping of entry i of edge `rank`."""
        pi = self._pis[rank]
        return tuple([pi[u] for u in self._base_maps[i]])

    def first_witness(self, rank: int, graph_mask: int) -> tuple[int, ...] | None:
        for i, req in enumerate(self._masks[rank]):
            if req & graph_mask == req:
                return self._mapping(rank, i)
        return None

    def close(self, mask: int) -> int:
        """Bootstrap closure of an edge mask (no certificate bookkeeping)."""
        all_masks = self._masks

        def addable(rank: int, mask: int) -> bool | None:
            for req in all_masks[rank]:
                if req & mask == req:
                    return True
            return None

        return sweep(mask, self.full_mask, range(self.universe), addable)[0]


@lru_cache(maxsize=64)
def witness_index(n: int, pattern: Pattern) -> WitnessIndex:
    """Cached WitnessIndex for repeated closures over the same (n, H)."""
    return WitnessIndex(n, pattern)


def closure(g: Hypergraph, pattern: Pattern,
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

    def step_for(rank: int, mask: int) -> PatternStep | None:
        mapping = idx.first_witness(rank, mask)
        if mapping is None:
            return None
        return PatternStep(universe[rank], 0, mapping)

    mask, steps = sweep(g.mask, idx.full_mask, order, step_for)
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


class _VertexCodes(dict):
    """code(v) = sum over j = 1..r of v^j * M^(j-1), M = r*n^r + 1, computed
    when a vertex first occurs: no table of size n."""

    def __init__(self, n: int, r: int):
        super().__init__()
        self.powers = [(r * n ** r + 1) ** (j - 1) for j in range(1, r + 1)]

    def __missing__(self, v: int) -> int:
        code = self[v] = sum([v ** j * p for j, p in enumerate(self.powers, 1)])
        return code


def replay_steps(g: Hypergraph, pattern: Pattern, n: int, r: int,
                 steps: Iterable[tuple]) -> tuple[CertificateCheck, int]:
    """Replay the (edge, mapping) steps of a pattern certificate for the
    (n, r) universe against g; returns the verdict and the number of steps
    read.

    Checks, per step: the edge is well-formed and absent, the mapping is an
    injective embedding of the pattern into the current graph plus the
    step's edge, and the image covers that edge.
    """
    if n != g.n or r != g.r:
        return CertificateCheck(False, None, f"certificate is for n={n} r={r}, "
                                             f"graph has n={g.n} r={g.r}"), 0
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    h = pattern.h
    pat_edges = pattern.graph.sorted_edges
    code = _VertexCodes(n, r).__getitem__
    current = {sum(map(code, e)) for e in g.edges}
    # column j reads the code of the j-th vertex of every pattern edge image
    first, *rest = [_getter([pe[j] for pe in pat_edges]) for j in range(r)]
    reason = None
    i = -1
    for i, (edge, m) in enumerate(steps):
        if len(edge) != r or len(set(edge)) != r or min(edge) < 0 or max(edge) >= n:
            try:
                canonical_edge(edge, n, r)  # raises, naming the first failed check
            except ValueError as exc:
                reason = str(exc)
                break
        key = sum(map(code, edge))
        if key in current:
            reason = f"edge {tuple(sorted(edge))} already present"
        elif len(m) != h:
            reason = "mapping has wrong length"
        elif min(m) < 0 or max(m) >= n:
            reason = "mapping target out of range"
        elif len(set(m)) != h:
            reason = "mapping is not injective"
        if reason is not None:
            break
        codes = [*map(code, m)]
        images = first(codes)
        for column in rest:
            images = map(add, images, column(codes))
        images = [*images]
        current.add(key)
        if not current.issuperset(images):
            # the first absent image in pattern-edge order, e itself now present
            k = next(k for k, img in enumerate(images) if img not in current)
            reason = f"image edge {tuple(sorted(m[v] for v in pat_edges[k]))} absent"
            break
        if key not in images:
            reason = "witness image does not cover the added edge"
            break
    else:
        return CertificateCheck(True), i + 1
    return CertificateCheck(False, i, reason), i + 1


def verify_certificate(g: Hypergraph, pattern: Pattern,
                       cert: SaturationCertificate) -> CertificateCheck:
    """Replay a pattern certificate against g, independently of the engine
    (replay_steps)."""
    if cert.kind != "pattern":
        raise ValueError(f"expected a pattern certificate, got kind={cert.kind!r}")
    steps = ((s.edge, s.mapping) for s in cert.steps)
    return replay_steps(g, pattern, cert.n, cert.r, steps)[0]


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
            witness = " ".join(f"{v}->{u}" for v, u in enumerate(step.mapping))
        else:
            w = ",".join(map(str, step.vertex_set))
            z = ",".join(map(str, step.core))
            witness = f"W={{{w}}} Z={{{z}}}"
        lines.append(f"{edge} | {step.phase_key} | {witness}")
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, line_no: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:
        raise FormatError(line_no, f"expected integers, got {text.strip()!r}") from None


def _written_step(r: int, h: int) -> re.Pattern:
    """A pattern step line exactly as certificate_to_text writes it for an
    r-vertex edge and an h-vertex mapping: every number is a group."""
    edge = " ".join(["([0-9]+)"] * r)
    mapping = " ".join(f"{v}->([0-9]+)" for v in range(h))
    return re.compile(rf"{edge} \| (-?[0-9]+) \| {mapping}")


def _parse_mapping(text: str, line_no: int) -> tuple[int, ...]:
    """The per-token parse of a pattern witness: the only source of its
    FormatErrors, and the path for every witness not in written form."""
    mapping = {}
    for tok in text.split():
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
    return tuple(mapping[v] for v in range(len(mapping)))


def read_certificate(chunks: Iterable[str]) -> tuple[str, int, int, Iterator[tuple]]:
    """The header (kind, n, r) of a certificate text, given as an iterable
    of text chunks (the lines of an open file, or (text,)), and a generator
    of its raw steps (line number, edge, phase, witness): the witness is a
    mapping for a pattern certificate, a (vertex_set, core) pair for a
    template one.  Each chunk is split with str.splitlines, so the lines of
    a file opened with universal newlines give the lines of its whole text.
    A malformed header raises at once, a malformed step line when the
    generator reaches it."""
    lines = enumerate(chain.from_iterable(map(str.splitlines, chunks)), start=1)
    for line_no, raw in lines:
        line = raw.strip()
        if line and line[0] != "#":
            break
    else:
        raise FormatError(1, "missing certificate header")
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
    return kind, n, r, _raw_steps(lines, kind, r)


def _raw_steps(lines, kind: str, r: int) -> Iterator[tuple]:
    written = None  # _written_step for the first pattern step's r and h
    number: dict[str, int] = {}  # int() of each number string it matched
    for line_no, raw in lines:
        match = written.fullmatch(raw) if written is not None else None
        if match is not None:
            digits = match.groups()
            try:
                values = [*map(number.__getitem__, digits)]
            except KeyError:
                number.update(zip(digits, map(int, digits)))
                values = [*map(number.__getitem__, digits)]
            yield line_no, tuple(values[:r]), values[r], tuple(values[r + 1:])
            continue
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split("|")
        if len(fields) != 3:
            raise FormatError(line_no, "step must be 'edge | phase_key | witness'")
        edge_text, phase_text, witness = fields
        edge = _parse_int_list(edge_text, line_no)
        try:
            phase = int(phase_text)
        except ValueError:
            raise FormatError(line_no, f"phase key {phase_text.strip()!r} "
                                       f"is not an integer") from None
        if kind == "pattern":
            m = _parse_mapping(witness, line_no)
            # the regex grows with r and h: build it only from an edge of r
            # vertices, so its size is bounded by this line's
            if written is None and len(edge) == r:
                written = _written_step(r, len(m))
            yield line_no, edge, phase, m
        else:
            w_part, z_part = None, None
            for tok in witness.split():
                if tok.startswith("W={") and tok.endswith("}"):
                    w_part = tok[3:-1]
                elif tok.startswith("Z={") and tok.endswith("}"):
                    z_part = tok[3:-1]
            if w_part is None or z_part is None:
                raise FormatError(line_no, "template witness must be 'W={...} Z={...}'")
            yield line_no, edge, phase, (_parse_int_list(w_part, line_no),
                                         _parse_int_list(z_part, line_no))


def certificate_from_text(text: str) -> SaturationCertificate:
    kind, n, r, raw = read_certificate((text,))
    if kind == "pattern":
        steps = tuple(PatternStep(e, phase, m) for _, e, phase, m in raw)
    else:
        steps = tuple(TemplateStep(e, phase, w, z) for _, e, phase, (w, z) in raw)
    return SaturationCertificate(kind, n, r, steps)
