"""The H-bootstrap engine: addability tests, closures, and certificates.

An edge e missing from G is *addable* when G + e contains a copy of the
pattern H whose image covers e.  The closure adds addable edges until no
missing edge is addable; since a witness for an addable edge survives any
further additions, the closure set is independent of the schedule.  Every
closure, pattern or template, with or without a certificate, runs the one
schedule in sweep(), which scans the missing edges in colex order only: no
other order is offered.  Its first pass visits every missing edge and each
later pass only those the previous pass left; a closure that reads an edge
mask (the witness index's close, the pattern closure) keeps it itself, so
the template closure, which reads a link map instead, builds no edge mask.
A ClosureResult keeps the start graph and certificate.

The witness search pins the added edge: it tries every pattern edge as the
preimage of e under every bijection onto e, then extends to the remaining
pattern vertices in decreasing-degree order; it tests a pattern edge's image
for presence only where the edge's last vertex in that order is assigned.  For
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
nor the closure.  PatternStep (edge, mapping) and TemplateStep (edge,
vertex_set, core) are named tuples of an added edge and the copy that
certifies it; the text line's middle column, the phase key, is known only
to the text format.  One function, replay_steps, is the only certificate
checker: it reads (edge, mapping) steps in blocks, lists of step tuples or
tuples of vertex columns.  A bulk check (_accept_block) accepts a block
whose every step passes, with column operations over the whole block;
for injectivity it compares the edge columns pairwise and, of the mapping
columns, only the pairs of pattern vertices that share no pattern edge,
since an image found among the present edges, all r-sets, has distinct
hosts.  A block it does not accept is replayed from its start by the
per-step loop, with the checks in a fixed order and with fixed messages,
and only that loop builds a verdict's step and reason.  A step's copy of H
must cover the step's own edge, so a step carries no other edge.
verify_certificate feeds replay_steps a pattern certificate's steps; a
template certificate reaches it through templates.template_mappings, which
turns each step's template copy into a pattern embedding.  Edges are keyed
by an order-free integer: with M = r*n^r + 1 and code(v) = sum over
j = 1..r of v^j * M^(j-1), the key of an r-set S is the sum of its
vertices' codes.  Its base-M digits are the power sums p_1..p_r of S,
with no carries since p_j <= r*(n-1)^j < M,
and by Newton's identities the power sums of r numbers determine them, so
the key is injective on r-sets, and on multisets of r vertices too.  Codes
are computed for the vertices that occur, and image keys are sums of their
mapping's codes, with no sort; only a failure message builds a sorted edge.

The text parser (read_certificate) reads text chunks, such as 64 KiB blocks
of an open file, and returns the header and a generator of step blocks of
BLOCK lines, which certificate_from_text flattens into named steps.  wsat
verify feeds it, through template_mappings for a template certificate,
straight into replay_steps, so it holds one block of steps at a time.  A
block of pattern steps written exactly as certificate_to_text writes them
is scanned into vertex columns by one findall, with no step tuple made.
Every other block goes through the per-token checks, which are the only
source of FormatErrors, so messages and line numbers do not depend on the
fast form.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import chain, combinations, filterfalse, islice, permutations, repeat, starmap
from math import comb
from operator import add, eq, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .hypergraph import (
    Edge,
    FormatError,
    Hypergraph,
    Pattern,
    _Value,
    canonical_edge,
    edge_universe,
    mask_rank_table,
    set_bits,
)


class PatternStep(NamedTuple):
    """A step witnessed by an embedding of H covering edge: mapping[i]
    hosts pattern vertex i.  Equal to the plain tuple of its fields."""

    edge: Edge
    mapping: tuple[int, ...]


class TemplateStep(NamedTuple):
    """A step witnessed by a template copy: core ⊆ edge ⊆ vertex_set.
    Equal to the plain tuple of its fields."""

    edge: Edge
    vertex_set: tuple[int, ...]
    core: tuple[int, ...]


class SaturationCertificate(_Value):
    """An ordered, machine-checkable record of a saturation process: each
    step is an added edge and the copy of H (or template copy) it creates.
    kind is "pattern" or "template".
    """

    _fields = ("kind", "n", "r", "steps")

    def __init__(self, kind: str, n: int, r: int, steps: tuple = ()):
        if kind not in ("pattern", "template"):
            raise ValueError(f"unknown certificate kind {kind!r}")
        self.__dict__.update(kind=kind, n=n, r=r, steps=steps)

    def __len__(self) -> int:
        return len(self.steps)


class ClosureResult(_Value):
    """The start graph and the certificate a closure engine computed; closure
    (built when first read) and percolated are derived from them."""

    _fields = ("graph", "certificate")

    def __init__(self, graph: Hypergraph, certificate: SaturationCertificate):
        self.__dict__.update(graph=graph, certificate=certificate)

    @cached_property
    def closure(self) -> Hypergraph:
        return self.graph.with_edges([step.edge for step in self.certificate.steps])

    @property
    def percolated(self) -> bool:
        g = self.graph
        return g.edge_count + len(self.certificate) == comb(g.n, g.r)


class CertificateCheck(_Value):
    """Verification verdict; step/reason locate the first failure."""

    _fields = ("ok", "step", "reason")

    def __init__(self, ok: bool, step: int | None = None, reason: str | None = None):
        self.__dict__.update(ok=ok, step=step, reason=reason)

    def __bool__(self) -> bool:
        return self.ok


def sweep(left: list, step_for: Callable[[object], object | None]) -> list:
    """The one schedule of every closure: visit the missing edges in left,
    given in colex order as ranks or as edges, and add one at once when
    step_for(item) returns a step rather than None.  Each later pass visits
    only the items the previous pass left, until a pass adds nothing or none
    is left.  Returns the steps in order, so certificates are deterministic;
    a caller that reads an edge mask keeps it up to date in step_for.  A
    pass records what it adds, as adding is the rarer outcome in the
    exhaustive solver's closures, and what it left is sorted out only when
    another pass follows."""
    steps = []
    while left:
        added = []
        for item in left:
            step = step_for(item)
            if step is not None:
                steps.append(step)
                added.append(item)
        if not added or len(added) == len(left):
            break
        left = [*filterfalse(set(added).__contains__, left)]
    return steps


def _pattern_search_order(pattern: Pattern) -> dict[Edge, tuple[int, ...]]:
    """The order in which every pinned search assigns the pattern's vertices,
    for each pinned edge in colex order: the pinned edge's vertices, then
    the free ones by decreasing degree, index as tiebreak."""
    g = pattern.graph
    degree = [0] * g.n
    for e in g.edges:
        for v in e:
            degree[v] += 1
    vertices = sorted(range(g.n), key=lambda v: (-degree[v], v))
    return {pinned: pinned + tuple([v for v in vertices if v not in pinned])
            for pinned in g.sorted_edges}


def _pinned_embeddings(pattern: Pattern, e: Edge, host_n: int, edge_present
                       ) -> Iterator[tuple[int, ...]]:
    """Yield the mappings (mapping[v] hosts pattern vertex v) of the pattern's
    embeddings into host_n vertices whose image covers e, in search order.

    Each pattern edge in colex order is the preimage of e under each
    bijection in permutations(e) order; then each free vertex in its search
    order tries the unused hosts in increasing index.  A pattern edge
    completes where its last vertex in the order is assigned, and only
    there is its image, a sorted tuple, passed to edge_present: a host is
    rejected when an edge it completes has an absent image.  The pinned
    edge completes before any free vertex, so e itself is never tested.
    """
    h = pattern.h
    orders = _pattern_search_order(pattern)
    for order in orders.values():
        at = {v: i for i, v in enumerate(order)}
        mapping_of = _getter([at[v] for v in range(h)])
        # completes[i] gets, from hosts by position, the hosts of each
        # pattern edge whose last vertex in the order is order[i]
        completes = [[] for _ in order]
        for pe in orders:
            positions = [at[v] for v in pe]
            completes[max(positions)].append(_getter(positions))

        def extend(hosts):
            if len(hosts) == h:
                yield mapping_of(hosts)
                return
            tests = completes[len(hosts)]
            for u in range(host_n):
                if u not in hosts:
                    grown = hosts + (u,)
                    if all(edge_present(tuple(sorted(image(grown))))
                           for image in tests):
                        yield from extend(grown)

        for head in permutations(e):
            yield from extend(head)


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
    return next(_pinned_embeddings(pattern, e, g.n, g.edges.__contains__), None)


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

    In the complete universe every image edge is present, so the pinned
    search (_pinned_embeddings) rejects no host: for each pinned edge's
    order in _pattern_search_order and each bijection of the pinned edge
    onto the base edge, it visits every injection of the free vertices into
    {r..n-1} in lexicographic order.  That product is enumerated directly,
    on vertex bitmasks: |E(H)|·r!·(n-r)!/(n-h)! assignments.
    """
    r, h = pattern.r, pattern.h
    orders = _pattern_search_order(pattern)
    rank_of = mask_rank_table(n, r)
    bits = [1 << v for v in range(n)]
    seen: set[tuple[int, ...]] = set()
    required: list[tuple[int, ...]] = []
    mappings: list[tuple[int, ...]] = []
    for pinned, order in orders.items():
        # an assignment is a tuple of vertex bits: position k hosts order[k]
        mapping_of = _getter([order.index(v) for v in range(h)])
        # the vertex bits of each other pattern edge's image
        images = [_getter([order.index(w) for w in pe])
                  for pe in orders if pe != pinned]
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

        def addable(rank: int) -> bool | None:
            nonlocal mask
            for req in all_masks[rank]:
                if req & mask == req:
                    mask |= 1 << rank
                    return True
            return None

        sweep(set_bits(self.full_mask ^ mask), addable)
        return mask


@lru_cache(maxsize=64)
def witness_index(n: int, pattern: Pattern) -> WitnessIndex:
    """Cached WitnessIndex for repeated closures over the same (n, H)."""
    return WitnessIndex(n, pattern)


def closure(g: Hypergraph, pattern: Pattern) -> ClosureResult:
    """Bootstrap closure of g under the pattern, with a replayable certificate."""
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    idx = witness_index(g.n, pattern)
    universe = edge_universe(g.n, g.r)
    mask = g.mask

    def step_for(rank: int) -> PatternStep | None:
        nonlocal mask
        mapping = idx.first_witness(rank, mask)
        if mapping is None:
            return None
        mask |= 1 << rank
        return PatternStep(universe[rank], mapping)

    steps = tuple(sweep(set_bits(idx.full_mask ^ mask), step_for))
    return ClosureResult(g, SaturationCertificate("pattern", g.n, g.r, steps))


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


# steps that replay_steps reads and checks at once
BLOCK = 256


def _add_columns(columns: list) -> list:
    """The elementwise sum of equally long columns."""
    first, *rest = columns
    for column in rest:
        first = map(add, first, column)
    return [*first]


def _columns(block: list, n: int, r: int, h: int) -> tuple | None:
    """A list of (edge, mapping) steps as the scan's vertex columns, or None
    unless its edges have r vertices and all vertices are in [0, n); raises
    ValueError unless its steps have two fields, its edges and mappings
    each one length."""
    edges, maps = zip(*block, strict=True)
    columns = (*zip(*edges, strict=True), *zip(*maps, strict=True))
    if len(edges[0]) != r or min(map(min, columns)) < 0 or max(map(max, columns)) >= n:
        return None
    return columns


def _steps(block, r: int) -> list:
    """A block's (edge, mapping) steps: a column tuple's zipped, a list's."""
    return [*zip(zip(*block[:r]), zip(*block[r:]))] if type(block) is tuple else block


def _blocks(steps: Iterable[tuple]) -> Iterator[list]:
    """Steps in lists of BLOCK, the blocks replay_steps reads."""
    steps = iter(steps)
    return iter(lambda: [*islice(steps, BLOCK)], [])


def _accept_block(columns: tuple, r: int, h: int, code, pat_edges, distinct,
                  current: set) -> bool:
    """Add the keys of a column block's edges to current and return True
    when every step of the block passes replay in order; else leave
    current as it was and return False.

    The columns, scanned or from _columns, hold vertices in [0, n).  The
    other conditions are tested on the whole block with map, zip and set
    and dict operations: r edge columns and h mapping columns, no two
    columns of a pair in distinct agree in a row, edge keys absent from
    current, an image of each step equal to its edge and none to the edge
    of the same or a later step, and every image in current once the
    block's edges are.  distinct pairs the r edge columns with each other,
    so every edge has r distinct vertices, and the mapping columns of the
    pattern vertices that share no pattern edge.  The other pairs of a
    mapping need no comparison: current holds only keys of r-sets, the
    graph's edges and the steps' edges, and keys are injective on
    multisets of r vertices in [0, n) as on sets (power sums determine a
    multiset too), so an image key found in current is an r-set's, and the
    hosts of that pattern edge differ.  A repeated edge key fails the
    image positions, since at keeps the last step of a key, as the loop
    fails its second step for an edge already present.
    """
    if len(columns) != r + h:
        return False
    for i, j in distinct:
        if any(map(eq, columns[i], columns[j])):
            return False
    keys = _add_columns([map(code, column) for column in columns[:r]])
    key_set = set(keys)
    if not current.isdisjoint(key_set):
        return False
    targets = [[*map(code, column)] for column in columns[r:]]
    images = [_add_columns([targets[v] for v in pe]) for pe in pat_edges]
    # with at[key] its step and -1 for an image outside the block, a step's
    # largest image position is its own index exactly when an image is its
    # edge and none is a later step's; at keeps the last step of a repeated
    # key, so the earlier step fails; a column with no block key adds -1s
    at = dict(zip(keys, range(len(keys))))
    positions = [map(at.get, image, repeat(-1)) for image in images
                 if not key_set.isdisjoint(image)]
    if not positions or ([*map(max, repeat(-1, len(keys)), *positions)]
                         != [*range(len(keys))]):
        return False
    current.update(key_set)
    if all(map(current.issuperset, images)):
        return True
    current.difference_update(key_set)
    return False


def replay_steps(g: Hypergraph, pattern: Pattern, n: int, r: int,
                 blocks: Iterable) -> tuple[CertificateCheck, int]:
    """Replay the (edge, mapping) steps of a pattern certificate for the
    (n, r) universe against g; returns the verdict and the number of steps
    replayed, the failing one included (none when n, r are not g's).

    Checks, per step: the edge is well-formed and absent, the mapping is an
    injective embedding of the pattern into the current graph plus the
    step's edge, and the image covers that edge.

    The steps come in blocks: lists of step tuples (_blocks) or tuples of
    vertex columns (read_certificate's scan).  _accept_block accepts a block
    whose steps all pass, at C speed; a block it does not accept is replayed
    from the state at its start by the per-step loop, which alone builds a
    failure's step and reason.  So a failing step's whole block is read, and
    an exception raised while reading it propagates.
    """
    if n != g.n or r != g.r:
        return CertificateCheck(False, None, f"certificate is for n={n} r={r}, "
                                             f"graph has n={g.n} r={g.r}"), 0
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    h = pattern.h
    pat_edges = pattern.graph.sorted_edges
    # the column pairs _accept_block compares: edge columns, then the
    # mapping columns of pattern vertices that share no pattern edge
    distinct = [*combinations(range(r), 2),
                *((r + u, r + v) for u, v in combinations(range(h), 2)
                  if not any(u in pe and v in pe for pe in pat_edges))]
    code = _VertexCodes(n, r).__getitem__
    current = {sum(map(code, e)) for e in g.edges}
    count = 0  # steps in the blocks replayed so far
    for block in blocks:
        try:
            columns = block if type(block) is tuple else _columns(block, n, r, h)
            if columns and _accept_block(columns, r, h, code, pat_edges, distinct, current):
                count += len(columns[0])
                continue
        except (TypeError, ValueError):
            pass  # a step of another shape: the loop judges it
        steps = _steps(block, r)
        reason = None
        for i, (edge, m) in enumerate(steps, count):
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
            images = [sum(map(codes.__getitem__, pe)) for pe in pat_edges]
            current.add(key)
            if not current.issuperset(images):
                # the first absent image in pattern-edge order, e itself now present
                k = next(k for k, img in enumerate(images) if img not in current)
                reason = f"image edge {tuple(sorted(m[v] for v in pat_edges[k]))} absent"
                break
            if key not in images:
                reason = "witness image does not cover the added edge"
                break
        if reason is not None:
            return CertificateCheck(False, i, reason), i + 1
        count += len(steps)
    return CertificateCheck(True), count


def verify_certificate(g: Hypergraph, pattern: Pattern,
                       cert: SaturationCertificate) -> CertificateCheck:
    """Replay a pattern certificate against g, independently of the engine
    (replay_steps)."""
    if cert.kind != "pattern":
        raise ValueError(f"expected a pattern certificate, got kind={cert.kind!r}")
    return replay_steps(g, pattern, cert.n, cert.r, _blocks(cert.steps))[0]


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
# The phase key is written as 0; the parser requires an integer there and
# keeps nothing of it.
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
        lines.append(f"{edge} | 0 | {witness}")
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, line_no: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:
        raise FormatError(line_no, f"expected integers, got {text.strip()!r}") from None


def _vertex_columns(found: list, number: dict, n: int) -> tuple | None:
    """The number columns of a scanned block as ints, or None when one is n
    or more; number keeps int() of each digit string below n met, and a
    string longer than n's, which int() may refuse, is not converted."""
    texts = [*zip(*found)]
    try:
        return tuple([[*map(number.__getitem__, text)] for text in texts])
    except KeyError:
        fresh = {*chain.from_iterable(texts)}.difference(number)
    if any(len(text) > len(str(n)) or int(text) >= n for text in fresh):
        return None
    number.update(zip(fresh, map(int, fresh)))
    return _vertex_columns(found, number, n)


def _parse_mapping(text: str, line_no: int) -> tuple[int, ...]:
    """The per-token parse of a pattern witness: the only source of its
    FormatErrors, and the path for every witness not in written form."""
    mapping = {}
    for tok in text.split():
        a, _, b = tok.partition("->")  # without "->", b is "", not an integer
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


# the characters at which str.splitlines ends a line, but "\r", which ends
# one only when no "\n" follows it
_LINE_ENDS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _chunk_lines(chunks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of the text that chunks join into, one list per chunk, as
    the whole text's splitlines() gives them.  A chunk's last line is
    carried into the next chunk unless a line end that nothing can extend
    closes it, so a line or a "\r\n" split across chunks is joined."""
    carry = ""
    for chunk in chunks:
        text = carry + chunk
        lines = text.splitlines()
        if text[-1:] in _LINE_ENDS:  # "" is in it too: an empty text has no line
            carry = ""
        else:
            carry = lines.pop() + ("\r" if text[-1] == "\r" else "")
        yield lines
    yield carry.splitlines()


def read_certificate(chunks: Iterable[str]) -> tuple[str, int, int, Iterator]:
    """The header (kind, n, r) of a certificate text, given as an iterable
    of text chunks split anywhere (blocks read from an open file, its lines,
    or (text,)), and a generator of its steps in blocks of BLOCK lines: the
    scan's tuple of vertex columns (_steps zips it into steps), or a list of
    plain step tuples, (edge, mapping) for a pattern certificate, (edge,
    vertex_set, core) for a template one; each line's phase key must be an
    integer and is dropped.  Lines and line numbers are those of the whole
    text's splitlines(), and one chunk and one block are held at a time.  A
    malformed header raises at once, a malformed step line when the
    generator reaches its block."""
    lines = chain.from_iterable(_chunk_lines(chunks))
    for line_no, raw in enumerate(lines, start=1):
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
    return kind, n, r, _raw_steps(lines, line_no, kind, n, r)


def _raw_steps(lines, line_no: int, kind: str, n: int, r: int) -> Iterator:
    """The step blocks of the lines after line line_no."""
    written = None  # the scan, built at the first pattern step
    number: dict[str, int] = {}  # int() of each digit string scanned, below n
    size = 1 if kind == "pattern" else BLOCK  # one line until the scan is built
    while block := [*islice(lines, size)]:
        found = written.findall("\n".join(block)) if written else ()
        if len(found) == len(block) and (columns := _vertex_columns(found, number, n)):
            line_no += len(block)
            yield columns
            continue
        steps = []
        for line_no, raw in enumerate(block, line_no + 1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            fields = line.split("|")
            if len(fields) != 3:
                raise FormatError(line_no, "step must be 'edge | phase_key | witness'")
            edge_text, phase_text, witness = fields
            edge = _parse_int_list(edge_text, line_no)
            try:
                int(phase_text)  # the key must be an integer; nothing keeps it
            except ValueError:
                raise FormatError(line_no, f"phase key {phase_text.strip()!r} "
                                           f"is not an integer") from None
            if kind == "pattern":
                m = _parse_mapping(witness, line_no)
                # the scan: lines as certificate_to_text writes them, any key,
                # each vertex a group; built from an edge of r vertices, as it
                # grows with r and h, and a mapping, so its columns count lines
                if written is None and len(edge) == r and m:
                    edge_re = " ".join(["([0-9]+)"] * r)
                    map_re = " ".join(f"{v}->([0-9]+)" for v in range(len(m)))
                    written = re.compile(rf"^{edge_re} \| -?[0-9]+ \| {map_re}$", re.M)
                    size = BLOCK
                steps.append((edge, m))
            else:
                sets = {tok[0]: tok[3:-1] for tok in witness.split()
                        if tok[:3] in ("W={", "Z={") and tok.endswith("}")}
                if len(sets) != 2:
                    raise FormatError(line_no, "template witness must be 'W={...} Z={...}'")
                steps.append((edge, _parse_int_list(sets["W"], line_no),
                              _parse_int_list(sets["Z"], line_no)))
        yield steps


def certificate_from_text(text: str) -> SaturationCertificate:
    kind, n, r, blocks = read_certificate((text,))
    step = PatternStep if kind == "pattern" else TemplateStep
    steps = chain.from_iterable(_steps(block, r) for block in blocks)
    return SaturationCertificate(kind, n, r, tuple(starmap(step, steps)))
