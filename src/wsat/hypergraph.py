"""r-uniform hypergraphs on labeled vertices, colex edge indexing, and text I/O.

Vertices are plain 0-based integers.  An edge is a strictly increasing tuple
of r vertex indices; edges are ranked, enumerated and compared everywhere in
colexicographic order (the rank grows with the largest differing element).
All values are immutable and hashable; "mutation" means building a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from math import comb
from operator import add, itemgetter

Edge = tuple[int, ...]

# Hard cap on the edge universe size C(n, r): every engine in this package
# enumerates the complete graph's edges, so silently accepting huge universes
# would only move the failure somewhere less explicable.
MAX_UNIVERSE = 10_000_000


class FormatError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def check_universe(n: int, r: int) -> int:
    """Return C(n, r), rejecting universes larger than MAX_UNIVERSE."""
    size = comb(n, r)
    if size > MAX_UNIVERSE:
        raise ValueError(
            f"edge universe C({n},{r}) = {size} exceeds the configured "
            f"limit {MAX_UNIVERSE}"
        )
    return size


def colex_key(e: Edge) -> Edge:
    """Sort key realizing colex order on same-size increasing tuples."""
    return tuple(reversed(e))


def canonical_edge(e, n: int, r: int) -> Edge:
    """Sort and validate an edge for the (n, r) universe."""
    vs = tuple(sorted(e))
    if len(vs) != r:
        raise ValueError(f"edge {vs} does not have {r} vertices")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"edge {vs} has a repeated vertex")
    if vs and (vs[0] < 0 or vs[-1] >= n):
        raise ValueError(f"edge {vs} is out of range for n={n}")
    return vs


def edge_rank(e: Edge, n: int) -> int:
    """Colex rank of an edge among the r-subsets of [n]."""
    vs = canonical_edge(e, n, len(tuple(e)))
    return sum(comb(v, i + 1) for i, v in enumerate(vs))


def edge_unrank(i: int, n: int, r: int) -> Edge:
    """Inverse of edge_rank: the edge of colex rank i among r-subsets of [n]."""
    if not 0 <= i < comb(n, r):
        raise ValueError(f"rank {i} out of range for C({n},{r})")
    out = []
    rest = i
    for k in range(r, 0, -1):
        # largest v with C(v, k) <= rest
        v = k - 1
        while comb(v + 1, k) <= rest:
            v += 1
        out.append(v)
        rest -= comb(v, k)
    return tuple(reversed(out))


@lru_cache(maxsize=64)
def edge_universe(n: int, r: int) -> tuple[Edge, ...]:
    """All r-subsets of [n] in colex order (cached)."""
    check_universe(n, r)
    return tuple(sorted(combinations(range(n), r), key=colex_key))


@lru_cache(maxsize=64)
def mask_rank_table(n: int, r: int) -> dict[int, int]:
    """Vertex bitmask -> colex rank lookup for the (n, r) universe (cached).

    Colex order on r-sets is the numeric order of their vertex bitmasks, so
    the keys are inserted in rank order.
    """
    check_universe(n, r)
    masks = sorted(map(sum, combinations([1 << v for v in range(n)], r)))
    return dict(zip(masks, range(len(masks))))


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on n labeled vertices."""

    n: int
    r: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"uniformity r={self.r} must be at least 1")
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} must be non-negative")
        check_universe(self.n, self.r)
        canon = frozenset(canonical_edge(e, self.n, self.r) for e in self.edges)
        object.__setattr__(self, "edges", canon)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=colex_key))

    @cached_property
    def mask(self) -> int:
        """Edge set as a bitmask over colex ranks.  An edge's rank is the sum
        over positions i of comb(e[i], i + 1) (edge_rank), summed here one
        position at a time over all edges, with no universe-sized table."""
        edges = self.edges
        ranks = repeat(0, len(edges))
        for i in range(self.r):
            column = [comb(v, i + 1) for v in range(self.n)]
            ranks = map(add, ranks, map(column.__getitem__, map(itemgetter(i), edges)))
        m = 0
        for rank in ranks:
            m |= 1 << rank
        return m

    def with_edges(self, extra) -> "Hypergraph":
        return Hypergraph(self.n, self.r, self.edges | frozenset(map(tuple, extra)))

    def is_complete(self) -> bool:
        return self.edge_count == comb(self.n, self.r)


def complete_graph(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices."""
    if n < r:
        raise ValueError(f"complete graph needs n >= r, got n={n}, r={r}")
    return Hypergraph(n, r, edge_universe(n, r))


def missing_edges(g: Hypergraph) -> list[Edge]:
    """Edges of the complete (n, r) universe absent from g, in colex order."""
    return [e for e in edge_universe(g.n, g.r) if e not in g.edges]


def graph_of_mask(n: int, r: int, mask: int) -> Hypergraph:
    universe = edge_universe(n, r)
    return Hypergraph(n, r, (universe[i] for i in range(len(universe)) if mask >> i & 1))


# -- text format: first line "n r", then one edge per line, '#' comments -----

def graph_to_text(g: Hypergraph) -> str:
    lines = [f"{g.n} {g.r}"]
    lines.extend(" ".join(map(str, e)) for e in g.sorted_edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Hypergraph:
    n = r = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(line_no, f"expected integers, got {line!r}") from None
        if n is None:
            if len(values) != 2:
                raise FormatError(line_no, "header must be 'n r'")
            n, r = values
            if r < 1 or n < 0:
                raise FormatError(line_no, f"invalid header n={n} r={r}")
            continue
        if len(values) != r:
            raise FormatError(line_no, f"edge {values} does not have {r} vertices")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise FormatError(line_no, f"edge {values} is not strictly increasing")
        if values[0] < 0 or values[-1] >= n:
            raise FormatError(line_no, f"edge {values} is out of range for n={n}")
        edges.append(tuple(values))
    if n is None:
        raise FormatError(1, "missing 'n r' header")
    return Hypergraph(n, r, edges)


@dataclass(frozen=True)
class Pattern:
    """A fixed target hypergraph H together with its sparseness s: the
    smallest size of a vertex set contained in exactly one edge of H.  Build
    with templates.make_pattern, which computes s; h and r are read off the
    graph.
    """

    graph: Hypergraph
    s: int

    def __post_init__(self):
        if not self.graph.edges:
            raise ValueError("pattern must have at least one edge")
        if not 1 <= self.s <= self.graph.r:
            raise ValueError(f"sparseness {self.s} out of range for r={self.graph.r}")

    @property
    def h(self) -> int:
        return self.graph.n

    @property
    def r(self) -> int:
        return self.graph.r
