"""r-uniform hypergraphs on labeled vertices, colex edge indexing, and text I/O.

Vertices are plain 0-based integers.  An edge is a strictly increasing tuple
of r vertex indices; edges are ranked, enumerated and compared everywhere in
colexicographic order (the rank grows with the largest differing element).
All values are immutable and hashable; "mutation" means building a new value.

Colex order comes from how the data is built, not from sorting: the
decreasing r-tuples of [n] come from itertools.combinations in decreasing
lex order, so each reversed, and the sequence reversed, they are the
universe in colex order (edge_universe), and their vertex bitmasks increase
(mask_rank_table).  edge_universe is the package's one source of
colex-ordered k-subsets: edges, template cores, sparseness candidates and
k = t covers.  Filtering the universe keeps its order, as complete_graph,
graph_of_mask and the constructions built on it do.

Hypergraph checks its edges in bulk, a column at a time, and falls back to
sorting and checking each edge (canonical_edge) only when that check fails,
so unsorted edges are still accepted and errors name the first bad edge.
It keeps the edges as given, and sorted_edges sorts them when first
read, so that edges built in colex order take timsort's one pass; a list
that repeats an edge gives way to the edge set.  A graph's edge mask over
colex ranks is encoded through a byte array.  set_bits is the package's
one set-bit decoder, one linear pass over a mask's binary digits:
graph_of_mask, the closures' missing edges and the sampled covers' blocks
all read their bits with it.

The text format is a header line "n r", then one edge per line, with blank
lines and '#' comment lines skipped.  graph_from_text reads a text written
exactly as graph_to_text writes it (the header, then each edge's r vertices
separated by single spaces, every line ended by a newline), its edges in
any order, in one scan: its tokens, each distinct one int()ed once, build a
Hypergraph, kept only if a %d render of its header and of the edges it
keeps as listed (all of them exactly when each is strictly increasing inside
[0, n) and none repeats) writes back the text.  Any other text, such as one
with comments or the #BOUND and #RATIO lines that generate appends, takes
the per-line loop, which is the only source of FormatErrors, so messages
and line numbers do not depend on the scan.

The package's value classes (Hypergraph, Pattern and the results of the
other modules) are plain classes on the private base _Value, which gives
them a frozen dataclass's semantics from a _fields tuple without importing
dataclasses: equality with an instance of the same class and a hash, both
over the field values, a Name(field=value, ...) repr, and an AttributeError
on any assignment or deletion.  Each __init__ validates its arguments and
sets the fields once through __dict__, where cached_property also stores.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import add, itemgetter, lt

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


def check_universe(n: int, r: int) -> None:
    """Reject universes larger than MAX_UNIVERSE."""
    size = comb(n, r)
    if size > MAX_UNIVERSE:
        raise ValueError(
            f"edge universe C({n},{r}) = {size} exceeds the configured "
            f"limit {MAX_UNIVERSE}"
        )


# Sort key realizing colex order on same-size increasing tuples: the tuple
# reversed by a slice, at C speed.
colex_key = itemgetter(slice(None, None, -1))


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


@lru_cache(maxsize=64)
def edge_universe(n: int, r: int) -> tuple[Edge, ...]:
    """All r-subsets of [n] in colex order (cached): the decreasing r-tuples
    in decreasing lex order, each reversed, then the sequence reversed."""
    check_universe(n, r)
    return tuple(map(colex_key, combinations(range(n - 1, -1, -1), r)))[::-1]


# binary digits as bytes, with 0 where a digit is 0 (so that it is false)
_ZERO_BYTE = bytes.maketrans(b"0", b"\0")


def set_bits(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending: read off its binary
    digits, lowest first, in one pass."""
    digits = bin(mask)[:1:-1].encode().translate(_ZERO_BYTE)
    return [*compress(range(mask.bit_length()), digits)]


@lru_cache(maxsize=64)
def mask_rank_table(n: int, r: int) -> dict[int, int]:
    """Vertex bitmask -> colex rank lookup for the (n, r) universe (cached).

    Colex order on r-sets is the numeric order of their vertex bitmasks: the
    masks of the decreasing r-tuples, in reverse, are in rank order.
    """
    check_universe(n, r)
    masks = [*map(sum, combinations([1 << v for v in range(n - 1, -1, -1)], r))]
    return dict(zip(reversed(masks), range(len(masks))))


class _Value:
    """An immutable value over the attributes named in _fields, compared,
    hashed and printed by their values as a frozen dataclass is."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Hypergraph(_Value):
    """An r-uniform hypergraph on n labeled vertices."""

    _fields = ("n", "r", "edges")

    def __init__(self, n: int, r: int, edges=frozenset()):
        if r < 1:
            raise ValueError(f"uniformity r={r} must be at least 1")
        if n < 0:
            raise ValueError(f"vertex count n={n} must be non-negative")
        check_universe(n, r)
        if type(edges) is not frozenset:
            edges = list(edges)
        if not _canonical_edges(edges, n, r):
            # sort each edge and name the first bad one, as canonical_edge does
            edges = [canonical_edge(e, n, r) for e in edges]
        self.__dict__.update(n=n, r=r, edges=frozenset(edges))
        # kept for sorted_edges, which drops it when first read; a list that
        # repeats an edge gives way to the edge set
        self.__dict__["_listed"] = edges if len(edges) == len(self.edges) else self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in colex order: those kept when the graph was built,
        sorted, in one pass when they were given in colex order."""
        return tuple(sorted(self.__dict__.pop("_listed"), key=colex_key))

    @cached_property
    def mask(self) -> int:
        """Edge set as a bitmask over colex ranks.  An edge's rank is the sum
        over positions i of comb(e[i], i + 1) (edge_rank), summed here one
        position at a time over all edges, with no universe-sized table; the
        bits are set in a byte array and read as one integer."""
        edges = self.edges
        ranks = repeat(0, len(edges))
        for i in range(self.r):
            column = [comb(v, i + 1) for v in range(self.n)]
            ranks = map(add, ranks, map(column.__getitem__, map(itemgetter(i), edges)))
        buf = bytearray(comb(self.n, self.r) + 7 >> 3)
        for rank in ranks:
            buf[rank >> 3] |= 1 << (rank & 7)
        return int.from_bytes(buf, "little")

    def with_edges(self, extra) -> "Hypergraph":
        return Hypergraph(self.n, self.r, self.edges | frozenset(map(tuple, extra)))

    def is_complete(self) -> bool:
        return self.edge_count == comb(self.n, self.r)


def _canonical_edges(edges, n: int, r: int) -> bool:
    """Whether every edge is already a strictly increasing r-tuple inside
    [0, n), checked a column at a time: each edge a tuple of length r, each
    column below the next, column 0 non-negative and column r-1 below n."""
    try:
        if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {r}:
            return False
        columns = [list(map(itemgetter(i), edges)) for i in range(r)]
        return (all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))
                and min(columns[0]) >= 0 and max(columns[-1]) < n)
    except TypeError:  # vertices that do not compare as integers
        return False


def complete_graph(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices."""
    if n < r:
        raise ValueError(f"complete graph needs n >= r, got n={n}, r={r}")
    return Hypergraph(n, r, edge_universe(n, r))


def graph_of_mask(n: int, r: int, mask: int) -> Hypergraph:
    """The graph whose edges are the set bits of mask over colex ranks,
    lowest rank first.  Bits past the universe are ignored, and a negative
    mask is read in two's complement."""
    universe = edge_universe(n, r)
    return Hypergraph(n, r, map(universe.__getitem__,
                                set_bits(mask & (1 << len(universe)) - 1)))


# -- text format: first line "n r", then one edge per line, '#' comments -----

def graph_to_text(g: Hypergraph) -> str:
    """The header line, then one line per edge in colex order: every edge
    line is formatted by one % over the flattened edges."""
    edges = g.sorted_edges
    line = " ".join(["%s"] * g.r) + "\n"
    return f"{g.n} {g.r}\n" + line * len(edges) % tuple(chain.from_iterable(edges))


def graph_from_text(text: str) -> Hypergraph:
    """The graph of a text in the format above.  A text written as
    graph_to_text writes it, its edges in any order, is read in one scan;
    any other goes through the per-line loop, which alone raises FormatErrors."""
    return _scan_graph(text) or _read_graph_lines(text)


def _scan_graph(text: str) -> Hypergraph | None:
    """The graph of the header and edges (in file order) of a text's tokens,
    each distinct token int()ed once, if it builds and a %d render of its
    header and of the edges it keeps as listed writes back the text; else
    None.  It keeps them exactly when each is canonical and none repeats."""
    tokens = text.split()
    distinct = set(tokens)
    try:
        number = dict(zip(distinct, map(int, distinct)))
        n, r, *body = map(number.__getitem__, tokens)
        if r < 1 or len(body) % r:  # not edges of r tokens each
            return None
        g = Hypergraph(n, r, [*zip(*[iter(body)] * r)] if body else [])  # r unbounded
    except ValueError:  # a token int() refuses, no header, or a graph refused
        return None
    listed = g.__dict__["_listed"]
    line = " ".join(["%d"] * r) + "\n" if listed else ""
    if ("%d %d\n" + line * len(listed)) % (n, r, *chain.from_iterable(listed)) != text:
        return None
    return g


def _read_graph_lines(text: str) -> Hypergraph:
    """The per-line parse: the path for every text not in written form."""
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


def sparseness_witness(graph: Hypergraph) -> tuple[tuple[int, ...], Edge]:
    """Smallest (colex-first) vertex set contained in exactly one edge,
    together with that edge."""
    if not graph.edges:
        raise ValueError("sparseness is undefined for an empty edge set")
    edges = graph.sorted_edges
    for size in range(1, graph.r + 1):
        for cand in edge_universe(graph.n, size):
            cs = set(cand)
            hits = [e for e in edges if cs.issubset(e)]
            if len(hits) == 1:
                return cand, hits[0]
    raise AssertionError("unreachable: a full edge is always a witness")


def sparseness(graph: Hypergraph) -> int:
    """The sparseness s: min |W| over vertex sets W lying in exactly one edge."""
    return len(sparseness_witness(graph)[0])


class Pattern(_Value):
    """A fixed target hypergraph H, which must have an edge, with its
    sparseness s, worked out from H: the smallest size of a vertex set
    contained in exactly one edge.  h and r are read off the graph."""

    _fields = ("graph", "s")

    def __init__(self, graph: Hypergraph):
        self.__dict__.update(graph=graph, s=sparseness(graph))

    @property
    def h(self) -> int:
        return self.graph.n

    @property
    def r(self) -> int:
        return self.graph.r
