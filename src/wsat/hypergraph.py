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
separated by single spaces, every line ended by a newline) in one scan:
one split into tokens, one % render of them compared with the text, and
int() once for each distinct vertex token, each an ASCII digit string no
longer than str(n).  Its edges go to Hypergraph as a list in file order.
Any other text, such as one with comments or the #BOUND and #RATIO lines
that generate appends, takes the per-line loop, which is the only source
of FormatErrors, so messages and line numbers do not depend on the scan.

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
        return _canonical_columns([list(map(itemgetter(i), edges)) for i in range(r)], n)
    except TypeError:  # vertices that do not compare as integers
        return False


def _canonical_columns(columns: list, n: int) -> bool:
    """Whether non-empty vertex columns hold strictly increasing edges inside
    [0, n): each column below the next, column 0 non-negative and the last
    column below n."""
    return (all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))
            and min(columns[0]) >= 0 and max(columns[-1]) < n)


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
    """The graph of a text in the format above.  A text written exactly as
    graph_to_text writes it is read in one scan; any other goes through
    the per-line loop, which alone raises FormatErrors."""
    return _scan_graph(text) or _read_graph_lines(text)


def _scan_graph(text: str) -> Hypergraph | None:
    """The graph of a text that one % render of its tokens reproduces, as
    graph_to_text writes it, with ASCII digits for every token and every
    edge strictly increasing inside [0, n); else None.  Each distinct
    vertex token is int()ed once, and the edges are listed in file order."""
    tokens = text.split()
    if len(tokens) < 2 or not all(t.isascii() and t.isdigit() for t in tokens[:2]):
        return None
    try:
        n, r = map(int, tokens[:2])
    except ValueError:  # more digits than int() converts
        return None
    body = tokens[2:]
    if r < 1 or len(body) % r:
        return None
    line = " ".join(["%s"] * r) + "\n" if body else ""  # r is unbounded without edges
    if ("%s %s\n" + line * (len(body) // r)) % tuple(tokens) != text:
        return None
    if not body:
        return Hypergraph(n, r, [])
    vertices = set(body)
    width = len(str(n))
    if not all(t.isascii() and t.isdigit() and len(t) <= width for t in vertices):
        return None
    number = dict(zip(vertices, map(int, vertices)))
    columns = [[*map(number.__getitem__, body[i::r])] for i in range(r)]
    if not _canonical_columns(columns, n):
        return None
    return Hypergraph(n, r, [*zip(*columns)])


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


class Pattern(_Value):
    """A fixed target hypergraph H together with its sparseness s: the
    smallest size of a vertex set contained in exactly one edge of H.  Build
    with templates.make_pattern, which computes s; h and r are read off the
    graph.
    """

    _fields = ("graph", "s")

    def __init__(self, graph: Hypergraph, s: int):
        if not graph.edges:
            raise ValueError("pattern must have at least one edge")
        if not 1 <= s <= graph.r:
            raise ValueError(f"sparseness {s} out of range for r={graph.r}")
        self.__dict__.update(graph=graph, s=s)

    @property
    def h(self) -> int:
        return self.graph.n

    @property
    def r(self) -> int:
        return self.graph.r
