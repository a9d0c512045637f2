import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsat.hypergraph import (
    FormatError,
    Hypergraph,
    canonical_edge,
    colex_key,
    complete_graph,
    edge_rank,
    edge_universe,
    graph_from_text,
    graph_of_mask,
    graph_to_text,
    mask_rank_table,
    set_bits,
)


def test_rank_examples():
    assert edge_rank((0, 1), 4) == 0
    assert edge_rank((2, 3), 4) == 5


@pytest.mark.parametrize("n,r", [(6, 3), (8, 4), (10, 5), (12, 2), (16, 5),
                                 (20, 4), (14, 7), (9, 1)])
def test_rank_matches_universe_order_grid(n, r):
    # every pair here has C(n, r) <= 1e5
    universe = edge_universe(n, r)
    assert len(universe) == comb(n, r)
    for i, e in enumerate(universe):
        assert edge_rank(e, n) == i


UNIVERSE_GRID = [(n, r) for n in range(1, 10) for r in range(1, n + 1)] + \
    [(0, 1), (3, 5), (20, 1), (20, 3), (16, 8), (24, 4)]


@pytest.mark.parametrize("n,r", UNIVERSE_GRID)
def test_universe_and_rank_table_match_sorted_constructions(n, r):
    # built in colex order, without a sort: compare with the sorted builds
    assert edge_universe.__wrapped__(n, r) == \
        tuple(sorted(combinations(range(n), r), key=colex_key))
    masks = sorted(map(sum, combinations([1 << v for v in range(n)], r)))
    # the dict's insertion order is rank order as well
    assert list(mask_rank_table.__wrapped__(n, r).items()) == \
        list(zip(masks, range(len(masks))))


def test_colex_order_grows_with_largest_element():
    # rank increases with the largest differing element
    assert edge_rank((0, 5), 7) > edge_rank((3, 4), 7)
    assert edge_rank((1, 2, 6), 7) > edge_rank((3, 4, 5), 7)


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_rank((0, 0), 4)
    with pytest.raises(ValueError):
        edge_rank((0, 9), 4)


def test_complete_graph_counts():
    assert complete_graph(4, 2).edge_count == 6
    assert complete_graph(5, 3).edge_count == 10
    assert complete_graph(7, 4).edge_count == comb(7, 4)
    with pytest.raises(ValueError):
        complete_graph(3, 4)


def test_edge_sets_are_sets():
    g1 = Hypergraph(4, 2, [(0, 1), (0, 1), (2, 3)])
    g2 = Hypergraph(4, 2, [(2, 3), (0, 1)])
    assert g1 == g2
    assert g1.edge_count == 2
    # unsorted input is canonicalized
    assert Hypergraph(4, 2, [(1, 0)]) == Hypergraph(4, 2, [(0, 1)])
    # no edges, however given
    for g in (Hypergraph(4, 2), Hypergraph(4, 2, []), Hypergraph(4, 2, frozenset())):
        assert g == Hypergraph(4, 2) and g.edges == frozenset() and g.sorted_edges == ()


def test_graph_validation():
    with pytest.raises(ValueError):
        Hypergraph(4, 2, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(4, 2, [(0, 4)])
    with pytest.raises(ValueError):
        Hypergraph(4, 2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Hypergraph(4, 0, [])


def test_universe_cap():
    with pytest.raises(ValueError, match="exceeds"):
        Hypergraph(60, 10)
    with pytest.raises(ValueError, match="exceeds"):
        complete_graph(60, 10)


def test_text_roundtrip_bit_exact():
    g = Hypergraph(5, 2, [(0, 1), (2, 4), (1, 3)])
    text = graph_to_text(g)
    assert graph_from_text(text) == g
    assert graph_to_text(graph_from_text(text)) == text
    # canonical writer emits edges in colex order
    assert text == "5 2\n0 1\n1 3\n2 4\n"


def test_text_comments_and_errors():
    text = "# a comment\n4 2\n0 1\n\n# another\n2 3\n"
    g = graph_from_text(text)
    assert g == Hypergraph(4, 2, [(0, 1), (2, 3)])
    with pytest.raises(FormatError) as exc:
        graph_from_text("4 2\n1 0\n")
    assert exc.value.line_no == 2
    with pytest.raises(FormatError):
        graph_from_text("")
    with pytest.raises(FormatError):
        graph_from_text("4 2\n0 9\n")
    with pytest.raises(FormatError):
        graph_from_text("4\n")


# -- bulk edge validation and the mask codec against per-edge oracles ----------

def per_edge_edges(n, r, edges):
    """Hypergraph's edge set as canonical_edge gives it edge by edge: the
    frozenset, or the message of the first ValueError."""
    try:
        return frozenset(canonical_edge(e, n, r) for e in edges)
    except ValueError as exc:
        return str(exc)


def graph_edges(n, r, edges):
    try:
        return Hypergraph(n, r, edges).edges
    except ValueError as exc:
        return str(exc)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 7))
    r = draw(st.integers(1, 4))
    # mostly in range, some negative or >= n, some of the wrong length
    vertex = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    size = st.sampled_from([r, r, r, r - 1, r + 1]) if draw(st.booleans()) else st.just(r)
    edge = size.flatmap(lambda k: st.lists(vertex, min_size=k, max_size=k))
    edges = draw(st.lists(edge, max_size=12))
    if draw(st.booleans()):  # already canonical, with duplicates
        edges = [sorted(set(e)) for e in edges if len(set(e)) == r]
        edges += edges[:3]
    return n, r, [tuple(e) for e in edges]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edge_lists(), st.sampled_from(["list", "tuple", "set", "frozenset",
                                      "generator", "lists"]))
def test_bulk_edge_check_matches_canonical_edge(case, container):
    n, r, edges = case
    make = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset,
            "generator": lambda es: (e for e in es),
            "lists": lambda es: [list(e) for e in es]}[container]
    if container in ("set", "frozenset"):
        # both sides iterate the one container, so the first bad edge agrees
        shared = make(edges)
        assert graph_edges(n, r, shared) == per_edge_edges(n, r, shared)
    else:
        assert graph_edges(n, r, make(edges)) == per_edge_edges(n, r, make(edges))


def test_bulk_edge_check_examples():
    assert Hypergraph(5, 3, [(2, 1, 0), (0, 1, 2), (1, 3, 4)]).edges == \
        {(0, 1, 2), (1, 3, 4)}
    for edges, message in [
            ([(0, 1), (2, 2)], "edge (2, 2) has a repeated vertex"),
            ([(0, 1), (3, 0, 1)], "edge (0, 1, 3) does not have 2 vertices"),
            ([(0, 1), (-1, 2)], "edge (-1, 2) is out of range for n=4"),
            ([(0, 1), (1, 4)], "edge (1, 4) is out of range for n=4"),
            ([(0, 1), ("a", 2)], None)]:
        with pytest.raises((ValueError, TypeError)) as exc:
            Hypergraph(4, 2, edges)
        if message is not None:
            assert str(exc.value) == message
        else:
            assert exc.type is TypeError


@st.composite
def colex_edge_lists(draw):
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, 4))
    universe = edge_universe(n, r)
    keep = draw(st.lists(st.booleans(), min_size=len(universe),
                         max_size=len(universe)))
    return n, r, [e for e, k in zip(universe, keep) if k]


def lex_order(edges):
    return sorted(edges)


def with_repeat(edges):
    return edges + edges[len(edges) // 2:][:1]


def reversed_vertices(edges):
    # each vertex tuple reversed, the edges still in colex order
    return [e[::-1] for e in edges]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(colex_edge_lists(), st.sampled_from([
    list, tuple, lambda es: es[::-1], lex_order, with_repeat, reversed_vertices,
    set, frozenset, lambda es: (e for e in es)]))
def test_sorted_edges_keeps_colex_input_and_sorts_the_rest(case, form):
    n, r, edges = case
    g = Hypergraph(n, r, form(edges))
    same = Hypergraph(n, r, frozenset(edges))
    assert g.sorted_edges == tuple(sorted(g.edges, key=colex_key)) == tuple(edges)
    assert "_listed" not in g.__dict__  # the first read drops the kept list
    assert g == same and hash(g) == hash(same)
    assert graph_to_text(g) == graph_to_text(same)


def shifting_mask(g):
    m = 0
    for e in g.edges:
        m |= 1 << edge_rank(e, g.n)
    return m


def shifting_decode(n, r, mask):
    universe = edge_universe(n, r)
    return frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)


@pytest.mark.parametrize("n,r", [(1, 1), (5, 2), (9, 4), (100, 2), (40, 3), (24, 4)])
def test_mask_codec_matches_shifting_loops(n, r):
    size = comb(n, r)
    rng = random.Random(n * 10 + r)
    masks = [0, (1 << size) - 1,
             sum(1 << i for i in range(size) if rng.random() < 0.02),
             sum(1 << i for i in range(size) if rng.random() < 0.98),
             1 << (size - 1)]
    for mask in masks:
        g = graph_of_mask(n, r, mask)
        assert g.edges == shifting_decode(n, r, mask)
        assert Hypergraph(n, r, set(g.edges)).mask == shifting_mask(g) == mask
    # bits above the universe are ignored, and a negative mask is read in
    # two's complement, as the shifting loop reads them
    assert graph_of_mask(n, r, -1).edges == shifting_decode(n, r, -1)
    assert graph_of_mask(n, r, 1 << size).edges == frozenset()


def test_set_bits_matches_shifting_loop():
    def shifting_bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    rng = random.Random(2021)
    masks = [0, 1, *(1 << i for i in (1, 7, 8, 63, 64, 1000, 4999)),
             *((1 << w) - 1 for w in range(1, 201)),
             *(rng.getrandbits(rng.randint(1, 5000)) for _ in range(500))]
    for mask in masks:
        assert set_bits(mask) == shifting_bits(mask), mask


# -- the graph text scan against the seed per-line parser -----------------------

def seed_graph_from_text(text: str) -> Hypergraph:
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


def _parsed(parse, text):
    """A parse's graph (n, r, edges, the edges as listed, sorted_edges) or
    its FormatError (line and message) or ValueError."""
    try:
        g = parse(text)
    except FormatError as exc:
        return "format error", exc.line_no, str(exc)
    except ValueError as exc:
        return "value error", str(exc)
    listed = g.__dict__.get("_listed")  # read before sorted_edges drops it
    return "ok", g.n, g.r, g.edges, listed, g.sorted_edges


def assert_scan_matches_seed(text):
    outcome = _parsed(graph_from_text, text)
    assert outcome == _parsed(seed_graph_from_text, text), text
    return outcome


def _random_graphs():
    """Seeded random graphs for r = 1..4 and n = 0..30, the edgeless ones
    included, with their edges listed in a random order."""
    rng = random.Random(32)
    for r in range(1, 5):
        for n in range(31):
            universe = edge_universe(n, r)
            yield Hypergraph(n, r, [])
            if universe:
                edges = rng.sample(universe, rng.randint(1, min(len(universe), 40)))
                yield Hypergraph(n, r, edges)


RANDOM_GRAPHS = list(_random_graphs())


def _line_mutations(line, n, r):
    """Ways to change one line, the header or an edge line: (name, lines
    that replace it).  On the header, "leading zero" is a header with a
    leading zero."""
    tokens = line.split()
    yield "comment line", ["# note", line]
    yield "blank line", ["", line]
    yield "trailing space", [line + " "]
    yield "tab", [line.replace(" ", "\t", 1) if r > 1 else "\t" + line]
    yield "crlf", [line + "\r"]
    yield "leading zero", ["0" + line]
    yield "plus sign", ["+" + line]
    yield "non-ASCII digit", [" ".join(["٣"] + tokens[1:])]
    yield "superscript digit", [" ".join(["²"] + tokens[1:])]  # isdigit, not int()
    yield "underscore", [" ".join(["1_0"] + tokens[1:])]
    yield "5000 digits", [" ".join(tokens[:-1] + ["9" * 5000])]
    yield "vertex n", [" ".join(tokens[:-1] + [str(n)])]
    yield "negative vertex", [" ".join(["-1"] + tokens[1:])]
    yield "not increasing", [" ".join(tokens[::-1])]
    yield "repeated vertex", [" ".join(tokens[:1] * r)]
    yield "r - 1 vertices", [" ".join(tokens[:-1])]
    yield "r + 1 vertices", [line + " " + str(n - 1)]
    yield "repeated edge line", [line, line]


def test_graph_scan_matches_seed_on_written_texts():
    for g in RANDOM_GRAPHS:
        text = graph_to_text(g)
        assert assert_scan_matches_seed(text)[:4] == ("ok", g.n, g.r, g.edges)


def test_graph_scan_matches_seed_on_mutated_texts():
    bases = [g for g in RANDOM_GRAPHS if g.edge_count >= 3]
    assert {g.r for g in bases} == {1, 2, 3, 4}
    for g in bases:
        lines = graph_to_text(g).splitlines()
        for j in (0, 1, len(lines) // 2, len(lines) - 1):  # header, line 2, middle, last
            for _, changed in _line_mutations(lines[j], g.n, g.r):
                assert_scan_matches_seed("\n".join(lines[:j] + changed + lines[j + 1:])
                                         + "\n")
        text = "\n".join(lines) + "\n"
        assert_scan_matches_seed(text[:-1])  # no final newline
        assert_scan_matches_seed(text.replace(" ", "  ", 1))  # header with two spaces
        assert_scan_matches_seed(text + f"#BOUND edges {g.edge_count} 9 true\n"
                                 "#RATIO edges_over_n 1.000000\n")
    # an r too large for the edges is refused before any graph is built
    assert_scan_matches_seed("100000000 50000000\n0 1\n")


def _written(n, r, edges):
    """The text of a graph written as graph_to_text writes it, with its edge
    lines in the order given."""
    return "".join([f"{n} {r}\n", *(" ".join(map(str, e)) + "\n" for e in edges)])


def test_written_graph_texts_are_scanned(monkeypatch):
    """graph_to_text's output never reaches the per-line loop, nor does a
    text written the same way with its edges shuffled or in lex order (as
    the benchmark's workloads write their graphs)."""
    import wsat.hypergraph as hypergraph

    def refuse(text):
        raise AssertionError(f"read line by line: {text!r}")

    monkeypatch.setattr(hypergraph, "_read_graph_lines", refuse)
    rng = random.Random(36)
    for g in RANDOM_GRAPHS:
        shuffled = rng.sample(g.sorted_edges, g.edge_count)
        for text in (graph_to_text(g), _written(g.n, g.r, shuffled),
                     _written(g.n, g.r, sorted(g.edges))):
            assert graph_from_text(text) == g
    with pytest.raises(AssertionError):
        graph_from_text("# a comment\n3 2\n0 1\n")
