"""Text round-trips: for every written format, parsing the text a writer
produced and writing the result again gives the same text, and the same
value back.  A certificate's phase-key column reads any integer and keeps
none, so a text with other keys reads as the text with every key 0."""

from itertools import chain

from hypothesis import given, settings, strategies as st

from wsat.designs import CoverDesign, cover_from_text, cover_to_text
from wsat.hypergraph import Hypergraph, edge_universe, graph_from_text, graph_to_text
from wsat.percolation import (
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    _steps,
    certificate_from_text,
    certificate_to_text,
    read_certificate,
)

ROUNDTRIP = settings(max_examples=150, deadline=None, derandomize=True)


def _read_steps(text):
    """The steps read_certificate yields, taken out of their blocks."""
    r, blocks = read_certificate((text,))[2:]
    return [*chain.from_iterable(_steps(block, r) for block in blocks)]


def _subsets(draw, n, k, max_size):
    """A list of distinct sorted k-subsets of range(n)."""
    universe = edge_universe(n, k)
    if not universe:
        return []
    picks = draw(st.lists(st.integers(0, len(universe) - 1), max_size=max_size,
                          unique=True))
    return [universe[i] for i in picks]


@st.composite
def graphs(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    return Hypergraph(n, r, _subsets(draw, n, r, 40))


@st.composite
def covers(draw):
    t = draw(st.integers(1, 3))
    k = draw(st.integers(t, 5))
    N = draw(st.integers(k, 10))
    return CoverDesign(N, k, t, tuple(_subsets(draw, N, k, 12)))


vertices = st.integers(0, 10_000)
phase_keys = st.integers(-50, 50)


@st.composite
def pattern_certificates(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 40))
    h = draw(st.integers(r, 8))
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        edge = tuple(draw(st.lists(vertices, min_size=r, max_size=r)))
        mapping = tuple(draw(st.lists(vertices, min_size=h, max_size=h)))
        steps.append(PatternStep(edge, mapping))
    return SaturationCertificate("pattern", n, r, tuple(steps))


@st.composite
def template_certificates(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 40))
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        edge = tuple(draw(st.lists(vertices, min_size=r, max_size=r)))
        vertex_set = tuple(draw(st.lists(vertices, min_size=r, max_size=8)))
        core = tuple(draw(st.lists(vertices, min_size=1, max_size=r)))
        steps.append(TemplateStep(edge, vertex_set, core))
    return SaturationCertificate("template", n, r, tuple(steps))


@ROUNDTRIP
@given(graphs())
def test_graph_text_roundtrip(g):
    text = graph_to_text(g)
    back = graph_from_text(text)
    assert back == g
    assert graph_to_text(back) == text


@ROUNDTRIP
@given(covers())
def test_cover_text_roundtrip_property(design):
    text = cover_to_text(design)
    back = cover_from_text(text)
    assert back == design
    assert cover_to_text(back) == text


@ROUNDTRIP
@given(pattern_certificates())
def test_pattern_certificate_text_roundtrip(cert):
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert back == cert
    assert certificate_to_text(back) == text
    # the parser's blocks give each step as the plain tuple of its fields
    assert _read_steps(text) == list(cert.steps)


@ROUNDTRIP
@given(template_certificates())
def test_template_certificate_text_roundtrip(cert):
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert back == cert
    assert certificate_to_text(back) == text
    assert _read_steps(text) == list(cert.steps)


@ROUNDTRIP
@given(st.one_of(pattern_certificates(), template_certificates()), st.data())
def test_certificate_phase_keys_are_read_and_dropped(cert, data):
    zero = certificate_to_text(cert)
    header, *lines = zero.splitlines()
    keyed = [header]
    for line in lines:
        edge, _, witness = line.split(" | ")
        keyed.append(f"{edge} | {data.draw(phase_keys)} | {witness}")
    text = "\n".join(keyed) + "\n"
    assert _read_steps(text) == _read_steps(zero)
    assert certificate_from_text(text) == cert
    assert certificate_to_text(certificate_from_text(text)) == zero
