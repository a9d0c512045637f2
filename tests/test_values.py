"""The package's value classes against frozen-dataclass twins: each twin
below has the same fields, defaults and validation as its class, written as
a frozen dataclass, and every class must compare, hash, print, construct,
validate and refuse assignment exactly as its twin does."""

import inspect
from dataclasses import MISSING, dataclass, field, fields

import pytest

from wsat.constructions import BoundCheck, MainResult
from wsat.designs import CoverDesign, _check_block
from wsat.hypergraph import (Hypergraph, Pattern, canonical_edge, check_universe,
                             complete_graph, sparseness)
from wsat.percolation import (
    CertificateCheck,
    ClosureResult,
    SaturationCertificate,
    closure,
    witness_index,
)
from wsat.solver import RatioRow, WsatResult
from wsat.templates import make_pattern


@dataclass(frozen=True)
class HypergraphTwin:
    n: int
    r: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"uniformity r={self.r} must be at least 1")
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} must be non-negative")
        check_universe(self.n, self.r)
        edges = frozenset(canonical_edge(e, self.n, self.r) for e in self.edges)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class PatternTwin:
    graph: Hypergraph
    s: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "s", sparseness(self.graph))


@dataclass(frozen=True)
class SaturationCertificateTwin:
    kind: str
    n: int
    r: int
    steps: tuple = ()

    def __post_init__(self):
        if self.kind not in ("pattern", "template"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


@dataclass(frozen=True)
class ClosureResultTwin:
    graph: Hypergraph
    certificate: SaturationCertificate


@dataclass(frozen=True)
class CertificateCheckTwin:
    ok: bool
    step: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class CoverDesignTwin:
    N: int
    k: int
    t: int
    blocks: tuple = ()
    sampled: bool = False

    def __post_init__(self):
        if not self.N >= self.k >= self.t >= 1:
            raise ValueError(
                f"need N >= k >= t >= 1, got N={self.N}, k={self.k}, t={self.t}")
        canon = tuple(_check_block(b, self.N, self.k) for b in self.blocks)
        object.__setattr__(self, "blocks", canon)


@dataclass(frozen=True)
class BoundCheckTwin:
    name: str
    lhs: int
    rhs: int
    relation: str = "<="


@dataclass(frozen=True)
class MainResultTwin:
    graph: Hypergraph
    copies_edge_count: int
    extra_edge_count: int
    bounds: tuple


@dataclass(frozen=True)
class WsatResultTwin:
    value: int | None
    witness: Hypergraph | None
    explored: int
    status: str
    excluded_up_to: int | None = None


@dataclass(frozen=True)
class RatioRowTwin:
    n: int
    value: int
    ratio: float
    method: str


K3 = complete_graph(3, 2)
PATH = Hypergraph(4, 2, [(0, 1), (1, 2)])
CERT = SaturationCertificate("pattern", 4, 2, (((0, 2), (0, 1, 2)),))
BOUND = BoundCheck("b", 1, 2)

# class -> (twin, calls as (args, kwargs)); calls equal as values share an index
VALUES = {
    Hypergraph: (HypergraphTwin, [
        ((4, 2, [(0, 1), (1, 2)]), {}),
        ((4, 2), {"edges": {(2, 1), (1, 0)}}),
        ((4, 2), {}),
        ((), {"n": 4, "r": 2, "edges": [(1, 2), (0, 1)]}),
        ((3, 2, [(0, 1)]), {}),
    ]),
    Pattern: (PatternTwin, [
        ((K3,), {}),
        ((), {"graph": complete_graph(3, 2)}),
        ((PATH,), {}),
        ((complete_graph(4, 3),), {}),
    ]),
    SaturationCertificate: (SaturationCertificateTwin, [
        (("pattern", 4, 2), {}),
        (("pattern", 4, 2, ()), {}),
        (("template", 4, 2), {"steps": (((0, 1), (0, 1, 2), (0,)),)}),
        ((), {"kind": "pattern", "n": 4, "r": 2, "steps": CERT.steps}),
    ]),
    ClosureResult: (ClosureResultTwin, [
        ((PATH, CERT), {}),
        ((), {"graph": PATH, "certificate": CERT}),
        ((K3, SaturationCertificate("pattern", 3, 2)), {}),
    ]),
    CertificateCheck: (CertificateCheckTwin, [
        ((True,), {}),
        ((True, None, None), {}),
        ((False, 3, "no copy"), {}),
        ((False,), {"reason": "no copy", "step": 3}),
    ]),
    CoverDesign: (CoverDesignTwin, [
        ((4, 2, 2, ((1, 0), (3, 2))), {}),
        ((4, 2, 2), {"blocks": [(0, 1), [2, 3]]}),
        ((4, 2, 2), {"sampled": True, "blocks": ((0, 1), (2, 3))}),
        ((4, 2, 1), {}),
    ]),
    BoundCheck: (BoundCheckTwin, [
        (("b", 1, 2), {}),
        (("b", 1, 2, "<="), {}),
        (("b", 1, 2), {"relation": "=="}),
        ((), {"name": "c", "lhs": 2, "rhs": 2}),
    ]),
    MainResult: (MainResultTwin, [
        ((PATH, 1, 2, (BOUND,)), {}),
        ((PATH,), {"bounds": (BoundCheck("b", 1, 2),), "extra_edge_count": 2,
                   "copies_edge_count": 1}),
        ((PATH, 1, 2, ()), {}),
    ]),
    WsatResult: (WsatResultTwin, [
        ((3, K3, 10, "exact"), {}),
        ((3, K3, 10, "exact", None), {}),
        ((None, None, 5, "inconclusive", 2), {}),
        ((None, None, 5), {"excluded_up_to": 2, "status": "inconclusive"}),
    ]),
    RatioRow: (RatioRowTwin, [
        ((5, 3, 0.12, "exact"), {}),
        ((), {"method": "exact", "ratio": 0.12, "value": 3, "n": 5}),
        ((5, 3, 0.12, "upper"), {}),
    ]),
}

# class -> argument lists that each class and its twin must refuse alike
# (several faults in one call check the order of the checks)
INVALID = {
    Hypergraph: [(3, 0), (-1, 2), (-1, 0), (100, 50), (3, 2, [(0, 0)]), (3, 2, [(0, 5)]),
                 (3, 2, [(0, 1), (0, 1, 2)]), (3, 2, [(1, 0), (-1, 2)]),
                 (3, 2, [(0, 5), (1, 1)]), (3, 0, [(0, 5)])],
    Pattern: [(Hypergraph(3, 2),), (Hypergraph(0, 1),)],
    SaturationCertificate: [("other", 4, 2), ("Pattern", 4, 2, ())],
    CoverDesign: [(2, 3, 1), (4, 2, 0), (4, 2, 2, ((0, 0),)), (4, 2, 2, ((0, 5),)),
                  (4, 2, 2, ((0, 1, 2),)), (4, 2, 2, ((-1, 2),)),
                  (4, 2, 2, ((0, 5), (1, 1))), (2, 3, 1, ((0, 9),))],
}


def built(cls, calls):
    """Each call made on cls and on its twin, as (value, twin value) pairs."""
    twin = VALUES[cls][0]
    return [(cls(*args, **kwargs), twin(*args, **kwargs)) for args, kwargs in calls]


def twin_repr(twin_value, cls) -> str:
    """The twin's repr with its own class name swapped for cls's."""
    text = repr(twin_value)
    prefix = f"{cls.__name__}Twin("
    assert text.startswith(prefix)
    return f"{cls.__name__}(" + text[len(prefix):]


@pytest.mark.parametrize("cls", VALUES)
def test_fields_and_defaults_match_the_twin(cls):
    twin = VALUES[cls][0]
    assert cls._fields == tuple(f.name for f in fields(twin))
    params = inspect.signature(cls).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
    # a field the twin computes (init=False) is not a parameter
    defaults = {f.name: f.default_factory() if f.default_factory is not MISSING else f.default
                for f in fields(twin) if f.init}
    assert {p.name: p.default for p in params} == {
        name: inspect.Parameter.empty if default is MISSING else default
        for name, default in defaults.items()}


@pytest.mark.parametrize("cls", VALUES)
def test_equality_hash_and_repr_match_the_twin(cls):
    pairs = built(cls, VALUES[cls][1])
    for value, twin_value in pairs:
        assert {f: getattr(value, f) for f in cls._fields} == \
            {f: getattr(twin_value, f) for f in cls._fields}
        assert hash(value) == hash(twin_value)
        assert repr(value) == twin_repr(twin_value, cls)
        assert value != twin_value and not value == twin_value
        assert value.__eq__(twin_value) is twin_value.__eq__(value) is NotImplemented
        assert value != (*map(value.__getattribute__, cls._fields),)
        for other, twin_other in pairs:
            assert (value == other) == (twin_value == twin_other)
            assert (value != other) == (twin_value != twin_other)
    assert pairs[0][0] == pairs[1][0] and len({value for value, _ in pairs}) < len(pairs)


@pytest.mark.parametrize("cls", INVALID)
def test_validation_messages_match_the_twin(cls):
    twin = VALUES[cls][0]
    for args in INVALID[cls]:
        with pytest.raises(ValueError) as ours:
            cls(*args)
        with pytest.raises(ValueError) as theirs:
            twin(*args)
        assert type(ours.value) is type(theirs.value) and str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("cls", VALUES)
def test_assignment_and_deletion_fail_as_on_the_twin(cls):
    value, twin_value = built(cls, VALUES[cls][1][:1])[0]
    for name in (*cls._fields, "other"):
        for act in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            with pytest.raises(AttributeError) as ours:
                act(value)
            with pytest.raises(AttributeError) as theirs:
                act(twin_value)
            assert str(ours.value) == str(theirs.value)
    assert {f: getattr(value, f) for f in cls._fields} == \
        {f: getattr(twin_value, f) for f in cls._fields}


def test_derived_attributes_are_computed_once():
    g = Hypergraph(6, 2, [(0, 1), (1, 2), (4, 5)])
    assert g.sorted_edges is g.sorted_edges and "sorted_edges" in vars(g)
    big = complete_graph(12, 2)
    assert big.mask is big.mask and vars(big)["mask"] == (1 << 66) - 1
    result = closure(PATH, make_pattern(K3))
    assert result.closure is result.closure and "closure" in vars(result)
    # cached attributes are not fields: equality and hash ignore them
    same = Hypergraph(6, 2, [(4, 5), (0, 1), (1, 2)])
    assert g == same and hash(g) == hash(same)


def test_equal_pattern_hits_the_witness_index_cache():
    first = witness_index(5, make_pattern(complete_graph(3, 2)))
    hits = witness_index.cache_info().hits
    equal = Pattern(Hypergraph(3, 2, [(1, 2), (0, 2), (0, 1)]))
    assert witness_index(5, equal) is first
    assert witness_index.cache_info().hits == hits + 1
