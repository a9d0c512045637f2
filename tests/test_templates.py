import random
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from wsat import (
    ConeSpec,
    Hypergraph,
    SaturationCertificate,
    TemplateStep,
    certificate_to_text,
    check_cone,
    complete_graph,
    creates_template_copy,
    edge_universe,
    is_weakly_saturated,
    make_pattern,
    sparseness,
    sparseness_witness,
    template,
    template_cert_to_pattern_cert,
    template_closure,
    template_minus,
    verify_certificate,
    verify_template_certificate,
)
from wsat.hypergraph import colex_key

K3 = make_pattern(complete_graph(3, 2))
TRI_PENDANT_GRAPH = Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)])


def test_sparseness_examples():
    assert sparseness(complete_graph(3, 2)) == 2
    assert sparseness(TRI_PENDANT_GRAPH) == 1
    for r in (2, 3, 4):
        assert sparseness(complete_graph(r, r)) == 1
    assert sparseness(complete_graph(4, 3)) == 3


def test_sparseness_of_cliques():
    for r in (2, 3):
        for t in range(r + 1, 7):
            assert sparseness(complete_graph(t, r)) == r


def test_sparseness_relabeling_invariant():
    rng = random.Random(3)
    for _ in range(10):
        n, r = rng.choice([(4, 2), (5, 2), (5, 3)])
        edges = [e for e in edge_universe(n, r) if rng.random() < 0.5]
        if not edges:
            continue
        g = Hypergraph(n, r, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Hypergraph(n, r, [tuple(sorted(perm[v] for v in e)) for e in edges])
        assert sparseness(g) == sparseness(relabeled)


def test_sparseness_witness_is_in_exactly_one_edge():
    s_set, edge = sparseness_witness(TRI_PENDANT_GRAPH)
    assert s_set == (3,)
    assert edge == (0, 3)
    with pytest.raises(ValueError):
        sparseness(Hypergraph(4, 2))


def test_template_counts():
    assert template_minus(2, 4, 2).edge_count == 5
    assert template_minus(3, 5, 2).edge_count == 7
    for h in range(3, 7):
        assert template_minus(2, h, 2).edge_count == comb(h, 2) - 1

    g, special = template(2, 4, 2)
    assert g == complete_graph(4, 2)
    assert special == (0, 1)
    assert template(3, 5, 2)[0].edge_count == 8
    assert template(3, 4, 2)[0].edge_count == 3


def test_template_count_formula_grid():
    for h in range(2, 9):
        for r in range(2, h + 1):
            for s in range(2, r + 1):
                g, _ = template(r, h, s)
                assert g.edge_count == comb(h, r) - comb(h - s, r - s) + 1


def test_template_param_validation():
    with pytest.raises(ValueError):
        template_minus(3, 2, 2)
    with pytest.raises(ValueError):
        template_minus(2, 4, 3)
    with pytest.raises(ValueError):
        template_minus(2, 4, 1)


def test_creates_template_copy_examples():
    g = Hypergraph(4, 2, set(edge_universe(4, 2)) - {(0, 1)})
    assert creates_template_copy(g, (0, 1), 4, 2) == ((0, 1, 2, 3), (0, 1))

    empty = Hypergraph(5, 2)
    assert creates_template_copy(empty, (0, 1), 4, 2) is None

    tm = template_minus(3, 5, 2)
    assert creates_template_copy(tm, (0, 1, 4), 5, 2) == ((0, 1, 2, 3, 4), (0, 1))

    with pytest.raises(ValueError):
        creates_template_copy(g, (0, 2), 4, 2)  # edge present


@pytest.mark.parametrize("r,h,s,s_prime", [(2, 4, 2, 2), (3, 5, 2, 3),
                                           (3, 6, 2, 2), (3, 6, 3, 3)])
def test_supergraphs_of_larger_core_templates_percolate(r, h, s, s_prime):
    base = template_minus(r, h, s_prime)
    assert template_closure(base, h, s).percolated
    rng = random.Random(5)
    extra = [e for e in edge_universe(h, r) if rng.random() < 0.3]
    assert template_closure(base.with_edges(extra), h, s).percolated


def test_template_closure_on_complete_graph():
    res = template_closure(complete_graph(5, 2), 4, 2)
    assert res.percolated and len(res.certificate) == 0


def test_cone_output_percolates_small():
    spec = ConeSpec(r=2, h=3, s=2, size_a=5, size_b=2)
    _, result, _ = check_cone(spec)
    assert result.percolated


def test_template_certificates_replay():
    g = template_minus(3, 5, 2)
    res = template_closure(g, 5, 2)
    assert res.percolated
    assert verify_template_certificate(g, res.certificate, 5, 2)
    # tampering: grow the core so a required sub-edge goes missing
    steps = list(res.certificate.steps)
    from wsat import SaturationCertificate, TemplateStep
    bad = TemplateStep(steps[0].edge, steps[0].phase_key,
                       steps[0].vertex_set, (2, 3))
    cert = SaturationCertificate("template", g.n, g.r, (bad,) + tuple(steps[1:]))
    check = verify_template_certificate(g, cert, 5, 2)
    assert not check.ok and check.step == 0


def test_conversion_rejects_sparseness_one():
    g = template_minus(2, 4, 2)
    cert = template_closure(g, 4, 2).certificate
    with pytest.raises(ValueError):
        template_cert_to_pattern_cert(cert, make_pattern(TRI_PENDANT_GRAPH))


def test_conversion_empty_certificate():
    res = template_closure(complete_graph(4, 2), 4, 2)
    K4 = make_pattern(complete_graph(4, 2))
    out = template_cert_to_pattern_cert(res.certificate, K4)
    assert out.kind == "pattern" and len(out) == 0


def test_conversion_pipeline_k4():
    # seed: a graph the template engine saturates at (h=4, s=2)
    g = template_minus(2, 4, 2)
    bigger = Hypergraph(6, 2, g.edges).with_edges(
        [(v, 4) for v in range(3)] + [(v, 5) for v in range(3)] + [(4, 5)])
    res = template_closure(bigger, 4, 2)
    assert res.percolated
    K4 = make_pattern(complete_graph(4, 2))
    converted = template_cert_to_pattern_cert(res.certificate, K4)
    assert verify_certificate(bigger, K4, converted)
    assert is_weakly_saturated(bigger, K4)


def test_conversion_with_randomized_completion():
    g = template_minus(3, 5, 2)
    base = Hypergraph(6, 3, g.edges)
    extra = [e for e in edge_universe(6, 3) if 5 in e and len(set(e) & {0, 1, 2}) == 2]
    host = base.with_edges(extra)
    res = template_closure(host, 5, 2)
    assert res.percolated
    # a pattern whose sparseness matches s=2: the (3,5,2) template graph,
    # whose core pair lies only in the special edge
    pat = make_pattern(template(3, 5, 2)[0])
    assert pat.s == 2
    for seed in range(5):
        converted = template_cert_to_pattern_cert(res.certificate, pat,
                                                  rng=random.Random(seed))
        assert verify_certificate(host, pat, converted)


def _random_pattern(rng):
    while True:
        n, r = rng.choice([(4, 2), (5, 2), (4, 3), (5, 3)])
        edges = [e for e in edge_universe(n, r) if rng.random() < 0.6]
        if not edges:
            continue
        g = Hypergraph(n, r, edges)
        # every vertex must appear in some edge for h to be meaningful
        if len({v for e in edges for v in e}) != n:
            continue
        pat = make_pattern(g)
        if pat.s >= 2:
            return pat


def test_template_saturation_implies_weak_saturation_sampled():
    rng = random.Random(23)
    percolating = 0
    for _ in range(40):
        pat = _random_pattern(rng)
        n = pat.h + rng.choice([0, 1])
        base = template_minus(pat.r, pat.h, pat.s)
        g = Hypergraph(n, pat.r, base.edges)
        extra = [e for e in edge_universe(n, pat.r) if rng.random() < 0.5]
        g = g.with_edges(extra)
        res = template_closure(g, pat.h, pat.s)
        if not res.percolated:
            continue
        percolating += 1
        converted = template_cert_to_pattern_cert(res.certificate, pat)
        assert verify_certificate(g, pat, converted)
        assert is_weakly_saturated(g, pat)
    assert percolating >= 20


# -- the set-based template search, kept as the oracle for the link-mask one --

def _find_template_copy(edges, n: int, r: int, e, h: int, s: int):
    """Core search used by creates_template_copy and template_closure.

    Cores Z ⊆ e are tried in colex order; W is grown from e by scanning
    vertices in increasing index with exact incremental pruning (the
    condition is closed under shrinking W), so the first pair in this order
    is returned and None only when no pair exists.
    """
    outside = [v for v in range(n) if v not in e]

    for core in sorted(combinations(e, s), key=colex_key):
        core_set = set(core)

        def compatible(current: list[int], v: int) -> bool:
            # new r-subsets are those through v; the ones containing Z are exempt
            for rest in combinations(current, r - 1):
                sub = tuple(sorted(rest + (v,)))
                if core_set.issubset(sub):
                    continue
                if sub not in edges:
                    return False
            return True

        def grow(current: list[int], start: int):
            if len(current) == h:
                return tuple(sorted(current))
            for idx in range(start, len(outside)):
                v = outside[idx]
                if compatible(current, v):
                    found = grow(current + [v], idx + 1)
                    if found is not None:
                        return found
            return None

        found = grow(list(e), 0)
        if found is not None:
            return found, core
    return None


def oracle_template_closure(g: Hypergraph, h: int, s: int, phase_fn=None):
    """The colex sweep to a fixed point over the set-based search."""
    universe = edge_universe(g.n, g.r)
    current = set(g.edges)
    steps = []
    while len(current) < len(universe):
        added = False
        for e in universe:
            if e in current:
                continue
            hit = _find_template_copy(current, g.n, g.r, e, h, s)
            if hit is not None:
                w, core = hit
                phase = phase_fn(e) if phase_fn is not None else 0
                steps.append(TemplateStep(e, phase, w, core))
                current.add(e)
                added = True
        if not added:
            break
    cert = SaturationCertificate("template", g.n, g.r, tuple(steps))
    return cert, frozenset(current), len(current) == len(universe)


def _differential_cases():
    rng = random.Random(20)
    for r in (2, 3, 4):
        for h in range(r, r + 4):
            for s in range(2, r + 1):
                for n in range(h, h + 5):
                    for _ in range(4 if comb(n, r) <= 120 else 2):
                        density = rng.choice([0.3, 0.6, 0.8, 0.9])
                        edges = [e for e in edge_universe(n, r)
                                 if rng.random() < density]
                        yield Hypergraph(n, r, edges), h, s


def test_template_closure_matches_set_based_search():
    cases = list(_differential_cases())
    assert len(cases) >= 400
    assert sum(1 for g, h, s in cases if h == g.r) >= 20
    percolated = 0
    for g, h, s in cases:
        res = template_closure(g, h, s, phase_fn=lambda e: sum(e) % 3)
        cert, closed, ok = oracle_template_closure(g, h, s,
                                                   phase_fn=lambda e: sum(e) % 3)
        assert certificate_to_text(res.certificate) == certificate_to_text(cert), \
            (g, h, s)
        assert res.closure.edges == closed
        assert res.percolated == ok
        percolated += ok
    assert 0 < percolated < len(cases)


def test_creates_template_copy_matches_set_based_search():
    tm = template_minus(3, 5, 2)
    rng = random.Random(4)
    graphs = [
        (Hypergraph(4, 2, set(edge_universe(4, 2)) - {(0, 1)}), 4, 2),
        (Hypergraph(5, 2), 4, 2),
        (tm, 5, 2),
        (tm, 5, 3),
        (tm, 3, 2),
        (Hypergraph(7, 3, [e for e in edge_universe(7, 3) if rng.random() < 0.7]),
         6, 3),
    ]
    for g, h, s in graphs:
        for e in edge_universe(g.n, g.r):
            if e not in g.edges:
                assert creates_template_copy(g, e, h, s) == \
                    _find_template_copy(g.edges, g.n, g.r, e, h, s), (g, e, h, s)


@st.composite
def template_case(draw):
    r = draw(st.integers(min_value=2, max_value=3))
    h = draw(st.integers(min_value=r, max_value=r + 2))
    s = draw(st.integers(min_value=2, max_value=r))
    n = draw(st.integers(min_value=h, max_value=h + 2))
    universe = edge_universe(n, r)
    present = draw(st.lists(st.booleans(), min_size=len(universe),
                            max_size=len(universe)))
    more = draw(st.lists(st.booleans(), min_size=len(universe),
                         max_size=len(universe)))
    g = Hypergraph(n, r, [e for e, keep in zip(universe, present) if keep])
    bigger = g.with_edges([e for e, keep in zip(universe, more) if keep])
    return g, bigger, h, s


@settings(max_examples=100, deadline=None, derandomize=True)
@given(template_case())
def test_template_closure_replays_is_idempotent_and_monotone(case):
    g, bigger, h, s = case
    res = template_closure(g, h, s)
    assert verify_template_certificate(g, res.certificate, h, s)
    assert g.edges <= res.closure.edges
    again = template_closure(res.closure, h, s)
    assert len(again.certificate) == 0
    assert again.closure == res.closure
    assert res.closure.edges <= template_closure(bigger, h, s).closure.edges
