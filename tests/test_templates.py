import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from wsat.constructions import cone_gadget, percolate_gadget, spartite_gadget
from wsat.hypergraph import (
    Hypergraph,
    canonical_edge,
    colex_key,
    complete_graph,
    edge_universe,
)
from wsat.percolation import (
    CertificateCheck,
    SaturationCertificate,
    TemplateStep,
    certificate_to_text,
    is_weakly_saturated,
    verify_certificate,
)
import wsat.templates as templates
from wsat.templates import (
    make_pattern,
    sparseness,
    sparseness_witness,
    template,
    template_cert_to_pattern_cert,
    template_closure,
    template_minus,
)

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


def template_copy(g: Hypergraph, e, h: int, s: int):
    """template_closure's search for a template copy with e as its special
    edge, run on g's link map: (W, Z), or None."""
    missing = [e for e in edge_universe(g.n, g.r) if e not in g.edges]
    link = templates._link_map(g.edges, missing, g.n, g.r)
    step = templates._template_step(link, g.n, g.r, h, s)
    found = step(e)
    return None if found is None else (found.vertex_set, found.core)


def oracle_link_map(edges, n: int) -> dict[int, int]:
    link = {}
    for e in edges:
        for x in e:
            rest = sum(1 << v for v in e if v != x)
            link[rest] = link.get(rest, 0) | 1 << x
    return link


@pytest.mark.parametrize("r", [2, 3, 4])
def test_link_map_sides_agree(r):
    """_link_map builds from the smaller side: the present edges of a sparse
    graph, the missing edges of a dense one.  Swapping the two arguments
    gives the complement graph's map from the other side, so every graph
    here checks both sides against the plain per-edge map.  Densities 0
    and 1 give a side with no edges, which leaves the map as it starts."""
    rng = random.Random(r)
    for n in (r, r + 1, r + 3, 9):
        universe = edge_universe(n, r)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            present = [e for e in universe if rng.random() < density]
            missing = [e for e in universe if e not in set(present)]
            for edges, absent in ((present, missing), (missing, present)):
                link = templates._link_map(edges, absent, n, r)
                assert {k: v for k, v in link.items() if v} == \
                    oracle_link_map(edges, n)


def test_template_copy_examples():
    g = Hypergraph(4, 2, set(edge_universe(4, 2)) - {(0, 1)})
    assert template_copy(g, (0, 1), 4, 2) == ((0, 1, 2, 3), (0, 1))

    empty = Hypergraph(5, 2)
    assert template_copy(empty, (0, 1), 4, 2) is None

    tm = template_minus(3, 5, 2)
    assert template_copy(tm, (0, 1, 4), 5, 2) == ((0, 1, 2, 3, 4), (0, 1))


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
    assert template_closure(cone_gadget(2, 3, 2, 5, 2), 3, 2).percolated


def test_template_certificates_replay():
    g = template_minus(3, 5, 2)
    res = template_closure(g, 5, 2)
    assert res.percolated
    assert verify_template_certificate(g, res.certificate, 5, 2)
    # tampering: grow the core so a required sub-edge goes missing
    steps = list(res.certificate.steps)
    bad = TemplateStep(steps[0].edge, steps[0].vertex_set, (2, 3))
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


def test_conversion_accepts_plain_template_steps():
    g = template_minus(2, 4, 2)
    res = template_closure(g, 4, 2)
    K4 = make_pattern(complete_graph(4, 2))
    steps = tuple(map(tuple, res.certificate.steps))
    plain = SaturationCertificate("template", g.n, g.r, steps)
    converted = template_cert_to_pattern_cert(plain, K4)
    assert converted == template_cert_to_pattern_cert(res.certificate, K4)
    assert verify_certificate(g, K4, converted)
    for step in (steps[0][:2], steps[0] + (0,)):
        cert = SaturationCertificate("template", g.n, g.r, steps + (step,))
        with pytest.raises(ValueError, match=f"^step {len(steps)} is not a template step$"):
            template_cert_to_pattern_cert(cert, K4)


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
    # the conversion pairs the three blocks of the sparseness witness
    # ascending; any other bijection within each block must verify too
    witness_set, witness_edge = sparseness_witness(pat.graph)
    blocks = [sorted(witness_set), sorted(set(witness_edge) - set(witness_set)),
              sorted(set(range(pat.h)) - set(witness_edge))]
    converted = template_cert_to_pattern_cert(res.certificate, pat)
    assert verify_certificate(host, pat, converted)
    for seed in range(5):
        rng = random.Random(seed)
        steps = []
        for step in converted.steps:
            mapping = list(step.mapping)
            for block in blocks:
                targets = [mapping[v] for v in block]
                rng.shuffle(targets)
                for v, u in zip(block, targets):
                    mapping[v] = u
            steps.append(step._replace(mapping=tuple(mapping)))
        assert steps != list(converted.steps)
        shuffled = SaturationCertificate("pattern", host.n, host.r, tuple(steps))
        assert verify_certificate(host, pat, shuffled)


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


# -- the direct template-certificate checker, kept as the oracle for the -----
# -- conversion plus replay_steps that wsat verify runs ----------------------

def verify_template_certificate(g: Hypergraph, cert: SaturationCertificate,
                                h: int, s: int) -> CertificateCheck:
    """Independent replay of a template certificate."""
    if cert.kind != "template":
        raise ValueError(f"expected a template certificate, got kind={cert.kind!r}")
    if cert.n != g.n or cert.r != g.r:
        return CertificateCheck(False, None,
                                f"certificate is for n={cert.n} r={cert.r}, "
                                f"graph has n={g.n} r={g.r}")
    r = g.r
    current = set(g.edges)
    for i, step in enumerate(cert.steps):
        try:
            e = canonical_edge(step.edge, g.n, g.r)
        except ValueError as exc:
            return CertificateCheck(False, i, str(exc))
        if e in current:
            return CertificateCheck(False, i, f"edge {e} already present")
        w = tuple(sorted(step.vertex_set))
        z = tuple(sorted(step.core))
        if len(w) != h or len(set(w)) != h:
            return CertificateCheck(False, i, f"W must be an h-set, got {w}")
        if len(z) != s or len(set(z)) != s:
            return CertificateCheck(False, i, f"Z must be an s-set, got {z}")
        if any(not 0 <= v < g.n for v in w):
            return CertificateCheck(False, i, "W out of range")
        if not set(z).issubset(e) or not set(e).issubset(w):
            return CertificateCheck(False, i, "need Z ⊆ edge ⊆ W")
        z_set = set(z)
        for sub in combinations(w, r):
            if z_set.issubset(sub):
                continue
            if sub not in current:
                return CertificateCheck(False, i, f"required edge {sub} absent")
        current.add(e)
    return CertificateCheck(True)


# -- the set-based template search, kept as the oracle for the link-mask one --

def _find_template_copy(edges, n: int, r: int, e, h: int, s: int):
    """The set-based search for a template copy (W, Z) with e as its
    special edge.

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


def oracle_template_closure(g: Hypergraph, h: int, s: int):
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
                steps.append(TemplateStep(e, w, core))
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
        res = template_closure(g, h, s)
        cert, closed, ok = oracle_template_closure(g, h, s)
        assert certificate_to_text(res.certificate) == certificate_to_text(cert), \
            (g, h, s)
        assert res.closure.edges == closed
        assert res.percolated == ok
        percolated += ok
    assert 0 < percolated < len(cases)


def test_template_copy_matches_set_based_search():
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
                assert template_copy(g, e, h, s) == \
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


def _replayed_against_template(g: Hypergraph, cert: SaturationCertificate,
                               h: int, s: int) -> bool:
    """The wsat verify verdict with T(r, h, s) as the pattern: conversion,
    whose ValueError rejects, then replay_steps."""
    pattern = make_pattern(template(g.r, h, s)[0])
    assert (pattern.h, pattern.s) == (h, s)
    assert sparseness_witness(pattern.graph) == (tuple(range(s)), tuple(range(g.r)))
    try:
        converted = template_cert_to_pattern_cert(cert, pattern)
    except ValueError:
        return False
    return verify_certificate(g, pattern, converted).ok


def _wz_mutations(step: TemplateStep, n: int, rng: random.Random):
    """Copies of step that differ only in W or Z: a vertex replaced (by a
    repeat, an outsider or one out of range), repeated, dropped or added."""
    w, z = list(step.vertex_set), list(step.core)

    def replaced(vs):
        vs = list(vs)
        vs[rng.randrange(len(vs))] = rng.randrange(-1, n + 1)
        return vs

    for new_w, new_z in [(replaced(w), z), (w, replaced(z)),
                         (replaced(w), replaced(z)), (w[:-1] + w[:1], z),
                         (w, z[:-1] + z[:1]), (w[1:], z), (w, z[1:]),
                         (w + [rng.randrange(n)], z), (w, z + [rng.randrange(n)])]:
        yield TemplateStep(step.edge, tuple(new_w), tuple(new_z))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(template_case())
def test_conversion_and_replay_match_the_direct_checker(case):
    g, _, h, s = case
    if h == g.r:
        return  # T(r, r, s) is one edge of sparseness 1: nothing converts
    cert = template_closure(g, h, s).certificate
    assert verify_template_certificate(g, cert, h, s)
    assert _replayed_against_template(g, cert, h, s)
    rng = random.Random(certificate_to_text(cert))
    steps = list(cert.steps)
    rejected = 0
    for i in rng.sample(range(len(steps)), min(3, len(steps))):
        for bad in _wz_mutations(steps[i], g.n, rng):
            mutant = SaturationCertificate("template", g.n, g.r,
                                           tuple(steps[:i] + [bad] + steps[i + 1:]))
            ok = verify_template_certificate(g, mutant, h, s).ok
            assert ok == _replayed_against_template(g, mutant, h, s), mutant
            rejected += not ok
    assert rejected >= min(3, len(steps)) * 4  # a repeat or a dropped vertex


# the template gadgets of perfbench's construct workload, with the sha256 of
# each one's template certificate as certificate_to_text writes it.  wsat
# generate prints only the verdict, so no output digest covers these steps.
# The parameters are the gadget's, in order: percolate (r, h, s, clusters,
# cluster_size), cone (r, h, s, size_a, size_b), spartite (r, h, part_sizes).
GADGET_CERTIFICATES = [
    ("percolate", (3, 4, 2, 5, 5), 2058,
     "3088ac1753466232cfac5e472662d58af7cd83fa37116d2d56a5808f7c7aa30e"),
    ("percolate", (3, 4, 2, 6, 5), 3760,
     "a2e8ddb3b3571f3af875b44439f6d3302adfd32ea38e33068faaf500e848ffa5"),
    ("percolate", (3, 4, 3, 6, 5), 1380,
     "aec45295be0c348100a7f91b9d2aca720bca8f5c26a00b8648e812b692eec2f1"),
    ("percolate", (2, 3, 2, 6, 5), 330,
     "ae8561dfdac337d69d9bc77a306fc9b5014a30dc1e709c3d95ed47d2cb5489da"),
    ("cone", (3, 5, 2, 18, 14), 4004,
     "a671a072386bbdb05fda7080e337de10d371156455985209c3864b95b884f258"),
    ("cone", (3, 6, 2, 20, 15), 5180,
     "fcfec324e3b7b6c2b239982981d335d5f57c2451a6387319e0ce8a32f676cdb2"),
    ("cone", (4, 5, 2, 12, 8), 4270,
     "aa45593c8a101bc9d6e61229490bdd9ed62edea288e12fe258fd6ca107ef6f59"),
    ("cone", (3, 4, 3, 16, 12), 1804,
     "8f2611aef6f407a9bd83a45872501cf2a50420453a8ba92aa0599662ff2e1882"),
    ("spartite", (3, 4, (14, 14)), 2500,
     "01f48b537d388570313416c667dd9d08f8e154a972129c2bbdd2bd365c65d56c"),
    ("spartite", (4, 5, (9, 9)), 2608,
     "f2649974c37d44521ce26ee72190963a50fd4cf739a636f860f121fd29b28b76"),
    ("spartite", (4, 5, (8, 8)), 1480,
     "47a8589f569593ab3c6e3347046f7ffbbff5d5f78b101109a3d367eb11b8ed3f"),
    ("spartite", (3, 5, (12, 12, 12)), 1078,
     "05735172592dc17f36d2adc8c081a368546052d81428fc207e55a4b5fe7f7deb"),
]


def _gadget_id(kind, params) -> str:
    return "-".join([kind] + [str(v).replace(", ", ",") for v in params])


@pytest.mark.parametrize("kind, params, steps, digest", GADGET_CERTIFICATES,
                         ids=[_gadget_id(kind, params)
                              for kind, params, _, _ in GADGET_CERTIFICATES])
def test_gadget_certificates_are_pinned(kind, params, steps, digest):
    if kind == "percolate":
        e1, e2 = percolate_gadget(*params)
        g = Hypergraph(params[3] * params[4], params[0], e1 | e2)
    elif kind == "cone":
        g = cone_gadget(*params)
    else:
        g = spartite_gadget(*params)
    s = len(params[2]) if kind == "spartite" else params[2]
    res = template_closure(g, params[1], s)
    assert res.percolated and len(res.certificate) == steps
    text = certificate_to_text(res.certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
