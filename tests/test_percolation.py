import random

import pytest

from wsat import (
    Hypergraph,
    PatternStep,
    SaturationCertificate,
    Witness,
    certificate_from_text,
    certificate_to_text,
    clique_wsat_value,
    closure,
    complete_graph,
    creates_new_copy,
    edge_universe,
    is_weakly_saturated,
    make_pattern,
    verify_certificate,
)

K3 = make_pattern(complete_graph(3, 2))
K4 = make_pattern(complete_graph(4, 2))
K5 = make_pattern(complete_graph(5, 2))
K43 = make_pattern(complete_graph(4, 3))
TRI_PENDANT = make_pattern(Hypergraph(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)]))
SINGLE_3EDGE = make_pattern(complete_graph(3, 3))


def spanning_star(n):
    return Hypergraph(n, 2, [(0, v) for v in range(1, n)])


def test_creates_new_copy_examples():
    g = Hypergraph(3, 2, [(0, 1), (0, 2)])
    w = creates_new_copy(g, K3, (1, 2))
    assert w is not None
    assert sorted(w.mapping) == [0, 1, 2]
    assert w.covered_edge == (1, 2)

    g2 = Hypergraph(4, 2, [(0, 1)])
    assert creates_new_copy(g2, K3, (2, 3)) is None

    g3 = Hypergraph(5, 2, set(edge_universe(5, 2)) - {(0, 1)})
    w3 = creates_new_copy(g3, K5, (0, 1))
    assert w3.mapping == (0, 1, 2, 3, 4)


def test_creates_new_copy_rejects_present_edge():
    g = Hypergraph(3, 2, [(0, 1)])
    with pytest.raises(ValueError):
        creates_new_copy(g, K3, (0, 1))
    with pytest.raises(ValueError):
        creates_new_copy(g, K43, (0, 2))  # uniformity mismatch


def test_closure_examples():
    res = closure(spanning_star(4), K3)
    assert res.percolated and len(res.certificate) == 3

    res2 = closure(complete_graph(5, 2), K3)
    assert res2.percolated and len(res2.certificate) == 0

    res3 = closure(Hypergraph(4, 2, [(0, 1)]), K3)
    assert not res3.percolated
    assert res3.closure == Hypergraph(4, 2, [(0, 1)])


def test_is_weakly_saturated_examples():
    # several spanning trees on 6 vertices
    path = Hypergraph(6, 2, [(v, v + 1) for v in range(5)])
    assert is_weakly_saturated(path, K3)
    assert is_weakly_saturated(spanning_star(6), K3)
    assert is_weakly_saturated(Hypergraph(6, 2, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), K3)
    # nothing missing: vacuously saturated
    assert is_weakly_saturated(complete_graph(4, 2), K4)
    assert not is_weakly_saturated(Hypergraph(5, 2), K3)


def test_emitted_certificates_verify():
    for g, pat in [(spanning_star(4), K3),
                   (spanning_star(6), K3),
                   (Hypergraph(5, 2, [(0, 1)]), K3),
                   (Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]), K43)]:
        res = closure(g, pat)
        assert verify_certificate(g, pat, res.certificate)


def test_swapping_dependent_steps_fails():
    # path on 4 vertices: one closure step consumes an edge added earlier
    g = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    res = closure(g, K3)
    assert res.percolated
    steps = list(res.certificate.steps)
    added_at = {s.edge: i for i, s in enumerate(steps)}
    pat_edges = K3.graph.sorted_edges
    dependent = None
    for i, s in enumerate(steps):
        for pe in pat_edges:
            img = tuple(sorted(s.witness.mapping[v] for v in pe))
            if img != s.edge and img in added_at and added_at[img] < i:
                dependent = (added_at[img], i)
                break
        if dependent:
            break
    assert dependent is not None, "expected at least one dependent step"
    a, b = dependent
    swapped = list(steps)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    cert = SaturationCertificate("pattern", g.n, g.r, tuple(swapped))
    check = verify_certificate(g, K3, cert)
    assert not check.ok
    assert check.step == a


def test_witness_missing_added_edge_fails():
    g = spanning_star(4)
    # mapping that does not cover the added edge (1, 2)
    bad = SaturationCertificate("pattern", 4, 2, (
        PatternStep((1, 2), 0, Witness((0, 1, 3), (1, 2))),))
    check = verify_certificate(g, K3, bad)
    assert not check.ok and check.step == 0


def test_malformed_mapping_fails_not_raises():
    g = spanning_star(4)
    for mapping in [(0, 0, 1), (0, 1), (0, 1, 9)]:
        cert = SaturationCertificate("pattern", 4, 2, (
            PatternStep((1, 2), 0, Witness(mapping, (1, 2))),))
        check = verify_certificate(g, K3, cert)
        assert not check.ok and check.step == 0


def test_verify_rejects_template_kind():
    cert = SaturationCertificate("template", 4, 2, ())
    with pytest.raises(ValueError):
        verify_certificate(spanning_star(4), K3, cert)


def test_clique_wsat_value():
    assert clique_wsat_value(5, 3, 2) == 4
    assert clique_wsat_value(4, 4, 2) == 5
    assert clique_wsat_value(5, 4, 3) == 6
    with pytest.raises(ValueError):
        clique_wsat_value(3, 4, 2)
    with pytest.raises(ValueError):
        clique_wsat_value(4, 2, 3)


def _random_graph(rng, n, r, p):
    return Hypergraph(n, r, [e for e in edge_universe(n, r) if rng.random() < p])


def test_closure_order_independence():
    rng = random.Random(11)
    for _ in range(12):
        n, r, pat = rng.choice([(5, 2, K3), (6, 2, K3), (5, 2, K4), (5, 3, K43)])
        g = _random_graph(rng, n, r, rng.choice([0.3, 0.5, 0.7]))
        reference = closure(g, pat).closure
        universe = len(edge_universe(n, r))
        for _ in range(5):
            order = list(range(universe))
            rng.shuffle(order)
            assert closure(g, pat, candidate_order=order).closure == reference


def test_monotonicity_under_edge_addition():
    rng = random.Random(13)
    found = 0
    for _ in range(40):
        n = rng.choice([5, 6])
        g = spanning_star(n) if rng.random() < 0.5 else \
            Hypergraph(n, 2, [(v, v + 1) for v in range(n - 1)])
        if not is_weakly_saturated(g, K3):
            continue
        extra = [e for e in edge_universe(n, 2) if rng.random() < 0.3]
        assert is_weakly_saturated(g.with_edges(extra), K3)
        found += 1
    assert found >= 20


def test_closure_idempotent():
    rng = random.Random(17)
    for _ in range(15):
        n, r, pat = rng.choice([(5, 2, K3), (5, 2, K4), (5, 3, K43)])
        g = _random_graph(rng, n, r, 0.5)
        closed = closure(g, pat).closure
        again = closure(closed, pat)
        assert again.closure == closed
        assert len(again.certificate) == 0


def test_sparseness_one_patterns_percolate_from_seed_clique():
    rng = random.Random(19)
    for pat, n in [(TRI_PENDANT, 6), (SINGLE_3EDGE, 6)]:
        seed = complete_graph(pat.h, pat.r)
        g = Hypergraph(n, pat.r, seed.edges)
        for _ in range(5):
            extra = [e for e in edge_universe(n, pat.r) if rng.random() < 0.2]
            assert is_weakly_saturated(g.with_edges(extra), pat)


def test_closure_witnesses_match_direct_search():
    # replaying the closure, each step's witness must be exactly what the
    # direct pinned-edge search returns on the intermediate graph
    rng = random.Random(29)
    for _ in range(8):
        n, r, pat = rng.choice([(5, 2, K3), (5, 2, K4), (5, 3, K43)])
        g = _random_graph(rng, n, r, 0.45)
        res = closure(g, pat)
        current = g
        for step in res.certificate.steps:
            direct = creates_new_copy(current, pat, step.edge)
            assert direct == step.witness
            current = current.with_edges([step.edge])


def test_certificate_text_roundtrip():
    g = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    cert = closure(g, K3).certificate
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert back == cert
    assert certificate_to_text(back) == text


def test_certificate_text_errors():
    from wsat import FormatError
    for text, line_no in [
        ("not a cert\n", 1),
        ("CERT pattern 4 2\n0 1 | x | 0->0\n", 2),
        ("CERT pattern 4 2\n0 1 | 0\n", 2),
        ("CERT pattern 4 2\n0 1 | 0 | 0->0 1->1 2->2\n"
         "1 2 | 0 | 0->0 0->1 1->2\n", 3),  # pattern vertex 0 mapped twice
        ("# comment\nCERT pattern -5 2\n", 2),
        ("CERT pattern 4 0\n", 1),
        ("CERT template 4 -1\n", 1),
    ]:
        with pytest.raises(FormatError) as exc:
            certificate_from_text(text)
        assert exc.value.line_no == line_no, text
    assert certificate_from_text("CERT pattern 0 1\n").n == 0
