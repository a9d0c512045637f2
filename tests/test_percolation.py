import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsat import (
    CertificateCheck,
    FormatError,
    Hypergraph,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    certificate_from_text,
    certificate_to_text,
    clique_wsat_value,
    closure,
    complete_graph,
    creates_new_copy,
    edge_universe,
    is_weakly_saturated,
    make_pattern,
    template_closure,
    template_minus,
    verify_certificate,
)
from wsat.hypergraph import canonical_edge

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
    assert sorted(w) == [0, 1, 2]
    assert (1, 2) in {tuple(sorted(w[v] for v in pe)) for pe in K3.graph.edges}

    g2 = Hypergraph(4, 2, [(0, 1)])
    assert creates_new_copy(g2, K3, (2, 3)) is None

    g3 = Hypergraph(5, 2, set(edge_universe(5, 2)) - {(0, 1)})
    w3 = creates_new_copy(g3, K5, (0, 1))
    assert w3 == (0, 1, 2, 3, 4)


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
            img = tuple(sorted(s.mapping[v] for v in pe))
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
        PatternStep((1, 2), 0, (0, 1, 3)),))
    check = verify_certificate(g, K3, bad)
    assert not check.ok and check.step == 0


def test_malformed_mapping_fails_not_raises():
    g = spanning_star(4)
    for mapping in [(0, 0, 1), (0, 1), (0, 1, 9)]:
        cert = SaturationCertificate("pattern", 4, 2, (
            PatternStep((1, 2), 0, mapping),))
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
            assert direct == step.mapping
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


# -- the seed parser and verifier, kept as oracles for the fast ones ---------

def _seed_parse_int_list(text: str, line_no: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise FormatError(line_no, f"expected integers, got {text!r}") from None


def seed_certificate_from_text(text: str) -> SaturationCertificate:
    kind = n = r = None
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if kind is None:
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
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != 3:
            raise FormatError(line_no, "step must be 'edge | phase_key | witness'")
        edge = _seed_parse_int_list(fields[0], line_no)
        try:
            phase = int(fields[1])
        except ValueError:
            raise FormatError(line_no, f"phase key {fields[1]!r} is not an integer") from None
        if kind == "pattern":
            mapping = {}
            for tok in fields[2].split():
                if "->" not in tok:
                    raise FormatError(line_no, f"bad mapping entry {tok!r}")
                a, _, b = tok.partition("->")
                try:
                    v, u = int(a), int(b)
                except ValueError:
                    raise FormatError(line_no, f"bad mapping entry {tok!r}") from None
                if v in mapping:
                    raise FormatError(line_no, f"pattern vertex {v} is mapped twice")
                mapping[v] = u
            if sorted(mapping) != list(range(len(mapping))):
                raise FormatError(line_no, "mapping must cover pattern vertices 0..h-1")
            m = tuple(mapping[v] for v in range(len(mapping)))
            steps.append(PatternStep(edge, phase, m))
        else:
            witness = fields[2]
            w_part, z_part = None, None
            for tok in witness.split():
                if tok.startswith("W={") and tok.endswith("}"):
                    w_part = tok[3:-1]
                elif tok.startswith("Z={") and tok.endswith("}"):
                    z_part = tok[3:-1]
            if w_part is None or z_part is None:
                raise FormatError(line_no, "template witness must be 'W={...} Z={...}'")
            w = _seed_parse_int_list(w_part, line_no)
            z = _seed_parse_int_list(z_part, line_no)
            steps.append(TemplateStep(edge, phase, w, z))
    if kind is None:
        raise FormatError(1, "missing certificate header")
    return SaturationCertificate(kind, n, r, tuple(steps))


def seed_verify_certificate(g: Hypergraph, pattern, cert: SaturationCertificate
                            ) -> CertificateCheck:
    if cert.kind != "pattern":
        raise ValueError(f"expected a pattern certificate, got kind={cert.kind!r}")
    if cert.n != g.n or cert.r != g.r:
        return CertificateCheck(False, None,
                                f"certificate is for n={cert.n} r={cert.r}, "
                                f"graph has n={g.n} r={g.r}")
    if pattern.r != g.r:
        raise ValueError(f"uniformity mismatch: pattern r={pattern.r}, graph r={g.r}")
    current = set(g.edges)
    pat_edges = pattern.graph.sorted_edges
    for i, step in enumerate(cert.steps):
        try:
            e = canonical_edge(step.edge, g.n, g.r)
        except ValueError as exc:
            return CertificateCheck(False, i, str(exc))
        if e in current:
            return CertificateCheck(False, i, f"edge {e} already present")
        m = step.mapping
        if len(m) != pattern.h:
            return CertificateCheck(False, i, "mapping has wrong length")
        if any(not 0 <= u < g.n for u in m):
            return CertificateCheck(False, i, "mapping target out of range")
        if len(set(m)) != len(m):
            return CertificateCheck(False, i, "mapping is not injective")
        covered = False
        for pe in pat_edges:
            img = tuple(sorted(m[v] for v in pe))
            if img == e:
                covered = True
            elif img not in current:
                return CertificateCheck(False, i, f"image edge {img} absent")
        if not covered:
            return CertificateCheck(False, i, "witness image does not cover the added edge")
        current.add(e)
    return CertificateCheck(True)


def _outcome(fn, *args):
    """A call's result, or its FormatError (line and message) or ValueError."""
    try:
        return "ok", fn(*args)
    except FormatError as exc:
        return "format error", exc.line_no, str(exc)
    except ValueError as exc:
        return "value error", str(exc)


def assert_same_as_seed(text, g=None, pattern=None):
    """The fast parser gives the seed parser's certificate or error; for a
    pattern certificate and a graph, the fast verifier gives its verdict."""
    parsed = _outcome(certificate_from_text, text)
    assert parsed == _outcome(seed_certificate_from_text, text), text
    if g is not None and parsed[0] == "ok" and parsed[1].kind == "pattern":
        assert_same_check(g, pattern, parsed[1])
    return parsed


def assert_same_check(g, pattern, cert):
    check = _outcome(verify_certificate, g, pattern, cert)
    assert check == _outcome(seed_verify_certificate, g, pattern, cert), cert
    return check


# the tests above whose closures produce certificates
CLOSURE_TESTS = [test_closure_examples, test_emitted_certificates_verify,
                 test_swapping_dependent_steps_fails, test_closure_order_independence,
                 test_closure_idempotent, test_closure_witnesses_match_direct_search,
                 test_certificate_text_roundtrip]


def test_fast_paths_match_seed_on_closure_test_certificates(monkeypatch):
    produced = []
    real_closure = closure

    def recording(g, pattern, *args, **kwargs):
        result = real_closure(g, pattern, *args, **kwargs)
        produced.append((g, pattern, result.certificate))
        return result

    monkeypatch.setattr(sys.modules[__name__], "closure", recording)
    for test in CLOSURE_TESTS:
        test()
    monkeypatch.undo()
    assert len(produced) >= 100
    for g, pattern, cert in produced:
        assert assert_same_check(g, pattern, cert) == ("ok", CertificateCheck(True))
        text = certificate_to_text(cert)
        assert assert_same_as_seed(text, g, pattern) == ("ok", cert)


def _extremal(n, t, r, rng):
    """A relabelled clique-extremal graph for K_t^(r) with a certificate in
    which every missing edge is witnessed by the core plus that edge, in a
    shuffled order; returns the graph, the pattern and the steps as
    (edge, mapping) pairs."""
    perm = rng.sample(range(n), n)
    core = sorted(perm[:t - r])
    g = Hypergraph(n, r, [e for e in edge_universe(n, r) if set(e) & set(core)])
    missing = [tuple(sorted(e)) for e in combinations(sorted(perm[t - r:]), r)]
    rng.shuffle(missing)
    return g, make_pattern(complete_graph(t, r)), [(e, core + list(e)) for e in missing]


def _cert_text(n, r, steps, header=None):
    lines = [header or f"CERT pattern {n} {r}"]
    for e, mapping in steps:
        witness = " ".join(f"{v}->{u}" for v, u in enumerate(mapping))
        lines.append(f"{' '.join(map(str, e))} | 0 | {witness}")
    return "\n".join(lines) + "\n"


def _step_corruptions(g, steps, j):
    """Ways to break step j, each hitting one check of the parser or the
    verifier; yields (name, steps) or (name, raw step line)."""
    e, mapping = steps[j]
    n = g.n
    later, earlier = steps[j + 1][1], steps[j - 1][1]
    yield "later witness", (e, later)          # an image edge is still absent
    yield "earlier witness", (e, earlier)      # embeds, but does not cover e
    outside = [v for v in range(n) if v not in mapping]
    yield "no core", (e, list(e) + outside[:len(mapping) - len(e)])  # many absent
    yield "present edge", (min(g.edges), mapping)
    yield "edge added earlier", (steps[j - 1][0], mapping)
    yield "short edge", (e[:-1], mapping)
    yield "long edge", (e + (n - 1,), mapping)
    yield "long edge, r distinct vertices", (e + e[-1:], mapping)
    yield "repeated vertex", ((e[0],) * len(e), mapping)
    yield "repeated out-of-range vertex", ((n,) * len(e), mapping)
    yield "vertex n", (e[:-1] + (n,), mapping)
    yield "negative vertex", ((-1,) + e[1:], mapping)
    yield "short mapping", (e, mapping[:-1])
    yield "long mapping", (e, mapping + [mapping[0]])
    yield "target n", (e, mapping[:-1] + [n])
    yield "negative target", (e, [-1] + mapping[1:])
    yield "target n, not injective", (e, [n, n] + mapping[2:])
    yield "not injective", (e, [mapping[1]] + mapping[1:])
    yield "unsorted edge", (e[::-1], mapping)
    # lines the writer never produces
    edge, witness = " ".join(map(str, e)), " ".join(f"{v}->{u}" for v, u in enumerate(mapping))
    shuffled = " ".join(f"{v}->{mapping[v]}" for v in reversed(range(len(mapping))))
    yield "keys out of order", f"{edge} | 0 | {shuffled}"
    yield "padded fields", f" {edge}  |  7 |   {witness} "
    yield "comma edge", f"{edge.replace(' ', ',')} | -3 | {witness}"
    yield "signed numbers", f"+{edge} | +0 | {witness.replace('->', '->+', 1)}"
    yield "no fields", f"{edge} {witness}"
    yield "four fields", f"{edge} | 0 | {witness} | 1"
    yield "edge not integers", f"{edge} x | 0 | {witness}"
    yield "phase not integer", f"{edge} | 0.5 | {witness}"
    yield "entry without arrow", f"{edge} | 0 | {witness} 9"
    yield "entry not integers", f"{edge} | 0 | {witness} 9->x"
    yield "vertex mapped twice", f"{edge} | 0 | {witness} 0->1"
    yield "keys skip a vertex", f"{edge} | 0 | {witness} {len(mapping) + 1}->0"
    yield "template witness", f"{edge} | 0 | W={{1,2}} Z={{1}}"


def test_fast_paths_match_seed_on_extremal_certificates():
    rng = random.Random(5)
    for text in ["", "\n# only a comment\n"]:
        assert assert_same_as_seed(text)[2] == "line 1: missing certificate header"
    for n, t, r in [(9, 4, 2), (10, 5, 2), (8, 4, 3), (8, 5, 3)]:
        g, pattern, steps = _extremal(n, t, r, rng)
        text = _cert_text(n, r, steps)
        assert assert_same_as_seed(text, g, pattern)[1].steps[0].edge == steps[0][0]
        assert verify_certificate(g, pattern, certificate_from_text(text))
        for header in [f"CERT pattern {n + 1} {r}", f"CERT pattern {n} {r + 1}",
                       f"CERT template {n} {r}", f"CERT pattern {n} {r} x",
                       f"CERT pattern {n} r", f"CERT pattern -1 {r}",
                       f"CERT pattern {n} 0", f"CERT other {n} {r}", "# only\n"]:
            assert_same_as_seed(_cert_text(n, r, steps, header), g, pattern)
        for j in (1, len(steps) // 2, len(steps) - 2):
            for _, corrupt in _step_corruptions(g, steps, j):
                lines = _cert_text(n, r, steps).splitlines()
                if isinstance(corrupt, str):
                    lines[j + 1] = corrupt
                else:
                    lines[j + 1] = _cert_text(n, r, [corrupt]).splitlines()[1]
                # comments and blank lines move the line numbers
                lines.insert(j // 2 + 1, "# comment")
                lines.insert(j // 2 + 1, "   ")
                assert_same_as_seed("\n".join(lines) + "\n", g, pattern)
    # a pattern of one single-vertex edge: its image getter has one index
    point = make_pattern(complete_graph(1, 1))
    g = Hypergraph(4, 1, [(0,)])
    for steps, reason in [([((1,), [1]), ((2,), [2])], None),
                          ([((1,), [2])], "image edge (2,) absent"),
                          ([((1,), [0])], "witness image does not cover the added edge")]:
        cert = assert_same_as_seed(_cert_text(4, 1, steps), g, point)[1]
        assert verify_certificate(g, point, cert).reason == reason


# characters the certificate grammar uses, for the mutation tests
MUTATION_ALPHABET = "0123456789 |->,{}=WZ#\n"


@st.composite
def mutated_text(draw, text):
    """text with a few characters inserted, deleted or swapped for others."""
    chars = list(text)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["insert", "delete", "swap"]))
        pos = draw(st.integers(min_value=0, max_value=len(chars)))
        if op == "insert":
            chars.insert(pos, draw(st.sampled_from(MUTATION_ALPHABET)))
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(st.sampled_from(MUTATION_ALPHABET))
    return "".join(chars)


def _mutation_bases():
    """(graph, pattern, certificate text) for small pattern and template
    certificates."""
    g = Hypergraph(6, 2, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)])
    yield g, K4, certificate_to_text(closure(g, K4).certificate)
    g3 = Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (0, 3, 4), (2, 3, 4)])
    yield g3, K43, certificate_to_text(closure(g3, K43).certificate)
    tm = template_minus(3, 5, 2)
    yield tm, None, certificate_to_text(template_closure(tm, 5, 2).certificate)


MUTATION_BASES = list(_mutation_bases())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(MUTATION_BASES).flatmap(
    lambda base: st.tuples(st.just(base), mutated_text(base[2]))))
def test_fast_paths_match_seed_on_mutated_certificates(case):
    (g, pattern, _), text = case
    assert_same_as_seed(text, g if pattern is not None else None, pattern)


@st.composite
def closure_case(draw):
    """A small graph, a supergraph of it, and one of K3, K4, K4^3."""
    pattern = draw(st.sampled_from([K3, K4, K43]))
    n = draw(st.integers(min_value=pattern.h, max_value=pattern.h + 2))
    universe = edge_universe(n, pattern.r)
    present = draw(st.lists(st.booleans(), min_size=len(universe),
                            max_size=len(universe)))
    more = draw(st.lists(st.booleans(), min_size=len(universe),
                         max_size=len(universe)))
    g = Hypergraph(n, pattern.r, [e for e, keep in zip(universe, present) if keep])
    bigger = g.with_edges([e for e, keep in zip(universe, more) if keep])
    return g, bigger, pattern


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closure_case())
def test_closure_is_extensive_idempotent_monotone_and_replays(case):
    g, bigger, pattern = case
    res = closure(g, pattern)
    assert g.edges <= res.closure.edges
    again = closure(res.closure, pattern)
    assert len(again.certificate) == 0 and again.closure == res.closure
    assert res.closure.edges <= closure(bigger, pattern).closure.edges
    assert verify_certificate(g, pattern, res.certificate)


# -- the replay's order-free edge keys ------------------------------------------

def _edge_key(n, r):
    from wsat.percolation import _VertexCodes
    code = _VertexCodes(n, r)
    return lambda e: sum(code[v] for v in e)


def _digits(key, base, count):
    out = []
    for _ in range(count):
        key, digit = divmod(key, base)
        out.append(digit)
    assert key == 0
    return out


def test_edge_keys_are_distinct_on_all_small_universes():
    for r in range(1, 5):
        for n in range(r, 13):
            key = _edge_key(n, r)
            keys = {key(e) for e in combinations(range(n), r)}
            assert len(keys) == len(edge_universe(n, r)), (n, r)


def test_edge_key_of_a_single_vertex_is_the_vertex():
    key = _edge_key(10 ** 7, 1)
    for v in [0, 1, 2, 12345, 10 ** 7 - 1]:
        assert key((v,)) == v


@pytest.mark.parametrize("r", [2, 3])
def test_edge_key_digits_are_power_sums_at_the_largest_universe(r):
    from math import comb

    from wsat.hypergraph import MAX_UNIVERSE
    n = r
    while comb(n + 1, r) <= MAX_UNIVERSE:
        n += 1
    base = r * n ** r + 1
    key = _edge_key(n, r)
    rng = random.Random(r)
    sets = list(combinations(range(n - r - 4, n), r))  # the top sets
    sets += [tuple(sorted(rng.sample(range(n), r))) for _ in range(300)]
    keys = {}
    for e in sets:
        k = key(e)
        assert _digits(k, base, r) == [sum(v ** j for v in e) for j in range(1, r + 1)]
        assert keys.setdefault(k, e) == e
