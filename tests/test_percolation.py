import random
import sys
from itertools import chain, combinations, starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsat.percolation as percolation
from wsat.hypergraph import (
    FormatError,
    Hypergraph,
    canonical_edge,
    complete_graph,
    edge_universe,
    graph_of_mask,
)
from wsat.percolation import (
    CertificateCheck,
    ClosureResult,
    PatternStep,
    SaturationCertificate,
    TemplateStep,
    _blocks,
    _chunk_lines,
    _steps,
    certificate_from_text,
    certificate_to_text,
    clique_wsat_value,
    closure,
    creates_new_copy,
    is_weakly_saturated,
    read_certificate,
    replay_steps,
    verify_certificate,
    witness_index,
)
from wsat.templates import make_pattern, template_closure, template_minus

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
        PatternStep((1, 2), (0, 1, 3)),))
    check = verify_certificate(g, K3, bad)
    assert not check.ok and check.step == 0


def test_malformed_mapping_fails_not_raises():
    g = spanning_star(4)
    for mapping in [(0, 0, 1), (0, 1), (0, 1, 9)]:
        cert = SaturationCertificate("pattern", 4, 2, (
            PatternStep((1, 2), mapping),))
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


def closure_in_order(g, pattern, order):
    """closure with the missing ranks scanned in the given order, a
    permutation of the universe ranks, instead of colex order; each added
    edge is certified by the first witness the index finds in the graph
    built so far."""
    idx = witness_index(g.n, pattern)
    universe = edge_universe(g.n, g.r)
    mask, steps = g.mask, []
    while True:
        start = mask
        for rank in order:
            if not mask >> rank & 1:
                mapping = idx.first_witness(rank, mask)
                if mapping is not None:
                    steps.append(PatternStep(universe[rank], mapping))
                    mask |= 1 << rank
        if mask == start:
            return ClosureResult(g, SaturationCertificate("pattern", g.n, g.r,
                                                          tuple(steps)))


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
            assert closure_in_order(g, pat, order).closure == reference


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
            int(fields[1])
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
            steps.append(PatternStep(edge, m))
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
            steps.append(TemplateStep(edge, w, z))
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


def _streamed(text, g, pattern):
    """wsat verify's path: the text in 64 KiB chunks, read_certificate's
    blocks straight into replay_steps, then the rest of the text read."""
    chunks = [text[i:i + (1 << 16)] for i in range(0, len(text), 1 << 16)]
    kind, n, r, blocks = read_certificate(chunks)
    check, count = replay_steps(g, pattern, n, r, blocks)
    for _ in blocks:
        pass
    return check, count


def assert_same_as_seed(text, g=None, pattern=None):
    """The fast parser gives the seed parser's certificate or error; for a
    pattern certificate and a graph, the fast verifier gives its verdict,
    both on the parsed certificate and streamed from the text, where the
    count of steps replayed is the failing step's plus one."""
    parsed = _outcome(certificate_from_text, text)
    assert parsed == _outcome(seed_certificate_from_text, text), text
    if g is not None and parsed[0] != "ok":
        assert _outcome(_streamed, text, g, pattern) == parsed, text
    elif g is not None and parsed[1].kind == "pattern":
        check = assert_same_check(g, pattern, parsed[1])
        if check[0] == "ok":
            verdict = check[1]
            count = (len(parsed[1]) if verdict else
                     0 if verdict.step is None else verdict.step + 1)
            check = "ok", (verdict, count)
        assert _outcome(_streamed, text, g, pattern) == check, text
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

    def recording(engine):
        def run(g, pattern, *args):
            result = engine(g, pattern, *args)
            produced.append((g, pattern, result.certificate))
            return result
        return run

    module = sys.modules[__name__]
    for name in ("closure", "closure_in_order"):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
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
    # the derived fields against the certificate-free close
    closed = witness_index(g.n, pattern).close(g.mask)
    assert res.closure == graph_of_mask(g.n, g.r, closed)
    assert res.percolated == is_weakly_saturated(g, pattern)


# -- block replay: the bulk check and its per-step fallback ---------------------

def test_block_boundaries_match_seed_on_long_extremal_certificates(monkeypatch):
    """Every corruption at the last step of a block, the first step of the
    next and in a later block, parsed and streamed, for r = 2 and r = 3;
    the bulk check both accepts blocks and leaves some to the loop."""
    accepted = []
    real = percolation._accept_block

    def counting(*args):
        accepted.append(real(*args))
        return accepted[-1]

    monkeypatch.setattr(percolation, "_accept_block", counting)
    rng = random.Random(7)
    block = percolation.BLOCK
    for n, t, r in [(40, 4, 2), (41, 5, 2), (24, 5, 3)]:
        g, pattern, steps = _extremal(n, t, r, rng)
        assert len(steps) > 2 * block
        text = _cert_text(n, r, steps)
        assert assert_same_as_seed(text, g, pattern)[0] == "ok"
        for j in (block - 1, block, 2 * block + 5):
            for _, corrupt in _step_corruptions(g, steps, j):
                lines = text.splitlines()
                if isinstance(corrupt, str):
                    lines[j + 1] = corrupt
                else:
                    lines[j + 1] = _cert_text(n, r, [corrupt]).splitlines()[1]
                assert_same_as_seed("\n".join(lines) + "\n", g, pattern)
    assert True in accepted and False in accepted


def test_bulk_check_leaves_a_lone_failure_to_the_loop(monkeypatch):
    """Steps that fail one check whose failure no image shows: a pendant
    edge out of range, a mapping that sends two non-adjacent pattern
    vertices to one vertex, and a step with a third field; and a vertex
    the bulk check cannot compare, after a failing step.  The first three,
    written as text, are also read and replayed streamed."""
    g = Hypergraph(6, 2, [(0, 1), (0, 2), (1, 2)])
    good = [((0, 3), (0, 1, 2, 3)), ((0, 4), (0, 1, 2, 4))]
    later = [((0, 5), (0, 1, 2, 5))]
    for bad in [[((0, 6), (0, 1, 2, 6))], [((-1, 0), (0, 1, 2, -1))],
                [((3, 4), (0, 3, 4, 3))],
                [((0, 1), (0, 1, 2, 3)), ((None, 5), (0, 1, 2, 5))]]:
        steps = tuple(starmap(PatternStep, good + bad + later))
        cert = SaturationCertificate("pattern", 6, 2, steps)
        check = assert_same_check(g, TRI_PENDANT, cert)[1]
        assert not check and check.step == 2
        if len(bad) == 1:  # as a text too, whose lines after the first are scanned
            assert assert_same_as_seed(certificate_to_text(cert), g, TRI_PENDANT)[0] == "ok"
    loop = []
    for block in (percolation.BLOCK, 1):
        monkeypatch.setattr(percolation, "BLOCK", block)
        steps = good + [((3, 4), (0, 3, 4, 2), 0)] + later
        loop.append(_outcome(replay_steps, g, TRI_PENDANT, 6, 2, _blocks(steps)))
    assert loop[0] == loop[1] == ("value error", "too many values to unpack (expected 2)")


def test_mixed_blocks_match_seed_when_streamed():
    """A line out of written form, or a written line that replay rejects,
    at step line 1, 2, BLOCK, BLOCK + 1 and BLOCK + 2 of a written
    certificate: the first step line is a block of its own, so lines 2 and
    BLOCK + 2 begin a block of BLOCK lines and BLOCK + 1 ends one."""
    rng = random.Random(11)
    block = percolation.BLOCK
    for n, t, r in [(40, 4, 2), (24, 5, 3)]:
        g, pattern, steps = _extremal(n, t, r, rng)
        lines = _cert_text(n, r, steps).splitlines()
        for k in (1, 2, block, block + 1, block + 2):
            line = lines[k]
            edge, witness = line.split(" | 0 | ")
            rest = edge.split(" ", 1)[1]
            hosts = witness.split()
            hosts[1] = "1->" + hosts[0].split("->")[1]
            for changed in [["# a comment", line], ["", line], [f"  {line} "],
                            [f"0{line}"],  # a leading zero: 07 for 7
                            [f"{n} {rest} | 0 | {witness}"],
                            [f"{'9' * 5000} {rest} | 0 | {witness}"],  # int() refuses it
                            [f"{edge} | 0 | {' '.join(hosts)}"]]:  # not injective
                text = "\n".join(lines[:k] + changed + lines[k + 1:]) + "\n"
                assert_same_as_seed(text, g, pattern)
            crlf = "\n".join(lines[:k + 1]) + "\r\n" + "\n".join(lines[k + 1:]) + "\n"
            assert assert_same_as_seed(crlf, g, pattern)[0] == "ok"


def test_a_chunk_boundary_inside_a_step_line_matches_seed():
    g, pattern, steps = _extremal(70, 4, 2, random.Random(13))
    text = _cert_text(70, 2, steps)
    cut = 1 << 16
    assert len(text) > cut and "\n" not in text[cut - 1:cut + 1]
    assert assert_same_as_seed(text, g, pattern)[0] == "ok"
    j = text.count("\n", 0, cut) - 1  # the step the boundary splits
    for _, corrupt in _step_corruptions(g, steps, j):
        lines = text.splitlines()
        if isinstance(corrupt, str):
            lines[j + 1] = corrupt
        else:
            lines[j + 1] = _cert_text(70, 2, [corrupt]).splitlines()[1]
        assert_same_as_seed("\n".join(lines) + "\n", g, pattern)


def test_scanned_blocks_parse_no_tokens(monkeypatch):
    """A written certificate is scanned after its first step line: the
    per-token mapping parse runs once, and every later block is columns."""
    g, pattern, steps = _extremal(40, 4, 2, random.Random(3))
    assert len(steps) > 2 * percolation.BLOCK
    real, calls = percolation._parse_mapping, []

    def once(text, line_no):
        calls.append(line_no)
        if len(calls) > 1:
            raise AssertionError(f"line {line_no} parsed token by token")
        return real(text, line_no)

    monkeypatch.setattr(percolation, "_parse_mapping", once)
    kind, n, r, blocks = read_certificate((_cert_text(40, 2, steps),))
    blocks = [*blocks]
    assert [type(block) for block in blocks] == [list] + [tuple] * (len(blocks) - 1)
    flat = [*chain.from_iterable(_steps(block, r) for block in blocks)]
    assert flat == [(e, tuple(m)) for e, m in steps]
    assert replay_steps(g, pattern, n, r, blocks) == (CertificateCheck(True), len(steps))
    assert calls == [2]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_differential_tests_hold_for_small_blocks(monkeypatch, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(percolation, "BLOCK", block)
        test_fast_paths_match_seed_on_closure_test_certificates(monkeypatch)
        test_fast_paths_match_seed_on_mutated_certificates()


# patterns with and without pairs of vertices that share no edge: the bulk
# check compares the mapping columns of those pairs only
APART_PATTERNS = {
    "C4": Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "K1,3": Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)]),
    "triangle + 2 isolated": Hypergraph(5, 2, [(0, 1), (0, 2), (1, 2)]),
    "K4^3 - e": Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
    "loose 3-path": Hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)]),
}


def _inside_host(graph, a):
    """The complete r-graph on a + h vertices minus the r-sets of [0, a),
    the pattern, and steps adding those r-sets in colex order, each pinned
    by the first pattern edge, its other vertices sent to a, a + 1, ..."""
    pattern, h, r = make_pattern(graph), graph.n, graph.r
    g = Hypergraph(a + h, r, [e for e in edge_universe(a + h, r) if e[-1] >= a])
    first = pattern.graph.sorted_edges[0]
    rest = [v for v in range(h) if v not in first]

    def mapping(e):
        m = [0] * h
        for v, u in zip(first + tuple(rest), e + tuple(range(a, a + len(rest)))):
            m[v] = u
        return m

    return g, pattern, [(e, mapping(e)) for e in edge_universe(a, r)], mapping


def test_bulk_check_compares_apart_and_edge_columns_only():
    """A mapping that sends two pattern vertices to one host, for every pair
    that shares no pattern edge (no image shows it) and every pair that
    shares one; and a step edge with a repeated vertex that a pattern edge
    is mapped onto.  Each at step line 1, BLOCK and BLOCK + 1, parsed and
    streamed."""
    block = percolation.BLOCK
    for name, graph in APART_PATTERNS.items():
        r = graph.r
        g, pattern, steps, mapping = _inside_host(graph, 24 if r == 2 else 13)
        assert len(steps) > block + 1
        first = pattern.graph.sorted_edges[0]
        apart = [(u, v) for u, v in combinations(range(graph.n), 2)
                 if not any(u in pe and v in pe for pe in graph.edges)]
        assert apart or name == "K4^3 - e"  # all of its pairs share an edge
        for k in (0, block - 1, block):
            e = steps[k][0]
            bad = []
            for u, v in combinations(range(graph.n), 2):
                m = mapping(e)
                if v in first and u not in first:
                    u, v = v, u
                m[v] = m[u]
                bad.append(((e, m), "mapping is not injective"))
                if (min(u, v), max(u, v)) in apart:  # every image is present or e
                    images = {tuple(sorted(m[x] for x in pe)) for pe in graph.edges}
                    assert e in images and images - {e} <= g.edges
            twice = (e[0],) + e[:-1]
            bad.append(((twice, mapping(twice)), f"edge {twice} has a repeated vertex"))
            for step, reason in bad:
                text = _cert_text(g.n, r, steps[:k] + [step] + steps[k + 1:])
                cert = assert_same_as_seed(text, g, pattern)[1]
                assert verify_certificate(g, pattern, cert) == (
                    CertificateCheck(False, k, reason)), name
        cert = assert_same_as_seed(_cert_text(g.n, r, steps), g, pattern)[1]
        assert verify_certificate(g, pattern, cert), name


def test_replay_reads_ahead_within_a_block(monkeypatch):
    """The steps of a block are read before any is judged: an exception the
    steps raise after a failing step in the same block propagates."""
    g = spanning_star(4)

    def steps():
        yield (0, 1), (0, 1, 2)  # (0, 1) is present: the step fails
        raise RuntimeError("read past the failing step")

    with pytest.raises(RuntimeError, match="read past the failing step"):
        replay_steps(g, K3, 4, 2, _blocks(steps()))
    monkeypatch.setattr(percolation, "BLOCK", 1)
    assert replay_steps(g, K3, 4, 2, _blocks(steps())) == (
        CertificateCheck(False, 0, "edge (0, 1) already present"), 1)


def _cut(text, cuts):
    """text split at the given offsets (taken modulo len(text) + 1)."""
    points = sorted({c % (len(text) + 1) for c in cuts})
    return [text[a:b] for a, b in zip([0] + points, points + [len(text)])]


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="ab " + LINE_BREAKS + "\r\n"),
       st.lists(st.integers(min_value=0, max_value=64), max_size=12))
def test_chunked_lines_are_the_whole_texts_lines(text, cuts):
    assert [*chain.from_iterable(_chunk_lines(_cut(text, cuts)))] == text.splitlines()


def test_a_crlf_split_across_chunks_ends_one_line():
    for chunks in [["a\r", "\nb"], ["a\r", "", "\n", "b\r"], ["\r", "\n\r", "\n"]]:
        text = "".join(chunks)
        assert [*chain.from_iterable(_chunk_lines(chunks))] == text.splitlines()


def _read_all(chunks):
    kind, n, r, steps = read_certificate(chunks)
    return kind, n, r, [*steps]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(MUTATION_BASES).flatmap(lambda base: mutated_text(base[2])),
       st.sampled_from(["\n", "\r\n", "\r"]),
       st.lists(st.integers(min_value=0), max_size=12))
def test_certificate_read_in_chunks_matches_the_whole_text(text, newline, cuts):
    text = text.replace("\n", newline)
    assert _outcome(_read_all, _cut(text, cuts)) == _outcome(_read_all, (text,))


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
