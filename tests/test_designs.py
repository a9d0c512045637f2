import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import wsat.designs as designs
from wsat.designs import (
    CoverDesign,
    cover_from_text,
    cover_to_text,
    greedy_cover,
    rodl_bound,
    verify_cover,
)
from wsat.hypergraph import FormatError, colex_key, edge_universe


def oracle_greedy_cover(N: int, k: int, t: int, seed: int = 0) -> CoverDesign:
    """Full-rescan greedy: every candidate rescored every round."""
    uncovered = set(combinations(range(N), t))
    # the t-sets in colex order, and the position of the first one that may
    # be uncovered: covered sets only grow, so it only moves forward
    in_order = sorted(uncovered, key=colex_key)
    first = 0
    blocks = []
    exhaustive = comb(N, k) <= designs.EXHAUSTIVE_CANDIDATE_LIMIT
    rng = random.Random(seed)

    def candidates():
        nonlocal first
        if exhaustive:
            yield from combinations(range(N), k)
            return
        # sampled variant: seeded draws, plus one block extending the
        # colex-least uncovered t-set so every round is guaranteed to make
        # progress
        while in_order[first] not in uncovered:
            first += 1
        base = in_order[first]
        rest = [v for v in range(N) if v not in base]
        yield tuple(sorted(base + tuple(rest[: k - t])))
        population = list(range(N))
        for _ in range(designs.SAMPLE_CANDIDATES_PER_ROUND):
            yield tuple(sorted(rng.sample(population, k)))

    while uncovered:
        best_block = None
        best_score = -1
        best_key = None
        for block in candidates():
            score = sum(1 for sub in combinations(block, t) if sub in uncovered)
            key = colex_key(block)
            if score > best_score or (score == best_score and key < best_key):
                best_block, best_score, best_key = block, score, key
        blocks.append(best_block)
        for sub in combinations(best_block, t):
            uncovered.discard(sub)
    return CoverDesign(N, k, t, tuple(blocks), sampled=not exhaustive)


def test_k_equals_t_degenerates_to_all_subsets():
    design = greedy_cover(5, 2, 2)
    assert len(design.blocks) == comb(5, 2)
    assert verify_cover(design)
    design1 = greedy_cover(4, 1, 1)
    assert design1.blocks == ((0,), (1,), (2,), (3,))


def test_k_equals_t_cover_leaves_no_cached_universe():
    edge_universe.cache_clear()
    design = greedy_cover(30, 3, 3)
    assert edge_universe.cache_info().currsize == 0
    assert design.blocks == tuple(sorted(combinations(range(30), 3),
                                         key=colex_key))


def test_greedy_632_regression():
    design = greedy_cover(6, 3, 2)
    assert verify_cover(design)
    assert len(design.blocks) <= 7
    # deterministic greedy output, pinned
    assert design.blocks == ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5),
                             (0, 2, 3), (0, 1, 4), (0, 1, 5))


def test_greedy_732_valid():
    design = greedy_cover(7, 3, 2)
    assert verify_cover(design)


def test_verify_cover_catches_missing():
    design = greedy_cover(7, 3, 2)
    # find a block that uniquely covers some pair
    coverage = {}
    for b in design.blocks:
        for sub in combinations(b, 2):
            coverage.setdefault(sub, []).append(b)
    unique_block = next(bs[0] for bs in coverage.values() if len(bs) == 1)
    pruned = CoverDesign(7, 3, 2, tuple(b for b in design.blocks if b != unique_block))
    assert not verify_cover(pruned)
    # whereas all k-subsets always cover
    every = CoverDesign(6, 3, 2, tuple(combinations(range(6), 3)))
    assert verify_cover(every)


def oracle_verify_cover(design: CoverDesign) -> bool:
    """Every t-subset of [N] looked up in every block."""
    block_sets = [set(b) for b in design.blocks]
    return all(any(set(sub) <= b for b in block_sets)
               for sub in combinations(range(design.N), design.t))


def test_verify_cover_matches_subset_scan():
    rng = random.Random(7)
    every = tuple(combinations(range(4), 2))
    # a repeated block counts its t-subsets once: 6 blocks, 5 pairs
    assert not verify_cover(CoverDesign(4, 2, 2, every[1:] + every[1:2]))
    for _ in range(300):
        n_pts = rng.randint(1, 8)
        k = rng.randint(1, n_pts)
        t = rng.randint(1, k)
        blocks = [rng.sample(range(n_pts), k) for _ in range(rng.randint(0, 12))]
        design = CoverDesign(n_pts, k, t, tuple(blocks))
        assert verify_cover(design) == oracle_verify_cover(design), design


def test_rodl_bound_values():
    assert rodl_bound(6, 3, 2) == 5
    assert rodl_bound(9, 3, 2) == 12
    for n, t in [(6, 2), (7, 3)]:
        assert rodl_bound(n, t, t) == comb(n, t)
    assert rodl_bound(9, 6, 2) == Fraction(12, 5)
    assert type(rodl_bound(9, 6, 2)) is Fraction


def test_integer_ratio_matches_the_rational_one():
    """generate cover's #RATIO, blocks * C(k, t) / C(N, t) in integers, is
    the float of blocks / rodl_bound: both round the same rational once."""
    for N in [*range(1, 41), *range(41, 401, 7), 400]:
        for t in range(1, min(N, 6) + 1):
            for k in {*range(t, N + 1, max(1, N // 40)), N}:
                target = comb(N, t) // comb(k, t) + (comb(N, t) % comb(k, t) > 0)
                for blocks in (1, target, comb(N, t)):
                    assert blocks * comb(k, t) / comb(N, t) == \
                        float(blocks / rodl_bound(N, k, t)), (N, k, t, blocks)


def test_block_count_never_exceeds_tsets():
    for n_pts in range(2, 9):
        for k in range(1, min(4, n_pts) + 1):
            for t in range(1, k + 1):
                design = greedy_cover(n_pts, k, t)
                assert len(design.blocks) <= comb(n_pts, t)
                assert verify_cover(design)


def test_determinism():
    a = greedy_cover(8, 3, 2)
    b = greedy_cover(8, 3, 2)
    assert a.blocks == b.blocks


def test_sampled_variant(monkeypatch):
    import wsat.designs as designs
    monkeypatch.setattr(designs, "EXHAUSTIVE_CANDIDATE_LIMIT", 10)
    monkeypatch.setattr(designs, "SAMPLE_CANDIDATES_PER_ROUND", 200)
    d1 = designs.greedy_cover(10, 4, 2, seed=0)
    d2 = designs.greedy_cover(10, 4, 2, seed=0)
    assert d1.sampled
    assert verify_cover(d1)
    assert d1.blocks == d2.blocks
    d3 = designs.greedy_cover(10, 4, 2, seed=1)
    assert verify_cover(d3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        greedy_cover(3, 4, 2)
    with pytest.raises(ValueError):
        greedy_cover(5, 2, 3)
    with pytest.raises(ValueError):
        greedy_cover(5, 2, 0)
    with pytest.raises(ValueError):
        CoverDesign(5, 3, 2, ((0, 1),))
    with pytest.raises(ValueError):
        CoverDesign(5, 3, 2, ((0, 1, 9),))


def test_cover_text_roundtrip():
    design = greedy_cover(6, 3, 2)
    text = cover_to_text(design)
    back = cover_from_text(text)
    assert back.blocks == design.blocks
    assert cover_to_text(back) == text
    with pytest.raises(FormatError):
        cover_from_text("6 3\n")
    with pytest.raises(FormatError):
        cover_from_text("")


@pytest.mark.parametrize("bad_line,message", [
    ("0 5", "line 3: block (0, 5) out of range for N=4"),
    ("2 2", "line 3: block (2, 2) is not a 2-subset"),
    ("0 1 2", "line 3: block (0, 1, 2) is not a 2-subset"),
])
def test_cover_text_error_names_the_block_line(bad_line, message):
    with pytest.raises(FormatError, match=rf"^{re.escape(message)}$"):
        cover_from_text(f"4 2 1\n0 1\n{bad_line}\n2 3\n")
    # a bad block after a blank line and a good block is on line 4
    with pytest.raises(FormatError, match=r"^line 4: "):
        cover_from_text(f"4 2 1\n\n0 1\n{bad_line}\n")


def test_cover_text_header_errors_name_the_header_line():
    with pytest.raises(FormatError, match=r"^line 2: need N >= k >= t >= 1"):
        cover_from_text("\n3 4 1\n0 1 2\n")


def test_lazy_greedy_matches_full_rescan():
    for n_pts in range(1, 13):
        for k in range(1, n_pts + 1):
            for t in range(1, k + 1):
                design = greedy_cover(n_pts, k, t)
                assert not design.sampled
                assert design.blocks == oracle_greedy_cover(n_pts, k, t).blocks, \
                    (n_pts, k, t)


def test_sampled_path_matches_full_rescan(monkeypatch):
    monkeypatch.setattr(designs, "EXHAUSTIVE_CANDIDATE_LIMIT", 10)
    monkeypatch.setattr(designs, "SAMPLE_CANDIDATES_PER_ROUND", 200)
    # N > 21 with k <= 5 draws through Random.sample's set branch, the rest
    # through its pool branch
    for n_pts, k, t in [(10, 4, 2), (9, 3, 2), (11, 5, 3), (12, 4, 1), (8, 4, 4),
                        (24, 3, 2), (23, 4, 1)]:
        for seed in range(4):
            design = designs.greedy_cover(n_pts, k, t, seed=seed)
            assert design.sampled
            assert design.blocks == oracle_greedy_cover(n_pts, k, t, seed).blocks, \
                (n_pts, k, t, seed)


# (N, k) around Random.sample's switch from its pool branch (N <= 21, or
# N <= 21 + 4 ** ceil(log4(3k)) when k > 5) to its set branch, the edge
# cases k = 1, k = N and N = 1, and the sampled covers that the CLI tests
# and perfbench's construct workload run
SAMPLER_SHAPES = [(21, 5), (22, 5), (85, 6), (86, 6), (300, 30), (22, 8), (40, 10),
                  (30, 5), (1, 1), (7, 1), (30, 1), (9, 9), (12, 12)]


@pytest.mark.parametrize("n_pts, k, t", [(n_pts, k, t) for n_pts, k in SAMPLER_SHAPES
                                         for t in (1, 2) if t <= k])
def test_draws_match_random_sample(monkeypatch, n_pts, k, t):
    """The sampled path draws what Random(seed).sample(range(N), k) draws:
    its covers equal the oracle's, which calls Random.sample, and both
    generators end in the same state.  A k = t cover draws nothing."""
    monkeypatch.setattr(designs, "EXHAUSTIVE_CANDIDATE_LIMIT", 0)
    monkeypatch.setattr(designs, "SAMPLE_CANDIDATES_PER_ROUND", 20)
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    # the oracle rescans every uncovered t-set each round: 472 rounds of up
    # to C(300, 2) pairs at (300, 30, 2)
    for seed in (0, 1, 12345)[: 1 if comb(n_pts, t) > 10_000 else 3]:
        made.clear()
        design = designs.greedy_cover(n_pts, k, t, seed)
        oracle = oracle_greedy_cover(n_pts, k, t, seed)
        assert design.sampled and oracle.sampled
        assert design.blocks == oracle.blocks, seed
        if k == t:
            assert len(made) == 1  # the oracle's generator alone
        else:
            # equal states: both consumed the same getrandbits output
            engine, slow = made
            assert engine.getstate() == slow.getstate(), seed
            assert len(design.blocks) >= 2 or k == n_pts
