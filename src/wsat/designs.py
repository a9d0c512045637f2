"""Greedy covering designs: families of k-blocks covering every t-subset of [N].

The greedy rule picks, each round, the block covering the most uncovered
t-subsets (ties broken toward the colex-least block), which is enough for the
composite construction; the asymptotically optimal block count is only
reported against, never promised.  When the candidate space C(N, k) is too
large to enumerate per round, a seeded random sample of candidates is scored
instead and the design is flagged as sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .hypergraph import FormatError, colex_key

# Enumerate all C(N, k) candidate blocks per round up to this count.
EXHAUSTIVE_CANDIDATE_LIMIT = 100_000
SAMPLE_CANDIDATES_PER_ROUND = 10_000


@dataclass(frozen=True)
class CoverDesign:
    """Blocks of size k over [N] covering every t-subset at least once.

    delta is the reporting slack used when comparing the block count against
    the (1 + delta) * C(N, t) / C(k, t) target; sampled records whether the
    greedy run scored a random candidate subset instead of all blocks.
    """

    N: int
    k: int
    t: int
    blocks: tuple[tuple[int, ...], ...] = ()
    delta: Fraction = Fraction(0)
    sampled: bool = False

    def __post_init__(self):
        if not self.N >= self.k >= self.t >= 1:
            raise ValueError(
                f"need N >= k >= t >= 1, got N={self.N}, k={self.k}, t={self.t}")
        canon = tuple(_check_block(b, self.N, self.k) for b in self.blocks)
        object.__setattr__(self, "blocks", canon)


def _check_block(block, N: int, k: int) -> tuple[int, ...]:
    """The block as a sorted tuple; ValueError unless it is a k-subset of [N]."""
    bs = tuple(sorted(block))
    if len(bs) != k or len(set(bs)) != k:
        raise ValueError(f"block {bs} is not a {k}-subset")
    if bs[0] < 0 or bs[-1] >= N:
        raise ValueError(f"block {bs} out of range for N={N}")
    return bs


def greedy_cover(N: int, k: int, t: int, seed: int = 0) -> CoverDesign:
    """Deterministic greedy cover; with k = t this degenerates to one block
    per t-subset."""
    if not N >= k >= t >= 1:
        raise ValueError(f"need N >= k >= t >= 1, got N={N}, k={k}, t={t}")
    uncovered = set(combinations(range(N), t))
    blocks: list[tuple[int, ...]] = []
    exhaustive = comb(N, k) <= EXHAUSTIVE_CANDIDATE_LIMIT
    rng = random.Random(seed)

    def candidates():
        if exhaustive:
            yield from combinations(range(N), k)
            return
        # sampled variant: seeded draws, plus one block extending an
        # uncovered t-set so every round is guaranteed to make progress
        base = min(uncovered, key=colex_key)
        rest = [v for v in range(N) if v not in base]
        yield tuple(sorted(base + tuple(rest[: k - t])))
        population = list(range(N))
        for _ in range(SAMPLE_CANDIDATES_PER_ROUND):
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


def verify_cover(design: CoverDesign) -> bool:
    """Exhaustive check that every t-subset of [N] lies in some block."""
    block_sets = [set(b) for b in design.blocks]
    for sub in combinations(range(design.N), design.t):
        ss = set(sub)
        if not any(ss.issubset(b) for b in block_sets):
            return False
    return True


def rodl_bound(N: int, k: int, t: int, delta=0) -> Fraction:
    """(1 + delta) * C(N, t) / C(k, t), exactly as a rational."""
    return (1 + Fraction(delta)) * Fraction(comb(N, t), comb(k, t))


# -- text format: first line "N k t", then one block per line ----------------

def cover_to_text(design: CoverDesign) -> str:
    lines = [f"{design.N} {design.k} {design.t}"]
    lines.extend(" ".join(map(str, b)) for b in design.blocks)
    return "\n".join(lines) + "\n"


def cover_from_text(text: str) -> CoverDesign:
    header = None
    blocks = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(line_no, f"expected integers, got {line!r}") from None
        try:
            if header is None:
                if len(values) != 3:
                    raise ValueError("header must be 'N k t'")
                header = CoverDesign(*values)
            else:
                blocks.append(_check_block(values, header.N, header.k))
        except ValueError as exc:
            raise FormatError(line_no, str(exc)) from None
    if header is None:
        raise FormatError(1, "missing 'N k t' header")
    return CoverDesign(header.N, header.k, header.t, tuple(blocks))
