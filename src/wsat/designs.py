"""Greedy covering designs: families of k-blocks covering every t-subset of [N].

The greedy rule picks, each round, the block covering the most uncovered
t-subsets (ties broken toward the colex-least block), which is enough for the
composite construction; the asymptotically optimal block count is only
reported against, never promised.  When the candidate space C(N, k) is too
large to enumerate per round, a seeded random sample of candidates is scored
instead and the design is flagged as sampled.

Both paths score a block from one bitmask per (t-1)-set T: the vertices
u > max(T) for which T ∪ {u} is still uncovered, so a score is C(k, t-1)
popcounts.  The exhaustive path is lazy greedy (Minoux 1978): a heap of
(-score, colex key) pairs holding stale scores.  A block's score only falls
as blocks are taken, so a popped block whose fresh score still heads the heap
is the one a full rescan would pick, ties going to the colex-least block.
The sampled path scores its seeded draws with the same masks.  It draws
them with `_sampler`, which makes the getrandbits calls CPython's
`Random.sample(range(N), k)` makes, in the same order, and returns the same
lists without the method's per-call set-up;
tests/test_designs.py::test_sampler_matches_random_sample pins it against
`Random.sample` on both of its branches.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, log
from typing import Callable, Sequence

from .hypergraph import FormatError, colex_key

# Enumerate all C(N, k) candidate blocks per round up to this count.
EXHAUSTIVE_CANDIDATE_LIMIT = 100_000
SAMPLE_CANDIDATES_PER_ROUND = 10_000


@dataclass(frozen=True)
class CoverDesign:
    """Blocks of size k over [N] covering every t-subset at least once.

    sampled records whether the greedy run scored a random candidate subset
    instead of all blocks.
    """

    N: int
    k: int
    t: int
    blocks: tuple[tuple[int, ...], ...] = ()
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
    # uncovered[T]: bitmask of the u > max(T) with T ∪ {u} still uncovered,
    # for each (t-1)-set T; a t-set is counted once, under T = it minus its max.
    # At t = 2 the masks are a list indexed by the one vertex of T, and a
    # block's (t-1)-sets are its vertices.
    full = (1 << N) - 1
    if t == 2:
        uncovered = [full & -(2 << v) for v in range(N)]
    else:
        uncovered = {T: full & -(2 << T[-1]) if T else full
                     for T in combinations(range(N), t - 1)}
    left = comb(N, t)
    blocks: list[tuple[int, ...]] = []
    bits = [1 << v for v in range(N)]

    def score(block: Sequence[int]) -> int:
        bmask = sum(map(bits.__getitem__, block))
        keys = block if t == 2 else combinations(block, t - 1)
        return sum([(m & bmask).bit_count() for m in map(uncovered.__getitem__, keys)])

    def take(block: tuple[int, ...], gain: int) -> None:
        nonlocal left
        bmask = sum(map(bits.__getitem__, block))
        for T in (block if t == 2 else combinations(block, t - 1)):
            uncovered[T] &= ~bmask
        blocks.append(block)
        left -= gain

    exhaustive = comb(N, k) <= EXHAUSTIVE_CANDIDATE_LIMIT
    if exhaustive:
        # lazy greedy: every block enters with the most it could ever score,
        # scores only fall, so a popped block whose fresh (-score, colex key)
        # still heads the heap is the block a full rescan would choose
        heap = [(-comb(k, t), b[::-1]) for b in combinations(range(N), k)]
        heapq.heapify(heap)
        while left:
            _, key = heapq.heappop(heap)
            block = key[::-1]
            gain = score(block)
            if not heap or (-gain, key) <= heap[0]:
                take(block, gain)
            elif gain:  # a block that covers nothing new never will
                heapq.heappush(heap, (-gain, key))
        return CoverDesign(N, k, t, tuple(blocks))

    # sampled variant: seeded draws, plus one block extending the colex-least
    # uncovered t-set so every round is guaranteed to make progress
    draw = _sampler(random.Random(seed), N, k)
    while left:
        masks = (((v,), m) for v, m in enumerate(uncovered)) if t == 2 \
            else uncovered.items()
        base = min((T + ((m & -m).bit_length() - 1,)
                    for T, m in masks if m), key=colex_key)
        rest = [v for v in range(N) if v not in base]
        best_block = tuple(sorted(base + tuple(rest[: k - t])))
        best_score, best_key = score(best_block), colex_key(best_block)
        for _ in range(SAMPLE_CANDIDATES_PER_ROUND):
            block = draw()
            block.sort()
            gain = score(block)
            if gain >= best_score:
                key = colex_key(block)
                if gain > best_score or key < best_key:
                    best_block, best_score, best_key = tuple(block), gain, key
        take(best_block, best_score)
    return CoverDesign(N, k, t, tuple(blocks), sampled=True)


def _sampler(rng: random.Random, N: int, k: int) -> Callable[[], list[int]]:
    """A function whose every call returns what rng.sample(range(N), k) would,
    from the same rng.getrandbits calls in the same order.

    Random.sample keeps a pool of the unpicked values when N is small against
    k, and a set of the picked ones otherwise; both branches are reproduced,
    with the same float-based threshold.  Each value below m is drawn as
    Random._randbelow draws it: getrandbits(m.bit_length()) until it is < m.
    """
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if N <= setsize:
        # pool branch: the i-th pick is pool[j], j < N - i, and the last
        # unpicked value moves into the vacancy
        steps = [(m, m.bit_length()) for m in range(N, N - k, -1)]
        population = list(range(N))

        def draw() -> list[int]:
            pool = population[:]
            result = []
            for m, b in steps:
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                result.append(pool[j])
                pool[j] = pool[m - 1]
            return result
    else:
        # set branch: redraw a value that is out of range or already picked
        b = N.bit_length()

        def draw() -> list[int]:
            result = []
            picked = set()
            for _ in range(k):
                j = getrandbits(b)
                while j >= N or j in picked:
                    j = getrandbits(b)
                picked.add(j)
                result.append(j)
            return result
    return draw


def verify_cover(design: CoverDesign) -> bool:
    """Exhaustive check that every t-subset of [N] lies in some block."""
    block_sets = [set(b) for b in design.blocks]
    for sub in combinations(range(design.N), design.t):
        ss = set(sub)
        if not any(ss.issubset(b) for b in block_sets):
            return False
    return True


def rodl_bound(N: int, k: int, t: int) -> Fraction:
    """C(N, t) / C(k, t), exactly as a rational."""
    return Fraction(comb(N, t), comb(k, t))


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
