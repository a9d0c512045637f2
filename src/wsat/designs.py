"""Greedy covering designs: families of k-blocks covering every t-subset of [N].

The greedy rule picks, each round, the block covering the most uncovered
t-subsets (ties broken toward the colex-least block), which is enough for the
composite construction; the asymptotically optimal block count is only
reported against, never promised.  When the candidate space C(N, k) is too
large to enumerate per round, a seeded random sample of candidates is scored
instead and the design is flagged as sampled.  With k = t every block covers
its own t-subset only, so the greedy takes all of them in colex order; that
list is returned at once, on either path, built by edge_universe past its
cache so that the cache does not keep it after the design is dropped.

For t <= 2 the uncovered t-subsets are kept as one bitmask per vertex v,
nbr[v]: at t = 2 the u with {u, v} still uncovered, at t = 1 v's own bit
while v is uncovered.  A block is then scored by adding, vertex by vertex,
(nbr[v] & vertices so far).bit_count(), v's own bit included.  For t >= 3 the
masks are per (t-1)-set T: the u > max(T) with T ∪ {u} still uncovered, and a
block scores C(k, t-1) popcounts.

The exhaustive path is lazy greedy (Minoux 1978): a heap of stale scores,
each entry the int (C(k, t) - score) << N | block mask, which orders as
(-score, colex key) does.  A block's score only falls as blocks are taken, so
a popped block whose fresh score still heads the heap is the one a full
rescan would pick, ties going to the colex-least block.

The sampled path draws each candidate as CPython's
`Random(seed).sample(range(N), k)` would, making the same getrandbits calls in
the same order, from its pool branch or its set branch by the same threshold.
At t = 2 it adds each vertex's gain as it is drawn, in one pass; at t = 1 the
finished draw scores one popcount against the mask of uncovered vertices; for
t >= 3 the finished block is sorted and scored.  A candidate is kept as its
vertex bitmask, which orders same-size blocks as colex does, so no t <= 2
candidate is sorted unless it wins its round.
tests/test_designs.py::test_draws_match_random_sample pins the draws against
`Random.sample` through whole covers.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from math import ceil, comb, log
from typing import TYPE_CHECKING, Sequence

from .hypergraph import FormatError, _Value, colex_key, edge_universe, set_bits

if TYPE_CHECKING:
    from fractions import Fraction

# Enumerate all C(N, k) candidate blocks per round up to this count.
EXHAUSTIVE_CANDIDATE_LIMIT = 100_000
SAMPLE_CANDIDATES_PER_ROUND = 10_000


class CoverDesign(_Value):
    """Blocks of size k over [N] covering every t-subset at least once.

    sampled records whether the greedy run scored a random candidate subset
    instead of all blocks.
    """

    _fields = ("N", "k", "t", "blocks", "sampled")

    def __init__(self, N: int, k: int, t: int,
                 blocks: tuple[tuple[int, ...], ...] = (), sampled: bool = False):
        if not N >= k >= t >= 1:
            raise ValueError(f"need N >= k >= t >= 1, got N={N}, k={k}, t={t}")
        blocks = tuple(_check_block(b, N, k) for b in blocks)
        self.__dict__.update(N=N, k=k, t=t, blocks=blocks, sampled=sampled)


def _check_block(block, N: int, k: int) -> tuple[int, ...]:
    """The block as a sorted tuple; ValueError unless it is a k-subset of [N]."""
    bs = tuple(sorted(block))
    if len(bs) != k or len(set(bs)) != k:
        raise ValueError(f"block {bs} is not a {k}-subset")
    if bs[0] < 0 or bs[-1] >= N:
        raise ValueError(f"block {bs} out of range for N={N}")
    return bs


def greedy_cover(N: int, k: int, t: int, seed: int = 0) -> CoverDesign:
    """Deterministic greedy cover of the t-subsets of [N] by k-blocks.

    Every C(N, k) block is a candidate while that count is at most
    EXHAUSTIVE_CANDIDATE_LIMIT; beyond it, each round scores the block
    extending the colex-least uncovered t-set plus SAMPLE_CANDIDATES_PER_ROUND
    blocks drawn from random.Random(seed), each scored while it is drawn
    (t = 2) or once drawn.  With k = t the t-subsets are returned in colex
    order without drawing.
    """
    if not N >= k >= t >= 1:
        raise ValueError(f"need N >= k >= t >= 1, got N={N}, k={k}, t={t}")
    exhaustive = comb(N, k) <= EXHAUSTIVE_CANDIDATE_LIMIT
    if k == t:
        return CoverDesign(N, k, t, edge_universe.__wrapped__(N, t),
                           sampled=not exhaustive)
    bits = [1 << v for v in range(N)]
    full = (1 << N) - 1
    if t == 1:
        nbr = bits[:]
    elif t == 2:
        nbr = [full ^ b for b in bits]
    else:
        # a t-set is counted once, under T = it minus its max; blocks are
        # scored once sorted
        uncovered = {T: full & -(2 << T[-1])
                     for T in combinations(range(N), t - 1)}
    left = comb(N, t)
    blocks: list[tuple[int, ...]] = []

    if t > 2:
        def score(block: Sequence[int], bmask: int) -> int:
            """Uncovered t-sets in the sorted block, of vertex mask bmask."""
            return sum([(m & bmask).bit_count() for m in
                        map(uncovered.__getitem__, combinations(block, t - 1))])
    else:
        def score(block: Sequence[int], bmask: int) -> int:
            """Uncovered t-sets in block, of vertex mask bmask; at t = 2 each
            pair is counted at both of its ends."""
            return sum([(nbr[v] & bmask).bit_count() for v in block]) >> (t - 1)

    def take(block: tuple[int, ...], gain: int) -> None:
        nonlocal left
        keep = ~sum(map(bits.__getitem__, block))
        if t > 2:
            for T in combinations(block, t - 1):
                uncovered[T] &= keep
        else:
            for v in block:
                nbr[v] &= keep
        blocks.append(block)
        left -= gain

    if exhaustive:
        # lazy greedy: every block enters with C(k, t), the most it could
        # ever score; an entry is (C(k, t) - score) << N | block mask
        top = comb(k, t)
        block_of = {sum(map(bits.__getitem__, b)): b
                    for b in combinations(range(N), k)}
        heap = list(block_of)
        heapq.heapify(heap)
        while left:
            bmask = heapq.heappop(heap) & full
            block = block_of[bmask]
            if t > 2:
                gain = score(block, bmask)
            else:  # score(block), inline: the hot loop of the exhaustive path
                gain = sum([(nbr[v] & bmask).bit_count() for v in block]) >> (t - 1)
            entry = (top - gain) << N | bmask
            if not heap or entry <= heap[0]:
                take(block, gain)
            elif gain:  # a block that covers nothing new never will
                heapq.heappush(heap, entry)
        return CoverDesign(N, k, t, tuple(blocks))

    # sampled variant: seeded draws, plus one block extending the colex-least
    # uncovered t-set so every round is guaranteed to make progress.  Each
    # draw is Random.sample(range(N), k)'s: its pool branch when N is small
    # against k, its set branch otherwise, by the same float-based threshold,
    # each value below m drawn as getrandbits(m.bit_length()) until it is < m
    getrandbits = random.Random(seed).getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    pooled = N <= setsize
    steps = [(m, m.bit_length()) for m in range(N, N - k, -1)]
    width = N.bit_length()
    population = list(range(N))
    while left:
        if t > 2:
            base = min((T + ((m & -m).bit_length() - 1,)
                        for T, m in uncovered.items() if m), key=colex_key)
        else:
            # the least v with an uncovered t-set inside 0..v, then the least
            # u with {u, v} uncovered (u = v at t = 1)
            for v, m in enumerate(nbr):
                m &= (2 << v) - 1
                if m:
                    break
            u = (m & -m).bit_length() - 1
            base = (u, v) if u < v else (v,)
        rest = [v for v in range(N) if v not in base]
        best_block = tuple(sorted(base + tuple(rest[: k - t])))
        best = sum(map(bits.__getitem__, best_block))
        best_score = score(best_block, best)
        if t == 1:
            live = sum(nbr)  # the uncovered vertices
        for _ in range(SAMPLE_CANDIDATES_PER_ROUND):
            drawn = gain = 0
            # at t = 2 each drawn vertex adds its gain; at t = 1 and t > 2
            # the finished draw is scored
            if pooled:
                # the i-th pick is pool[j], j < N - i, and the last unpicked
                # value moves into the vacancy
                pool = population[:]
                if t == 2:
                    for m, b in steps:
                        j = getrandbits(b)
                        while j >= m:
                            j = getrandbits(b)
                        v = pool[j]
                        pool[j] = pool[m - 1]
                        drawn |= bits[v]
                        gain += (nbr[v] & drawn).bit_count()
                else:
                    for m, b in steps:
                        j = getrandbits(b)
                        while j >= m:
                            j = getrandbits(b)
                        drawn |= bits[pool[j]]
                        pool[j] = pool[m - 1]
                    gain = ((drawn & live).bit_count() if t == 1
                            else score(set_bits(drawn), drawn))
            elif t == 2:
                # redraw a value that is out of range or already picked
                for _ in steps:
                    v = getrandbits(width)
                    while v >= N or drawn >> v & 1:
                        v = getrandbits(width)
                    drawn |= bits[v]
                    gain += (nbr[v] & drawn).bit_count()
            else:
                for _ in steps:
                    v = getrandbits(width)
                    while v >= N or drawn >> v & 1:
                        v = getrandbits(width)
                    drawn |= bits[v]
                gain = ((drawn & live).bit_count() if t == 1
                        else score(set_bits(drawn), drawn))
            # the vertex masks of two k-blocks order them as colex does
            if gain >= best_score and (gain > best_score or drawn < best):
                best_score, best = gain, drawn
        take(tuple(set_bits(best)), best_score)
    return CoverDesign(N, k, t, tuple(blocks), sampled=True)


def verify_cover(design: CoverDesign) -> bool:
    """Whether every t-subset of [N] lies in some block: the distinct
    t-subsets of the blocks number C(N, t)."""
    covered = set()
    for block in design.blocks:
        covered.update(combinations(block, design.t))
    return len(covered) == comb(design.N, design.t)


def rodl_bound(N: int, k: int, t: int) -> Fraction:
    """C(N, t) / C(k, t), exactly as a rational.  fractions is imported
    here, as no command needs it."""
    from fractions import Fraction
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
