"""Deterministic random streams built on xoshiro256** with splitmix64 seeding.

Every random decision in this package (weight init, mask init, data
shuffling, stochastic pruning, random regrowth) is drawn from a `Stream`
derived from a single 64-bit master seed, so runs are bit-reproducible
and individual streams can be checkpointed and restored.

Substreams are derived with `Stream.child(*ids)`: the ids (small ints or
short strings) are folded into the parent seed through splitmix64, which
gives distinct, statistically independent streams for distinct id tuples.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 1.0 / (1 << 53)


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state, returning (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fold(seed: int, token: int | str) -> int:
    """Mix one id token into a 64-bit seed value."""
    if isinstance(token, str):
        value = 0
        for byte in token.encode("utf-8"):
            _, value = _splitmix64((value ^ byte) & _MASK64)
    else:
        value = token & _MASK64
    _, out = _splitmix64((seed ^ value) & _MASK64)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Stream:
    """xoshiro256** generator with substream derivation and state capture."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_gauss_spare", "seed")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        sm = self.seed
        words = []
        for _ in range(4):
            sm, w = _splitmix64(sm)
            words.append(w)
        self._s0, self._s1, self._s2, self._s3 = words
        if self._s0 == self._s1 == self._s2 == self._s3 == 0:
            self._s0 = _GOLDEN  # all-zero state is a fixed point
        self._gauss_spare = None

    def child(self, *ids: int | str) -> "Stream":
        """Derive an independent substream keyed by the given id tuple."""
        seed = self.seed
        for token in ids:
            seed = _fold(seed, token)
        return Stream(seed)

    # -- core generator ---------------------------------------------------

    def next_u64(self) -> int:
        result = (_rotl((self._s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (self._s1 << 17) & _MASK64
        self._s2 ^= self._s0
        self._s3 ^= self._s1
        self._s1 ^= self._s2
        self._s0 ^= self._s3
        self._s2 ^= t
        self._s3 = _rotl(self._s3, 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def open_unit(self) -> float:
        """Uniform double in (0, 1), safe as a log argument."""
        return ((self.next_u64() >> 11) + 0.5) * _DOUBLE_SCALE

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow requires n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    # -- bulk helpers ------------------------------------------------------
    #
    # Each helper returns exactly the values, and leaves the stream in exactly
    # the state, that the same number of scalar calls would (`random`,
    # `open_unit`, `randbelow`); the draws are only computed in bulk.

    def uniforms(self, n: int) -> np.ndarray:
        draws = _bulk_u64(self, n)
        draws >>= 11
        out = draws.astype(np.float64)
        out *= _DOUBLE_SCALE
        return out

    def gumbels(self, n: int) -> np.ndarray:
        opens = ((_bulk_u64(self, n) >> 11).astype(np.float64) + 0.5) * _DOUBLE_SCALE
        # math.log, not np.log: the two may differ in the last bit, and a
        # Gumbel-top-k ranking is sensitive to that
        return np.array([-math.log(-math.log(x)) for x in opens.tolist()],
                        dtype=np.float64)

    def normal(self) -> float:
        """Standard normal via Box-Muller (spare value cached)."""
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        r = math.sqrt(-2.0 * math.log(self.open_unit()))
        theta = 2.0 * math.pi * self.random()
        self._gauss_spare = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        # step i swaps position n-1-i with j = randbelow(n-i). Read position
        # p as n-1-p, and that is a partial shuffle of n-1 steps with targets
        # n-1-j >= i, whose pool entry q stands for the value n-1-q; the
        # last position keeps the one entry never picked
        draws = _bulk_below(self, np.arange(n, 1, -1, dtype=np.uint64))
        picks = _shuffled_prefix((n - 1) - draws.astype(np.int64))
        mirrored = np.empty(n, dtype=np.int64)
        mirrored[:n - 1] = picks
        mirrored[n - 1:] = n * (n - 1) // 2 - picks.sum()
        return (n - 1) - mirrored[::-1]

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n), via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from range({n})")
        swaps = _bulk_below(self, np.arange(n, n - k, -1, dtype=np.uint64)).astype(np.int64)
        swaps += np.arange(k)
        return _shuffled_prefix(swaps)

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> tuple[int, int, int, int]:
        if self._gauss_spare is not None:
            raise RuntimeError("cannot capture stream state with a cached normal pending")
        return (self._s0, self._s1, self._s2, self._s3)

    def set_state(self, state: tuple[int, int, int, int]) -> None:
        self._s0, self._s1, self._s2, self._s3 = (w & _MASK64 for w in state)
        self._gauss_spare = None


# ---------------------------------------------------------------------------
# bulk draws across jump-ahead lanes
# ---------------------------------------------------------------------------
#
# The xoshiro256** state update is linear over GF(2): read as a 256-bit
# column vector v (bit i of word w at row 64*w + i), one step is v -> A v
# for a fixed 256x256 bit matrix A. So the state k steps ahead is A^k v, and
# n draws can be split into lanes of B consecutive steps whose start states
# A^(l*B) v come from a few matrix products; all lanes then step together as
# uint64 arrays. Blackman & Vigna, "Scrambled Linear Pseudorandom Number
# Generators" (arXiv:1805.01407); Haramoto et al., "Efficient Jump Ahead
# for F2-Linear Random Number Generators" (INFORMS J. Computing, 2008).

_LANE_CUTOFF = 512   # below this many draws, lane set-up costs more than it saves
_powers: list[np.ndarray] = []   # _powers[k] = A^(2^k) as 0/1 uint8, filled lazily


def _state_bits(words) -> np.ndarray:
    """(4, L) uint64 state words -> (256, L) 0/1 float32 columns."""
    raw = np.ascontiguousarray(np.asarray(words, dtype="<u8").T).view(np.uint8)
    bits = np.unpackbits(raw.reshape(-1, 4, 8), axis=2, bitorder="little")
    return bits.reshape(-1, 256).T.astype(np.float32)


def _bits_state(bits: np.ndarray) -> np.ndarray:
    """(256, L) 0/1 columns -> (4, L) uint64 state words."""
    lanes = bits.shape[1]
    packed = np.packbits(bits.T.astype(np.uint8).reshape(lanes, 4, 64), axis=2,
                         bitorder="little")
    words = np.ascontiguousarray(packed).view("<u8").reshape(lanes, 4)
    return np.ascontiguousarray(words.T, dtype=np.uint64)


def _jump(k: int) -> np.ndarray:
    """A^(2^k) as float32 0/1, squaring from A as far as needed."""
    if not _powers:
        probe = Stream(0)
        columns = []
        for bit in range(256):
            words = [0, 0, 0, 0]
            words[bit // 64] = 1 << (bit % 64)
            probe.set_state(words)
            probe.next_u64()
            columns.append(probe.get_state())
        _powers.append(_state_bits(np.array(columns, dtype=np.uint64).T).astype(np.uint8))
    while len(_powers) <= k:
        # entries of a 0/1 product are at most 256, exact in float32
        a = _powers[-1].astype(np.float32)
        _powers.append(((a @ a) % 2).astype(np.uint8))
    return _powers[k].astype(np.float32)


def _bulk_u64(stream: Stream, n: int) -> np.ndarray:
    """The next n outputs of `stream.next_u64()` as uint64, advancing it n steps."""
    if n < _LANE_CUTOFF:
        return np.array([stream.next_u64() for _ in range(n)], dtype=np.uint64)
    b = n.bit_length() // 2
    steps = 1 << b                        # B ~ sqrt(n) steps per lane
    # after the n-th draw the stream is in lane `last`'s state after
    # `remainder` of its steps; that lane is stepped too, even when no
    # draw of it is kept
    last, remainder = divmod(n, steps)
    lanes = last + 1
    starts = np.empty((256, lanes), dtype=np.float32)   # [V, A^B V, A^(2B) V, ...]
    starts[:, :1] = _state_bits(np.array([stream.get_state()], dtype=np.uint64).T)
    filled, j = 1, b
    while filled < lanes:                 # lanes [filled, 2 filled) are A^(B 2^j) ahead
        ahead = min(filled, lanes - filled)
        # entries of a 0/1 product are at most 256
        product = (_jump(j) @ starts[:, :ahead]).astype(np.int16)
        starts[:, filled:filled + ahead] = product & 1
        filled += ahead
        j += 1
    state = _bits_state(starts)
    s0, s1, s2, s3 = state                # rows of `state`, stepped in place
    seen = np.empty((steps, lanes), dtype=np.uint64)   # s1 before each step
    t = np.empty(lanes, dtype=np.uint64)
    xor, or_, shl, shr = np.bitwise_xor, np.bitwise_or, np.left_shift, np.right_shift
    for i in range(steps):
        if i == remainder:
            final = tuple(int(w) for w in state[:, last])
        seen[i] = s1
        shl(s1, 17, out=t)
        xor(s2, s0, out=s2)
        xor(s3, s1, out=s3)
        xor(s1, s2, out=s1)
        xor(s0, s3, out=s0)
        xor(s2, t, out=s2)
        shr(s3, 19, out=t)                # s3 = rotl(s3, 45)
        shl(s3, 45, out=s3)
        or_(s3, t, out=s3)
    stream.set_state(final)
    # output = rotl(s1 * 5, 7) * 9, scrambled in place; the output block
    # serves as scratch until the transposed copy overwrites it
    out = np.empty((lanes, steps), dtype=np.uint64)
    high = out.reshape(steps, lanes)
    seen *= 5
    np.right_shift(seen, 57, out=high)
    seen <<= 7
    seen |= high
    seen *= 9
    out[...] = seen.T
    return out.reshape(-1)[:n]


def _shuffled_prefix(swaps: np.ndarray) -> np.ndarray:
    """`pool[:k]` after a partial Fisher-Yates shuffle of pool = range(n):
    for i < k, `pool[i], pool[swaps[i]] = pool[swaps[i]], pool[i]`, where
    swaps is int64 with i <= swaps[i] < n.

    Position i is never read after step i, so only the values moved into the
    targets matter: pick i is swaps[i], unless an earlier step w also
    targeted swaps[i]. Then it is the value position w held before step w:
    w itself, unless a step before w targeted position w, and so on down a
    chain of strictly earlier steps that pointer jumping follows to its end.
    """
    k = swaps.size
    n = int(swaps.max()) + 1 if k else 0
    if n * k > 1 << 63:
        raise ValueError(f"sort keys of {k} swaps over range({n}) overflow int64")
    # the steps ordered by (target, step), as one int64 key each
    target, step = np.divmod(np.sort(swaps * k + np.arange(k)), max(k, 1))
    again = target[1:] == target[:-1]
    before = np.full(k, -1, dtype=np.int64)    # the last earlier step with the same target
    before[step[1:][again]] = step[:-1][again]
    # link w -> the last step that targeted position w, which comes before
    # step w; if it is step w itself, no later step reads position w. A
    # position no step targeted is a root and links to itself. (Only group
    # ends are written: numpy keeps no promised value for a repeated index.)
    group_end = np.ones(k, dtype=bool)
    group_end[:-1] = ~again
    group_end &= target < k
    link = np.arange(k, dtype=np.int64)
    link[target[group_end]] = step[group_end]
    while True:                                # link -> the root of each chain
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    return np.where(before >= 0, link[before], swaps)


def _bulk_below(stream: Stream, bounds: np.ndarray) -> np.ndarray:
    """`stream.randbelow(m)` for each m in bounds (uint64, all >= 1), in order.

    A draw u is rejected when u >= 2^64 - (2^64 mod m), and the next draw is
    tried for the same bound, so the stream moves exactly as under the
    scalar calls.
    """
    out = np.empty(bounds.size, dtype=np.uint64)
    ceiling = ~((0 - bounds) % bounds)    # largest accepted draw per bound
    done = 0
    while done < bounds.size:
        draws = _bulk_u64(stream, bounds.size - done)   # at least one per bound left
        while draws.size:
            end = done + draws.size
            rejected = np.flatnonzero(draws > ceiling[done:end])
            take = int(rejected[0]) if rejected.size else draws.size
            out[done:done + take] = draws[:take] % bounds[done:done + take]
            done += take
            draws = draws[take + 1:]
    return out
