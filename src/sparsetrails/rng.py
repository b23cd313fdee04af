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
        draws, = _bulk_u64([self], n)
        draws >>= 11
        out = draws.astype(np.float64)
        out *= _DOUBLE_SCALE
        return out

    def gumbels(self, n: int) -> np.ndarray:
        opens = ((_bulk_u64([self], n)[0] >> 11).astype(np.float64) + 0.5) * _DOUBLE_SCALE
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
        return permutations([self], n)[0]

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n), via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from range({n})")
        draws, = _bulk_below([self], np.arange(n, n - k, -1, dtype=np.uint64))
        swaps = draws.astype(np.int64)
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
# A^(l*B) v come from a few matrix products. S streams that each draw n
# values share those products, one column per (lane, stream), and all their
# lanes then step together as uint64 arrays; one stream is the case S = 1.
# Blackman & Vigna, "Scrambled Linear Pseudorandom Number Generators"
# (arXiv:1805.01407); Haramoto et al., "Efficient Jump Ahead for F2-Linear
# Random Number Generators" (INFORMS J. Computing, 2008).

_LANE_CUTOFF = 512   # below this many draws, lane set-up costs more than it saves
# lane columns that one group of streams steps at most: a column's start bits
# take 1 KB as a float32 jump operand, so a group's set-up stays a few hundred
# KB for any S
_GROUP_COLUMNS = 256
_powers: list[np.ndarray] = []   # _powers[k] = A^(2^k) as 0/1 uint8, filled lazily


def _state_bits(words) -> np.ndarray:
    """(4, L) uint64 state words -> (256, L) 0/1 uint8 columns."""
    raw = np.ascontiguousarray(np.asarray(words, dtype="<u8").T).view(np.uint8)
    bits = np.unpackbits(raw.reshape(-1, 4, 8), axis=2, bitorder="little")
    return bits.reshape(-1, 256).T


def _bits_state(bits: np.ndarray) -> np.ndarray:
    """(256, L) 0/1 columns -> (4, L) uint64 state words."""
    lanes = bits.shape[1]
    # one contiguous (L, 256) transpose first, or packbits walks strided rows
    packed = np.packbits(np.ascontiguousarray(bits.T, dtype=np.uint8).reshape(lanes, 4, 64),
                         axis=2, bitorder="little")
    words = packed.view("<u8").reshape(lanes, 4)
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
        _powers.append(np.ascontiguousarray(_state_bits(np.array(columns, dtype=np.uint64).T)))
    while len(_powers) <= k:
        # entries of a 0/1 product are at most 256, exact in float32
        a = _powers[-1].astype(np.float32)
        _powers.append(((a @ a) % 2).astype(np.uint8))
    return _powers[k].astype(np.float32)


def _lane_shape(n: int) -> tuple[int, int]:
    """(B, lanes) for n draws: lanes of B ~ sqrt(n) steps, B a power of two,
    up to and including the lane that the n-th draw leaves the stream in."""
    steps = 1 << (n.bit_length() // 2)
    return steps, n // steps + 1


def _group_size(n: int) -> int:
    """How many streams of n draws each one group steps: as many as fit in
    `_GROUP_COLUMNS` lane columns, and at least one."""
    return max(1, _GROUP_COLUMNS // _lane_shape(n)[1])


def _bulk_u64(streams: list[Stream], n: int) -> np.ndarray:
    """The next n outputs of each stream's `next_u64()`, as the rows of an
    (S, n) uint64 array, advancing every stream n steps."""
    count = len(streams)
    if n < _LANE_CUTOFF:
        return np.array([[stream.next_u64() for _ in range(n)] for stream in streams],
                        dtype=np.uint64).reshape(count, n)
    steps, lanes = _lane_shape(n)
    # after the n-th draw a stream is in lane `last`'s state after
    # `remainder` of its steps; that lane is stepped too, even when no draw
    # of it is kept
    last, remainder = divmod(n, steps)
    # column lane * count + s starts stream s's lane: [V, A^B V, A^(2B) V, ...]
    starts = np.empty((256, lanes, count), dtype=np.uint8)
    starts[:, 0] = _state_bits(np.array([stream.get_state() for stream in streams],
                                        dtype=np.uint64).T)
    filled, j = 1, steps.bit_length() - 1
    while filled < lanes:                 # lanes [filled, 2 filled) are A^(B 2^j) ahead
        ahead = min(filled, lanes - filled)
        # entries of a 0/1 product are at most 256
        product = (_jump(j) @ starts[:, :ahead].reshape(256, -1).astype(np.float32)
                   ).astype(np.int16)
        starts[:, filled:filled + ahead] = (product & 1).reshape(256, ahead, count)
        filled += ahead
        j += 1
    state = _bits_state(starts.reshape(256, -1))
    s0, s1, s2, s3 = state                # rows of `state`, stepped in place
    columns = lanes * count
    seen = np.empty((steps, columns), dtype=np.uint64)   # s1 before each step
    t = np.empty(columns, dtype=np.uint64)
    xor, or_, shl, shr = np.bitwise_xor, np.bitwise_or, np.left_shift, np.right_shift
    for i in range(steps):
        if i == remainder:
            final = state[:, last * count:].T.tolist()
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
    for stream, words in zip(streams, final):
        stream.set_state(words)
    # output = rotl(s1 * 5, 7) * 9, scrambled in place; the output block
    # serves as scratch until the transposed copy overwrites it with each
    # stream's lanes one after another
    out = np.empty((count, lanes * steps), dtype=np.uint64)
    high = out.reshape(steps, columns)
    seen *= 5
    np.right_shift(seen, 57, out=high)
    seen <<= 7
    seen |= high
    seen *= 9
    out.reshape(count, lanes, steps)[...] = seen.reshape(steps, lanes, count).T
    return out[:, :n]


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
    shift = k.bit_length()
    if n > (1 << 63) >> shift:
        raise ValueError(f"sort keys of {k} swaps over range({n}) overflow int64")
    # the steps ordered by (target, step), as one int64 key each
    keys = swaps << shift
    keys |= np.arange(k)
    keys.sort()
    target = keys >> shift
    keys &= (1 << shift) - 1
    step = keys
    again = np.zeros(k, dtype=bool)            # entries i and i + 1 share a target
    np.equal(target[1:], target[:-1], out=again[:-1])
    shared = np.flatnonzero(again)
    before = np.full(k, -1, dtype=np.int64)    # the last earlier step with the same target
    before[step[shared + 1]] = step[shared]
    # link w -> the last step that targeted position w, which comes before
    # step w; if it is step w itself, no later step reads position w. A
    # position no step targeted is a root and links to itself. (Only group
    # ends are written: numpy keeps no promised value for a repeated index.)
    ends = np.flatnonzero(~again)
    ends = ends[target[ends] < k]
    link = np.arange(k, dtype=np.int64)
    link[target[ends]] = step[ends]
    while True:                                # link -> the root of each chain
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    return np.where(before >= 0, link[before], swaps)


def _bulk_below(streams: list[Stream], bounds: np.ndarray) -> np.ndarray:
    """`stream.randbelow(m)` for each m in bounds (uint64, all >= 1), in
    order, for each stream: the rows of an (S, bounds.size) uint64 array.

    A draw u is rejected when u >= 2^64 - (2^64 mod m), and the next draw is
    tried for the same bound, so every stream moves exactly as under the
    scalar calls. The streams draw one value per bound together; a stream
    that rejected one goes on alone from its first rejection.
    """
    ceiling = ~((0 - bounds) % bounds)    # largest accepted draw per bound
    draws = _bulk_u64(streams, bounds.size)
    rejecting = np.flatnonzero((draws > ceiling).any(axis=1))
    kept = [draws[row].copy() for row in rejecting]
    draws %= bounds
    for row, left in zip(rejecting.tolist(), kept):
        done = 0
        while True:
            rejected = np.flatnonzero(left > ceiling[done:done + left.size])
            take = int(rejected[0]) if rejected.size else left.size
            draws[row, done:done + take] = left[:take] % bounds[done:done + take]
            done += take
            if done == bounds.size:
                break
            left = left[take + 1:]
            if not left.size:             # at least one draw per bound left
                left = _bulk_u64([streams[row]], bounds.size - done)[0]
    return draws


def permutations(streams: list[Stream], n: int) -> np.ndarray:
    """`stream.permutation(n)` for each stream, as the rows of an (S, n)
    int64 array. The streams draw in groups of at most `_GROUP_COLUMNS`
    lane columns, and each group's shuffles are resolved in one call."""
    out = np.empty((len(streams), n), dtype=np.int64)
    if n < 2:                             # no draws: range(n) itself
        out[...] = np.arange(n)
        return out
    # step i swaps position n-1-i with j = randbelow(n-i). Read position p
    # as n-1-p, and that is a shuffle whose step i targets n-1-j >= i, pool
    # entry q standing for the value n-1-q, with a last step n-1 on itself.
    # Stream s of a group shuffles the block [s*n, s*n + n) of one pool, so
    # one resolve serves the group: with its block's end e = s*n + n-1, its
    # step i targets e - j, and its pick q at position p is the value e - q
    # at position n-1-p
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    size = _group_size(n - 1)
    for first in range(0, len(streams), size):
        group = streams[first:first + size]
        targets = np.zeros((len(group), n), dtype=np.int64)
        targets[:, :-1] = _bulk_below(group, bounds)
        ends = np.arange(n - 1, len(group) * n, n, dtype=np.int64)[:, None]
        np.subtract(ends, targets, out=targets)
        picks = _shuffled_prefix(targets.reshape(-1)).reshape(len(group), n)
        np.subtract(ends, picks[:, ::-1], out=out[first:first + len(group)])
    return out
