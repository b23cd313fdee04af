import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsetrails import rng
from sparsetrails.rng import Stream

import oracles


def test_xoshiro_core_known_outputs():
    # Hand-traced xoshiro256** outputs starting from state (1, 2, 3, 4):
    #   out1 = rotl(2*5, 7) * 9 = 1280 * 9 = 11520
    #   state -> (7, 0, 262146, rotl(6, 45)); out2 = rotl(0, 7) * 9 = 0
    #   state -> (211106232532999, 262149, 262149, 402653184)
    #   out3 = rotl(262149*5, 7) * 9 = 1509978240
    s = Stream(0)
    s.set_state((1, 2, 3, 4))
    assert [s.next_u64() for _ in range(3)] == [11520, 0, 1509978240]


def test_same_seed_same_sequence():
    a, b = Stream(42), Stream(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_child_streams_distinct_per_layer_and_head():
    master = Stream(7)
    first = {}
    for head in range(4):
        for layer in range(6):
            out = master.child("mask", head, layer).next_u64()
            assert out not in first.values()
            first[(head, layer)] = out
    # derivation does not disturb or depend on the parent's position
    assert master.child("mask", 0, 0).next_u64() == first[(0, 0)]


def test_random_in_unit_interval():
    s = Stream(3)
    draws = [s.random() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.05


def test_open_unit_never_zero_or_one():
    s = Stream(3)
    assert all(0.0 < s.open_unit() < 1.0 for _ in range(2000))


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_randbelow_range(n, seed):
    s = Stream(seed)
    assert all(0 <= s.randbelow(n) < n for _ in range(20))


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream(0).randbelow(0)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=30))
@settings(max_examples=50)
def test_choice_without_replacement_is_a_subset(seed, k):
    s = Stream(seed)
    picks = s.choice_without_replacement(30, k)
    assert len(picks) == k == len(set(picks.tolist()))
    assert all(0 <= p < 30 for p in picks)


def test_choice_exhaustive_returns_everything():
    picks = Stream(5).choice_without_replacement(8, 8)
    assert sorted(picks.tolist()) == list(range(8))


def test_permutation_is_a_permutation():
    perm = Stream(9).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_normals_have_plausible_moments():
    draws = Stream(11).normals(4000)
    assert abs(draws.mean()) < 0.1
    assert abs(draws.std() - 1.0) < 0.1


def test_state_roundtrip_resumes_sequence():
    s = Stream(17)
    for _ in range(10):
        s.next_u64()
    saved = s.get_state()
    expected = [s.next_u64() for _ in range(5)]
    fresh = Stream(0)
    fresh.set_state(saved)
    assert [fresh.next_u64() for _ in range(5)] == expected


# -- bulk draws against the scalar loops -------------------------------------

CUTOFF = rng._LANE_CUTOFF
# lanes are 32 steps long up to 2047 draws and 64 from 2048 on; 4096 draws
# run as 64 lanes of 64 steps, so 4095 and 4097 end one step before and
# after a lane boundary; 10007 is prime
BULK_SIZES = [0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 2047, 2048, 2049, 4095, 4096, 4097,
              10007]
HELPERS = ["uniforms", "gumbels", "permutation", "choice_third", "choice_all"]


def draw(helper: str, stream, n: int, bulk: bool) -> np.ndarray:
    """One helper's draws, from the package (bulk) or from the scalar oracle."""
    name, args = helper, (n,)
    if helper.startswith("choice"):
        k = n if helper == "choice_all" else n // 3
        name, args = "choice_without_replacement", (n, k)
    return getattr(stream, name)(*args) if bulk else getattr(oracles, name)(stream, *args)


def assert_bulk_matches_oracle(helper: str, seed: int, n: int) -> None:
    bulk, scalar = Stream(seed), Stream(seed)
    got, want = draw(helper, bulk, n, True), draw(helper, scalar, n, False)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert bulk.get_state() == scalar.get_state()


@pytest.mark.parametrize("n", BULK_SIZES)
@pytest.mark.parametrize("helper", HELPERS)
def test_bulk_draws_equal_scalar_loops(helper, n):
    assert_bulk_matches_oracle(helper, 1000 + n, n)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=20_000), st.sampled_from(HELPERS))
@settings(max_examples=25, deadline=None)
def test_bulk_draws_equal_scalar_loops_sweep(seed, n, helper):
    assert_bulk_matches_oracle(helper, seed, n)


def test_bulk_known_outputs_from_state_1_2_3_4():
    bulk, scalar = Stream(0), Stream(0)
    bulk.set_state((1, 2, 3, 4))
    scalar.set_state((1, 2, 3, 4))
    n = 2 * CUTOFF + 3
    got, = rng._bulk_u64([bulk], n)
    assert got[:3].tolist() == [11520, 0, 1509978240]
    assert got.tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk.get_state() == scalar.get_state()


def test_bulk_bounded_draws_follow_randbelow_rejections():
    # randbelow(2^63 + 1) rejects every draw >= 2^63 + 1, about half of them,
    # so five streams drawing together reject at different positions
    bound = 2**63 + 1
    n = 2 * CUTOFF
    bulk, scalar, plain = ([Stream(77 + s) for s in range(5)] for _ in range(3))
    got = rng._bulk_below(bulk, np.full(n, bound, dtype=np.uint64))
    assert got.shape == (5, n) and got.dtype == np.uint64
    firsts = set()
    for row, b, s, p in zip(got, bulk, scalar, plain):
        assert row.tolist() == [s.randbelow(bound) for _ in range(n)]
        assert b.get_state() == s.get_state()
        draws, = rng._bulk_u64([p], n)
        assert p.get_state() != s.get_state()  # rejections did happen
        firsts.add(int(np.argmax(draws >= bound)))
    assert len(firsts) > 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 511, 1600, 5000])
def test_permutation_equals_the_downward_swap_loop(n):
    for seed in range(3):
        assert_bulk_matches_oracle("permutation", seed, n)


@pytest.mark.parametrize("n", [100, 600])
@pytest.mark.parametrize("helper", HELPERS)
def test_bulk_draws_keep_a_pending_normal(helper, n):
    # after an odd number of normal() calls the Box-Muller spare is pending:
    # the bulk helpers, below and past the lane cutoff, neither read the
    # state through get_state() nor drop the spare
    bulk, scalar = Stream(31 + n), Stream(31 + n)
    assert bulk.normal() == scalar.normal()
    got, want = draw(helper, bulk, n, True), draw(helper, scalar, n, False)
    assert got.tobytes() == want.tobytes()
    assert bulk.normal() == scalar.normal()       # the pending spare
    assert bulk.get_state() == scalar.get_state()
    bulk.normal()
    with pytest.raises(RuntimeError, match="cached normal pending"):
        bulk.get_state()                           # a checkpoint still refuses it


def test_string_ids_fold_as_their_bytes():
    # string ids are folded once per process; the cached value must be the
    # byte-by-byte fold, whatever order the ids first appear in
    for seed in (0, 7, 2**64 - 1):
        for ids in [("mask", 0, 3), ("init", 2, 1), ("topo", 1, 4), ("synthetic", "rings"),
                    ("epoch", 46), ("", "é", 2**70), ("mask", "mask")]:
            assert Stream(seed).child(*ids).seed == oracles.child_seed(seed, ids)


@pytest.mark.parametrize("helper, args", [
    ("choice_without_replacement", (262_144, 26_214)),   # a 512x512 mask at density 0.1
    ("uniforms", (262_144,)),                            # a 512x512 layer's weights
    ("uniforms", (100_352,)),                            # a 196x512 layer's weights
])
def test_wide_layer_draws_equal_scalar_loops(helper, args):
    bulk, scalar = Stream(2024), Stream(2024)
    got, want = getattr(bulk, helper)(*args), getattr(oracles, helper)(scalar, *args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert bulk.get_state() == scalar.get_state()


# -- many streams drawing together against each stream alone ----------------

MANY_SIZES = [0, 1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1, 1600, 5000]
# 47 is configs/rings.json's epochs; "group" is how many streams of n - 1
# draws (a permutation of n) one group of lane columns steps
STREAM_COUNTS = [1, 2, 5, 47, "group-1", "group", "group+1"]


def streams(count, n: int, seed: int) -> list:
    if isinstance(count, str):
        count = rng._group_size(max(n - 1, 0)) + int(count[len("group"):] or 0)
    return [Stream(seed).child("epoch", s) for s in range(count)]


@pytest.mark.parametrize("count", STREAM_COUNTS)
@pytest.mark.parametrize("n", MANY_SIZES)
def test_many_streams_draw_as_each_alone(n, count):
    together, alone, scalar = (streams(count, n, 5 + n) for _ in range(3))
    got = rng._bulk_u64(together, n)
    assert got.shape == (len(together), n) and got.dtype == np.uint64
    for row, t, a, s in zip(got, together, alone, scalar):
        assert row.tobytes() == rng._bulk_u64([a], n)[0].tobytes()
        assert row.tolist() == [s.next_u64() for _ in range(n)]
        assert t.get_state() == a.get_state() == s.get_state()


@pytest.mark.parametrize("count", STREAM_COUNTS)
@pytest.mark.parametrize("n", MANY_SIZES)
def test_many_streams_draw_below_bounds_as_each_alone(n, count):
    # bounds up to 5,000 * 3^30 ~ 1e18, where about 1 draw in 20 is rejected
    bounds = np.arange(n, 0, -1, dtype=np.uint64) * np.uint64(3**30)
    together, scalar = (streams(count, n, 6 + n) for _ in range(2))
    got = rng._bulk_below(together, bounds)
    assert got.shape == (len(together), n) and got.dtype == np.uint64
    for row, t, s in zip(got, together, scalar):
        assert row.tolist() == [s.randbelow(int(m)) for m in bounds.tolist()]
        assert t.get_state() == s.get_state()


@pytest.mark.parametrize("count", STREAM_COUNTS)
@pytest.mark.parametrize("n", MANY_SIZES)
def test_many_streams_permute_as_each_alone(n, count):
    together, alone, scalar = (streams(count, n, 7 + n) for _ in range(3))
    got = rng.permutations(together, n)
    assert got.shape == (len(together), n) and got.dtype == np.int64
    for row, t, a, s in zip(got, together, alone, scalar):
        assert row.tobytes() == a.permutation(n).tobytes()
        assert row.tobytes() == oracles.permutation(s, n).tobytes()
        assert t.get_state() == a.get_state() == s.get_state()


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n", [0, 1, 2, CUTOFF - 1])
def test_local_state_loop_equals_next_u64(n, count, spare):
    together, scalar = (streams(count, n, 40 + n) for _ in range(2))
    if spare:
        for t, s in zip(together, scalar):
            assert t.normal() == s.normal()
    got = rng._bulk_u64(together, n)
    assert got.shape == (count, n) and got.dtype == np.uint64
    for row, t, s in zip(got, together, scalar):
        assert row.tolist() == [s.next_u64() for _ in range(n)]
        assert (t._s0, t._s1, t._s2, t._s3) == (s._s0, s._s1, s._s2, s._s3)
        assert t._gauss_spare == s._gauss_spare
        assert (t._gauss_spare is None) != spare


# -- the partial Fisher-Yates resolver against the swap walk ------------------

@st.composite
def swap_targets(draw) -> np.ndarray:
    """Targets swaps[i] in [i, n) for k <= n steps: anywhere, every step on
    its own position, or every target inside the first k positions, where
    values travel down long chains of earlier steps."""
    n = draw(st.integers(min_value=0, max_value=40))
    k = draw(st.integers(min_value=0, max_value=n))
    kind = draw(st.sampled_from(["any", "own", "prefix"]))
    if kind == "own":
        return np.arange(k, dtype=np.int64)
    end = n if kind == "any" else k
    return np.array([draw(st.integers(min_value=i, max_value=end - 1)) for i in range(k)],
                    dtype=np.int64)


def assert_resolver_matches_walk(swaps: np.ndarray) -> None:
    got = rng._shuffled_prefix(swaps)
    assert got.dtype == np.int64
    assert got.tolist() == oracles.shuffled_prefix(swaps).tolist()


@given(swap_targets())
@example(np.array([], dtype=np.int64))
@example(np.array([0], dtype=np.int64))
@example(np.array([1, 1], dtype=np.int64))
@example(np.array([2, 2, 2], dtype=np.int64))
@example(np.array([1, 2, 2], dtype=np.int64))
@settings(max_examples=200, deadline=None)
def test_resolver_equals_the_swap_walk(swaps):
    assert_resolver_matches_walk(swaps)


@pytest.mark.parametrize("k", [1000, 5000])
def test_resolver_follows_long_chains(k):
    # k = n with every target in [i, k); then the rotation swaps[i] = i + 1,
    # which carries position 0's value down a chain through every step
    assert_resolver_matches_walk(np.random.default_rng(k).integers(np.arange(k), k))
    assert_resolver_matches_walk(np.minimum(np.arange(k) + 1, k - 1))


def test_resolver_rejects_keys_past_int64():
    with pytest.raises(ValueError, match="overflow"):
        rng._shuffled_prefix(np.array([2**62, 2**62], dtype=np.int64))


class TestDrawMemory:
    """A wide layer's set-up draws, and a run's epoch orders, hold a few
    copies of their output at most."""

    @staticmethod
    def peak_over_output(draw) -> float:
        draw()   # builds the jump matrices this size needs, kept for the process
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = draw()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / out.nbytes

    def test_uniforms_peak_is_under_four_outputs(self):
        assert self.peak_over_output(lambda: Stream(1).uniforms(262_144)) < 4

    def test_mask_picks_peak_is_under_twelve_outputs(self):
        draw = lambda: Stream(1).choice_without_replacement(262_144, 26_214)  # noqa: E731
        assert self.peak_over_output(draw) < 12

    def test_a_runs_epoch_orders_peak_is_under_four_outputs(self):
        # configs/rings.json's 47 epochs of 1,600: the streams draw in groups,
        # so the lane set-up of all 47 at once is never held
        epochs = [Stream(3).child("epoch", e) for e in range(47)]
        assert self.peak_over_output(lambda: rng.permutations(epochs, 1600)) < 4
