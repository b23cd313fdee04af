import struct

import numpy as np
import pytest

from sparsetrails.data import (Dataset, batches, gen_synthetic, load_idx, normalize, split,
                               write_idx)

import oracles


def write_pair(tmp_path, images: bytes, labels: bytes):
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    return str(ip), str(lp)


class TestLoadIdx:
    def test_minimal_pair(self, tmp_path):
        images = struct.pack(">IIII", 0x803, 2, 1, 1) + bytes([0, 255])
        labels = struct.pack(">II", 0x801, 2) + bytes([0, 1])
        ds = load_idx(*write_pair(tmp_path, images, labels))
        assert len(ds) == 2
        assert ds.inputs.shape == (2, 1, 1, 1)
        np.testing.assert_allclose(ds.inputs.reshape(-1), [0.0, 1.0])
        assert ds.labels.tolist() == [0, 1]

    def test_count_mismatch_names_both_counts(self, tmp_path):
        images = struct.pack(">IIII", 0x803, 2, 1, 1) + bytes([0, 0])
        labels = struct.pack(">II", 0x801, 3) + bytes([0, 0, 0])
        with pytest.raises(ValueError, match="2 images vs 3 labels"):
            load_idx(*write_pair(tmp_path, images, labels))

    def test_empty_file_rejected_at_offset_zero(self, tmp_path):
        with pytest.raises(ValueError, match="offset 0"):
            load_idx(*write_pair(tmp_path, b"", b""))

    def test_bad_magic_rejected(self, tmp_path):
        images = struct.pack(">IIII", 0x804, 1, 1, 1) + bytes([0])
        labels = struct.pack(">II", 0x801, 1) + bytes([0])
        with pytest.raises(ValueError, match="bad IDX magic"):
            load_idx(*write_pair(tmp_path, images, labels))

    def test_truncated_payload_names_offset(self, tmp_path):
        images = struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(5)  # needs 8
        labels = struct.pack(">II", 0x801, 2) + bytes([0, 0])
        with pytest.raises(ValueError, match="offset 16"):
            load_idx(*write_pair(tmp_path, images, labels))

    def test_roundtrip_payload_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        images = struct.pack(">IIII", 0x803, 5, 3, 4) + raw.tobytes()
        labels = struct.pack(">II", 0x801, 5) + bytes([0, 1, 0, 1, 1])
        ip, lp = write_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        ip2, lp2 = str(tmp_path / "i2.idx"), str(tmp_path / "l2.idx")
        write_idx(ds, ip2, lp2)
        assert (tmp_path / "i2.idx").read_bytes() == images
        assert (tmp_path / "l2.idx").read_bytes() == labels


class TestSynthetic:
    def test_balance_forced(self):
        ds = gen_synthetic("two_clusters", 4, noise=0.3, seed=0)
        assert np.bincount(ds.labels).tolist() == [2, 2]

    def test_odd_count_differs_by_at_most_one(self):
        ds = gen_synthetic("xor_grid", 101, noise=0.0, seed=1)
        counts = np.bincount(ds.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_noiseless_rings_lie_on_circles(self):
        ds = gen_synthetic("rings", 40, noise=0.0, seed=2)
        radii = np.linalg.norm(ds.inputs, axis=1)
        expected = np.where(ds.labels == 0, 1.0, 2.0)
        np.testing.assert_allclose(radii, expected, rtol=1e-6)

    def test_same_seed_identical(self):
        a = gen_synthetic("rings", 30, noise=0.2, seed=5)
        b = gen_synthetic("rings", 30, noise=0.2, seed=5)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            gen_synthetic("spiral", 10, 0.1, 0)

    def test_xor_grid_labels_match_quadrants_when_noiseless(self):
        ds = gen_synthetic("xor_grid", 64, noise=0.0, seed=3)
        want = (np.sign(ds.inputs[:, 0]) != np.sign(ds.inputs[:, 1])).astype(int)
        np.testing.assert_array_equal(ds.labels, want)


class TestSyntheticBytes:
    """The bulk draw gives the per-point loop's bytes: even and odd n on both
    sides of the lane cutoff, several seeds and noise levels, noise 0 too."""

    @pytest.mark.parametrize("n", [2, 3, 37, 511, 513, 1001, 2000])
    @pytest.mark.parametrize("kind", ["rings", "two_clusters", "xor_grid"])
    def test_bulk_draw_equals_the_per_point_loop(self, kind, n):
        for seed in (0, 1, 2**64 - 1):
            for noise in (0.0, 0.3, 2.5):
                got = gen_synthetic(kind, n, noise, seed)
                want = oracles.gen_synthetic(kind, n, noise, seed)
                assert got.inputs.dtype == want.inputs.dtype == np.float32
                assert got.labels.dtype == want.labels.dtype == np.int64
                assert got.inputs.tobytes() == want.inputs.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()

    @pytest.mark.parametrize("n", [1001, 2001])
    def test_odd_rings_past_the_lane_cutoff_build(self, n):
        # the per-point loop leaves a normal pending before the closing
        # permutation, which then draws on the lane path
        ds = gen_synthetic("rings", n, 0.3, seed=0)
        assert len(ds) == n and np.bincount(ds.labels).tolist() == [(n + 1) // 2, n // 2]
        assert ds.inputs.tobytes() == oracles.gen_synthetic("rings", n, 0.3, 0).inputs.tobytes()


class TestSplitAndNormalize:
    def test_split_is_deterministic_partition(self):
        ds = gen_synthetic("two_clusters", 50, 0.2, seed=9)
        a_train, a_test = split(ds, 0.2, seed=4)
        b_train, b_test = split(ds, 0.2, seed=4)
        assert len(a_test) == 10 and len(a_train) == 40
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
        assert a_test.inputs.tobytes() == b_test.inputs.tobytes()

    def test_normalize_centers_training_features(self):
        train, test = split(gen_synthetic("rings", 400, 0.1, seed=10), 0.2, seed=0)
        normed, _ = normalize(train, test)
        flat = normed.inputs.reshape(len(train), -1)
        assert np.all(np.abs(flat.mean(axis=0)) < 1e-3)
        assert np.all(np.abs(flat.std(axis=0) - 1.0) < 1e-3)

    def test_both_splits_take_the_train_splits_float64_transform(self):
        train, test = split(gen_synthetic("rings", 2000, 0.1, seed=3), 0.2, seed=3)
        # a constant feature keeps std 1 instead of dividing by zero
        train.inputs[:, 1], test.inputs[:, 1] = 0.5, 0.25
        flat = train.inputs.astype(np.float64)
        mean, std = flat.mean(axis=0), flat.std(axis=0)
        std[std < 1e-12] = 1.0
        got = normalize(train, test)
        for part, out in zip((train, test), got):
            want = ((part.inputs.astype(np.float64) - mean) / std).astype(np.float32)
            assert out.inputs.tobytes() == want.tobytes()
            assert out.labels is part.labels and out.num_classes == 2
        # the float32-rounded stats would move the train split's entries
        rounded = ((flat - mean.astype(np.float32)) / std.astype(np.float32)).astype(np.float32)
        assert rounded.tobytes() != got[0].inputs.tobytes()


class TestBatches:
    def test_partition_covers_all_indices_once(self):
        ds = gen_synthetic("two_clusters", 4, 0.1, seed=0)
        got, = batches(ds, batch_size=2, seed=1, epochs=range(1))
        assert len(got) == 2
        assert sorted(np.concatenate(got).tolist()) == [0, 1, 2, 3]

    def test_drop_last(self):
        ds = gen_synthetic("two_clusters", 5, 0.1, seed=0)
        got, = batches(ds, 2, 1, range(1), drop_last=True)
        assert len(got) == 2 and all(len(b) == 2 for b in got)

    def test_oversized_batch_with_drop_last_rejected(self):
        ds = gen_synthetic("two_clusters", 3, 0.1, seed=0)
        with pytest.raises(ValueError, match="batch size"):
            batches(ds, 4, 0, range(1), drop_last=True)

    def test_epochs_permute_but_cover_same_multiset(self):
        ds = gen_synthetic("two_clusters", 64, 0.1, seed=0)
        e0, e1 = (np.concatenate(order) for order in batches(ds, 16, 3, range(2)))
        assert sorted(e0.tolist()) == sorted(e1.tolist())
        assert e0.tolist() != e1.tolist()

    @pytest.mark.parametrize("n, batch_size, epochs", [
        (2, 1, range(3)), (40, 16, range(0, 10)), (40, 16, range(4, 7)), (40, 16, range(5, 5)),
        (1600, 128, range(47)),     # configs/rings.json's whole run: 13 steps an epoch
        (1600, 128, range(40, 47)),
        (5000, 512, range(2, 9)),
    ])
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_every_epoch_equals_its_own_draw(self, n, batch_size, epochs, drop_last):
        ds = Dataset(inputs=np.zeros((n, 2), np.float32), labels=np.zeros(n, np.int64),
                     num_classes=1)
        got = batches(ds, batch_size, 21, epochs, drop_last)
        assert len(got) == len(epochs)
        for epoch, slices in zip(epochs, got):
            want = oracles.epoch_batches(ds, batch_size, 21, epoch, drop_last)
            assert [sel.dtype for sel in slices] == [sel.dtype for sel in want]
            assert [sel.tobytes() for sel in slices] == [sel.tobytes() for sel in want]