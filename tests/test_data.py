import struct

import numpy as np
import pytest

from sparsetrails.data import (BatchPlan, apply_normalization, batches,
                               gen_synthetic, load_idx, normalize, split, to_csv,
                               write_idx)


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


class TestSplitAndNormalize:
    def test_split_is_deterministic_partition(self):
        ds = gen_synthetic("two_clusters", 50, 0.2, seed=9)
        a_train, a_test = split(ds, 0.2, seed=4)
        b_train, b_test = split(ds, 0.2, seed=4)
        assert len(a_test) == 10 and len(a_train) == 40
        assert a_train.inputs.tobytes() == b_train.inputs.tobytes()
        assert a_test.inputs.tobytes() == b_test.inputs.tobytes()

    def test_normalize_centers_training_features(self):
        ds = gen_synthetic("rings", 400, 0.1, seed=10)
        normed = normalize(ds)
        flat = normed.inputs.reshape(len(ds), -1)
        assert np.all(np.abs(flat.mean(axis=0)) < 1e-3)
        assert np.all(np.abs(flat.std(axis=0) - 1.0) < 1e-3)

    def test_apply_normalization_reuses_stats(self):
        train, test = split(gen_synthetic("rings", 100, 0.1, seed=11), 0.2, seed=1)
        train_n = normalize(train)
        test_n = apply_normalization(test, train_n)
        manual = (test.inputs - train_n.norm_mean) / train_n.norm_std
        np.testing.assert_allclose(test_n.inputs, manual, rtol=1e-5)


class TestBatches:
    def test_partition_covers_all_indices_once(self):
        ds = gen_synthetic("two_clusters", 4, 0.1, seed=0)
        got = batches(ds, BatchPlan(batch_size=2, shuffle_seed=1), epoch=0)
        assert len(got) == 2
        assert sorted(np.concatenate(got).tolist()) == [0, 1, 2, 3]

    def test_drop_last(self):
        ds = gen_synthetic("two_clusters", 5, 0.1, seed=0)
        got = batches(ds, BatchPlan(batch_size=2, shuffle_seed=1, drop_last=True), 0)
        assert len(got) == 2 and all(len(b) == 2 for b in got)

    def test_oversized_batch_with_drop_last_rejected(self):
        ds = gen_synthetic("two_clusters", 3, 0.1, seed=0)
        with pytest.raises(ValueError, match="batch size"):
            batches(ds, BatchPlan(batch_size=4, shuffle_seed=0, drop_last=True), 0)

    def test_epochs_permute_but_cover_same_multiset(self):
        ds = gen_synthetic("two_clusters", 64, 0.1, seed=0)
        plan = BatchPlan(batch_size=16, shuffle_seed=3)
        e0 = np.concatenate(batches(ds, plan, 0))
        e1 = np.concatenate(batches(ds, plan, 1))
        assert sorted(e0.tolist()) == sorted(e1.tolist())
        assert e0.tolist() != e1.tolist()


def test_csv_export_roundtrips_values(tmp_path):
    ds = gen_synthetic("xor_grid", 10, 0.1, seed=7)
    path = tmp_path / "out.csv"
    to_csv(ds, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "f0,f1,label"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(float(ds.inputs[0, 0]))
    assert int(first[2]) == int(ds.labels[0])
