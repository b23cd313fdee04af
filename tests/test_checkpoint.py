import numpy as np
import pytest

from sparsetrails.checkpoint import (CheckpointError, capture, load_checkpoint,
                                     restore, save_checkpoint)
from sparsetrails.data import gen_synthetic
from sparsetrails.model import build_trails, mlp_spec
from sparsetrails.topology import TopologySchedule
from sparsetrails.train import Optimizer, TrainConfig, count_flops, fit


def trained_state(seed=0, steps=15):
    data = gen_synthetic("rings", 48, noise=0.2, seed=1)
    spec = mlp_spec(2, 6, 2, 2)
    model = build_trails(spec, 1, 2, 0.5, seed=seed)
    config = TrainConfig(total_steps=steps, batch_size=16, eval_interval=steps,
                         lr=0.05, seed=seed,
                         topology=TopologySchedule(strategy="set", delta_t=5))
    optimizer = Optimizer(config, model.named_parameters())
    ledger = count_flops(model)
    fit(model, data, data, config, optimizer=optimizer, ledger=ledger)
    return model, optimizer, ledger, config, data


class TestRoundTrip:
    def test_save_load_equal_tensors_masks_state(self, tmp_path):
        model, optimizer, ledger, _, _ = trained_state()
        ckpt = capture(model, optimizer, ledger, step=15, config_hash="ab" * 32)
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.step == 15
        assert loaded.config_hash == "ab" * 32
        assert loaded.cumulative_flops == ledger.cumulative_train
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        for name, mask in ckpt.masks.items():
            np.testing.assert_array_equal(loaded.masks[name], mask)
        for name, arr in ckpt.opt_state.items():
            np.testing.assert_array_equal(loaded.opt_state[name], arr)
        assert loaded.rng_states == ckpt.rng_states

    def test_restore_into_fresh_objects(self, tmp_path):
        model, optimizer, ledger, config, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))

        fresh = build_trails(mlp_spec(2, 6, 2, 2), 1, 2, 0.5, seed=99)
        fresh_opt = Optimizer(config, fresh.named_parameters())
        fresh_ledger = count_flops(fresh)
        step = restore(load_checkpoint(str(path)), fresh, fresh_opt, fresh_ledger)
        assert step == 15
        for a, b in zip(model.named_parameters(), fresh.named_parameters()):
            assert a.array.tobytes() == b.array.tobytes()
            if a.mask is not None:
                assert a.mask.tobytes() == b.mask.tobytes()
        assert fresh_ledger.cumulative_train == ledger.cumulative_train
        assert fresh_ledger.forward_sparse == ledger.forward_sparse
        for (comp, layer), stream in model.topo_streams.items():
            assert fresh.topo_streams[(comp, layer)].get_state() == stream.get_state()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        # checkpoint captured mid-run, then resumed under the same horizon
        data = gen_synthetic("rings", 48, noise=0.2, seed=1)
        spec = mlp_spec(2, 6, 2, 2)
        path = tmp_path / "mid.bin"

        def config():
            return TrainConfig(total_steps=30, batch_size=16, eval_interval=5,
                               lr=0.05, seed=3,
                               topology=TopologySchedule(strategy="set", delta_t=5))

        def snapshot(step, mdl, opt, ledg):
            if step == 15:
                save_checkpoint(capture(mdl, opt, ledg, step, "00" * 32), str(path))
            return None

        straight = build_trails(spec, 1, 2, 0.5, seed=3)
        opt_a = Optimizer(config(), straight.named_parameters())
        ledger_a = count_flops(straight)
        hist_a = fit(straight, data, data, config(), optimizer=opt_a,
                     ledger=ledger_a, on_checkpoint=snapshot)

        resumed = build_trails(spec, 1, 2, 0.5, seed=777)  # wrong init, overwritten
        cfg_rest = config()
        opt_c = Optimizer(cfg_rest, resumed.named_parameters())
        ledger_c = count_flops(resumed)
        start = restore(load_checkpoint(str(path)), resumed, opt_c, ledger_c)
        assert start == 15
        hist_c = fit(resumed, data, data, cfg_rest, start_step=start,
                     optimizer=opt_c, ledger=ledger_c)

        tail_a = [e for e in hist_a.evals if e.step > 15]
        assert [e.accuracy for e in tail_a] == [e.accuracy for e in hist_c.evals]
        assert [e.nll for e in tail_a] == [e.nll for e in hist_c.evals]
        for a, b in zip(straight.named_parameters(), resumed.named_parameters()):
            assert a.array.tobytes() == b.array.tobytes()


class TestCanonicalZero:
    @pytest.mark.parametrize("kind, strategy, prune_method", [
        ("sgd_momentum", "rigl", "magnitude"),
        ("adam", "set", "soft_magnitude"),
        ("sgd_momentum", "prune_oneshot", "magnitude"),
    ])
    def test_masked_entries_are_positive_zero_and_reload_bit_exact(
            self, tmp_path, kind, strategy, prune_method):
        data = gen_synthetic("rings", 48, noise=0.2, seed=1)
        oneshot = strategy == "prune_oneshot"
        model = build_trails(mlp_spec(2, 6, 2, 2), 1, 2, 0.0 if oneshot else 0.5, seed=0)
        config = TrainConfig(total_steps=20, batch_size=16, eval_interval=20, lr=0.05,
                             optimizer=kind, seed=0,
                             topology=TopologySchedule(strategy=strategy,
                                                       prune_method=prune_method,
                                                       delta_t=5))
        optimizer = Optimizer(config, model.named_parameters())
        ledger = count_flops(model)
        fit(model, data, data, config, sparsity_target=0.5 if oneshot else None,
            optimizer=optimizer, ledger=ledger)
        ckpt = capture(model, optimizer, ledger, 20, "00" * 32)
        masked_entries = 0
        for name, mask in ckpt.masks.items():
            masked = mask == 0
            masked_entries += int(masked.sum())
            for arr in [ckpt.params[name]] + [ckpt.opt_state[f"{name}@{slot}"]
                                               for slot in Optimizer.SLOTS[kind]]:
                assert not np.signbit(arr[masked]).any(), name
        assert masked_entries > 0
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        for part in ("params", "masks", "opt_state"):
            for key, arr in getattr(ckpt, part).items():
                assert getattr(loaded, part)[key].tobytes() == arr.tobytes(), key


class TestRejection:
    def test_every_flipped_bit_is_rejected(self, tmp_path):
        model, optimizer, ledger, _, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        data = path.read_bytes()
        flipped = tmp_path / "flipped.bin"
        for offset in range(len(data)):
            corrupt = bytearray(data)
            corrupt[offset] ^= 1 << (offset % 8)
            flipped.write_bytes(bytes(corrupt))
            with pytest.raises(CheckpointError):
                load_checkpoint(str(flipped))

    def test_truncated_file_names_section(self, tmp_path):
        model, optimizer, ledger, _, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        data = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(data[:len(data) // 3])
        with pytest.raises(CheckpointError, match="truncated in section"):
            load_checkpoint(str(clipped))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + bytes(100))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        model, optimizer, ledger, _, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version word
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_restore_rejects_mismatched_model(self, tmp_path):
        model, optimizer, ledger, config, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        other = build_trails(mlp_spec(2, 6, 3, 2), 1, 2, 0.5, seed=0)
        other_opt = Optimizer(config, other.named_parameters())
        with pytest.raises(CheckpointError, match="do not match"):
            restore(load_checkpoint(str(path)), other, other_opt, count_flops(other))

    def _restore_into_fresh(self, tmp_path, corrupt):
        """Save a trained state, corrupt the loaded checkpoint, restore it fresh."""
        model, optimizer, ledger, config, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        ckpt = load_checkpoint(str(path))
        corrupt(ckpt)
        fresh = build_trails(mlp_spec(2, 6, 2, 2), 1, 2, 0.5, seed=99)
        restore(ckpt, fresh, Optimizer(config, fresh.named_parameters()), count_flops(fresh))

    def test_restore_rejects_misshapen_optimizer_slot(self, tmp_path):
        def corrupt(ckpt):
            ckpt.opt_state["head0/2/weight@momentum"] = np.ones(1, dtype=np.float32)
        with pytest.raises(CheckpointError, match=r"head0/2/weight@momentum has shape \(1,\)"):
            self._restore_into_fresh(tmp_path, corrupt)

    def test_restore_rejects_missing_mask(self, tmp_path):
        def corrupt(ckpt):
            del ckpt.masks["backbone/0/weight"]
        with pytest.raises(CheckpointError, match="missing mask backbone/0/weight"):
            self._restore_into_fresh(tmp_path, corrupt)

    def test_restore_rejects_nonzero_weight_at_masked_position(self, tmp_path):
        def put(value):
            def corrupt(ckpt):
                name = next(n for n, m in ckpt.masks.items() if not m.all())
                ckpt.params[name][ckpt.masks[name] == 0] = value
            return corrupt
        self._restore_into_fresh(tmp_path, put(-0.0))  # -0.0 is zero
        with pytest.raises(CheckpointError, match="nonzero where its mask is 0"):
            self._restore_into_fresh(tmp_path, put(1e-30))
