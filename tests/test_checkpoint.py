import copy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsetrails.checkpoint import (CheckpointError, capture, load_checkpoint,
                                     restore, save_checkpoint)
from sparsetrails.data import gen_synthetic
from sparsetrails.model import build_trails, mlp_spec
from sparsetrails.nn import active_indices
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
        # a masked weight is held as its active entries, 1-D in the order of
        # its mask's 1s
        for ref in model.component_parameters():
            if ref.mask is not None:
                at = active_indices(loaded.masks[ref.name])
                assert loaded.params[ref.name].shape == (int(np.count_nonzero(ref.mask)),)
                assert loaded.params[ref.name].tobytes() \
                    == ref.array.reshape(-1)[at].tobytes(), ref.name
        for name, arr in ckpt.opt_state.items():
            np.testing.assert_array_equal(loaded.opt_state[name], arr)
        assert loaded.rng_states == ckpt.rng_states

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_restoring_a_fresh_capture_into_its_objects_changes_no_byte(self, kind):
        # a capture's biases and slots are views of the buffers restore
        # writes: it must copy them out before it writes the store +0.0
        model, optimizer, ledger = trained_state()[:3] if kind == "sgd_momentum" \
            else older_file_run(seed=4)
        assert optimizer.kind == kind
        assert any(ref.array.any() for ref in model.component_parameters() if ref.mask is None)

        def state():
            return [model.store.values.tobytes(), model.store.mask.tobytes(),
                    optimizer.active.tobytes(),
                    *(arr.tobytes() for arr in optimizer.slots.values())]

        before = state()
        step = restore(capture(model, optimizer, ledger, 20, "00" * 32), model, optimizer, ledger)
        assert step == 20 and state() == before

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
        for key, stream in model.topo_streams.items():
            assert fresh.topo_streams[key].get_state() == stream.get_state()

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

    def test_a_deep_copy_of_a_capture_outlives_the_steps_after_it(self):
        # a capture holds views of the live store and optimizer slots, so a
        # kept one must be copied before the run steps on
        data = gen_synthetic("rings", 48, noise=0.2, seed=1)
        spec = mlp_spec(2, 6, 2, 2)
        config = TrainConfig(total_steps=7, batch_size=16, eval_interval=7, lr=0.05, seed=3,
                             topology=TopologySchedule(strategy="rigl", delta_t=2))
        kept = []

        def snapshot(step, mdl, opt, ledg):
            if step == 4:
                kept.append(copy.deepcopy(capture(mdl, opt, ledg, step, "00" * 32)))

        straight = build_trails(spec, 1, 2, 0.5, seed=3)
        fit(straight, data, data, config, on_checkpoint=snapshot)
        resumed = build_trails(spec, 1, 2, 0.5, seed=3)
        optimizer, ledger = Optimizer(config, resumed.named_parameters()), count_flops(resumed)
        start = restore(kept[0], resumed, optimizer, ledger)
        assert start == 4
        fit(resumed, data, data, config, start_step=start, optimizer=optimizer, ledger=ledger)
        for a, b in zip(straight.named_parameters(), resumed.named_parameters()):
            assert a.array.tobytes() == b.array.tobytes(), a.name

    def test_rigl_resume_into_a_differently_seeded_model_is_bit_exact(self, tmp_path):
        # the fresh model's masks differ from the checkpoint's, so restore
        # must rebuild the optimizer's active indices from the restored masks
        data = gen_synthetic("rings", 48, noise=0.2, seed=1)
        spec = mlp_spec(2, 6, 2, 2)
        path = tmp_path / "mid.bin"

        def config():
            return TrainConfig(total_steps=30, batch_size=16, eval_interval=5,
                               lr=0.05, seed=3,
                               topology=TopologySchedule(strategy="rigl", delta_t=5,
                                                         initial_drop_fraction=0.4))

        def snapshot(step, mdl, opt, ledg):
            if step == 15:
                save_checkpoint(capture(mdl, opt, ledg, step, "00" * 32), str(path))

        straight = build_trails(spec, 1, 2, 0.6, seed=3)
        opt_a = Optimizer(config(), straight.named_parameters())
        hist_a = fit(straight, data, data, config(), optimizer=opt_a,
                     ledger=count_flops(straight), on_checkpoint=snapshot)

        resumed = build_trails(spec, 1, 2, 0.6, seed=778)
        assert any(a.mask is not None and a.mask.tobytes() != b.mask.tobytes()
                   for a, b in zip(straight.named_parameters(), resumed.named_parameters()))
        opt_c = Optimizer(config(), resumed.named_parameters())
        ledger_c = count_flops(resumed)
        start = restore(load_checkpoint(str(path)), resumed, opt_c, ledger_c)
        hist_c = fit(resumed, data, data, config(), start_step=start,
                     optimizer=opt_c, ledger=ledger_c)

        assert [u.to_json() for u in hist_a.updates if u.step > 15] \
            == [u.to_json() for u in hist_c.updates]
        tail_a = [e for e in hist_a.evals if e.step > 15]
        assert [(e.accuracy, e.nll) for e in tail_a] \
            == [(e.accuracy, e.nll) for e in hist_c.evals]
        state_a, state_c = opt_a.state, opt_c.state
        for a, b in zip(straight.named_parameters(), resumed.named_parameters()):
            assert a.array.tobytes() == b.array.tobytes(), a.name
            if a.mask is not None:
                assert a.mask.tobytes() == b.mask.tobytes(), a.name
            assert state_a[a.name]["momentum"].tobytes() \
                == state_c[b.name]["momentum"].tobytes(), a.name


# written by the package before its parameter store (commit 2a383d6), when
# the optimizer kept its state per parameter: the run of `older_file_run`
OLDER_FILE = Path(__file__).parent / "data" / "rings_adam_rigl_step20.bin"


def older_file_run(seed):
    """A model with a sparse backbone and three stacked heads, its Adam
    optimizer and ledger; trained for 20 RigL steps if seed is 4."""
    data = gen_synthetic("rings", 60, noise=0.2, seed=2)
    model = build_trails(mlp_spec(2, 6, 3, 2), 1, 3, 0.5, seed=seed)
    config = TrainConfig(total_steps=20, batch_size=16, eval_interval=20, optimizer="adam",
                         lr=0.01, seed=seed,
                         topology=TopologySchedule(strategy="rigl", delta_t=5))
    optimizer, ledger = Optimizer(config, model.named_parameters()), count_flops(model)
    if seed == 4:
        fit(model, data, data, config, optimizer=optimizer, ledger=ledger)
    return model, optimizer, ledger


class TestOlderFiles:
    def test_the_same_run_writes_the_same_bytes(self, tmp_path):
        model, optimizer, ledger = older_file_run(seed=4)
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 20, "5a" * 32), str(path))
        assert path.read_bytes() == OLDER_FILE.read_bytes()

    def test_loads_and_saves_back_bit_for_bit(self, tmp_path):
        model, optimizer, ledger = older_file_run(seed=99)
        ckpt = load_checkpoint(str(OLDER_FILE))
        step = restore(ckpt, model, optimizer, ledger)
        assert step == 20 and optimizer.adam_t == 20
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, step, ckpt.config_hash), str(path))
        assert path.read_bytes() == OLDER_FILE.read_bytes()


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
        masked = model.store.mask == 0
        assert masked.any()
        assert not np.signbit(model.store.values[masked]).any()
        ckpt = capture(model, optimizer, ledger, 20, "00" * 32)
        for name, mask in ckpt.masks.items():
            # the optimizer keeps state for the active entries only
            for slot in Optimizer.SLOTS[kind]:
                assert ckpt.opt_state[f"{name}@{slot}"].shape == (int(mask.sum()),), name
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        for part in ("params", "masks", "opt_state"):
            for key, arr in getattr(ckpt, part).items():
                assert getattr(loaded, part)[key].tobytes() == arr.tobytes(), key


class TestRestoreClosure:
    def test_masked_positions_become_positive_zero_whatever_the_store_held(self, tmp_path):
        # the fresh store holds 1.5 and -0.0 at positions the checkpoint
        # masks: restore overwrites them without scanning for them
        model, optimizer, ledger, config, _ = trained_state()
        path = tmp_path / "c.bin"
        save_checkpoint(capture(model, optimizer, ledger, 15, "00" * 32), str(path))
        ckpt = load_checkpoint(str(path))
        fresh = build_trails(mlp_spec(2, 6, 2, 2), 1, 2, 0.5, seed=99)
        for ref in fresh.component_parameters():
            if ref.mask is not None:
                masked = np.flatnonzero(ckpt.masks[ref.name].reshape(-1) == 0)
                ref.array.reshape(-1)[masked[::2]] = 1.5
                ref.array.reshape(-1)[masked[1::2]] = -0.0
        dirty = fresh.store.values[model.store.mask == 0]
        assert (dirty == 1.5).any() and np.signbit(dirty).any()
        restore(ckpt, fresh, Optimizer(config, fresh.named_parameters()), count_flops(fresh))
        assert fresh.store.values.tobytes() == model.store.values.tobytes()
        assert fresh.store.mask.tobytes() == model.store.mask.tobytes()
        masked = fresh.store.values[fresh.store.mask == 0]
        assert masked.size and (masked == 0).all() and not np.signbit(masked).any()


class TestSaveMemory:
    def test_save_holds_the_file_less_than_once_more(self, tmp_path):
        # two heads of 512x512 at density 0.1, as in the wide workload: the
        # save writes its chunks one by one instead of joining them, so it
        # never holds the file's bytes twice
        data = gen_synthetic("rings", 32, noise=0.2, seed=3)
        model = build_trails(mlp_spec(2, 512, 1, 2), 0, 2, 0.9, allocation="uniform", seed=1)
        config = TrainConfig(total_steps=2, batch_size=16, eval_interval=2,
                             topology=TopologySchedule(strategy="rigl", delta_t=100))
        optimizer, ledger = Optimizer(config, model.named_parameters()), count_flops(model)
        fit(model, data, data, config, optimizer=optimizer, ledger=ledger)
        assert model.head_stack[0].weight.values[0].shape == (512, 512)
        path = tmp_path / "c.bin"
        ckpt = capture(model, optimizer, ledger, 2, "00" * 32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_checkpoint(ckpt, str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 200_000
        assert peak < 1.5 * path.stat().st_size


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

    @pytest.mark.parametrize("flip", ["one-more", "one-fewer"])
    def test_restore_rejects_a_mask_whose_count_disagrees_with_its_entries(
            self, tmp_path, flip):
        # the mask alone says where a masked weight's entries go: one bit more
        # or fewer leaves its entries one short or one over
        def corrupt(ckpt):
            bits = ckpt.masks["head1/0/weight"].reshape(-1)
            bits[np.flatnonzero(bits == (1 if flip == "one-fewer" else 0))[0]] ^= 1
        with pytest.raises(CheckpointError, match=r"parameter head1/0/weight has shape"):
            self._restore_into_fresh(tmp_path, corrupt)

    @pytest.mark.parametrize("form", ["short", "dense"])
    def test_restore_rejects_a_masked_weight_of_the_wrong_length(self, tmp_path, form):
        def corrupt(ckpt):
            name = "head1/0/weight"
            values = ckpt.params[name]
            ckpt.params[name] = values[:-1] if form == "short" \
                else np.zeros(ckpt.masks[name].shape, np.float32)
        with pytest.raises(CheckpointError, match=r"parameter head1/0/weight has shape"):
            self._restore_into_fresh(tmp_path, corrupt)
