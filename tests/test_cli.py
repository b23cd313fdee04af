import builtins
import csv
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from sparsetrails import checkpoint, cli, train
from sparsetrails.checkpoint import capture, load_checkpoint, save_checkpoint
from sparsetrails.cli import (SUMMARY_COLUMNS, main, read_summary_final_row, run_eval,
                              run_experiment, run_sweep, write_summary)
from sparsetrails.config import make_model, make_train_config, resolve
from sparsetrails.data import Dataset, write_idx
from sparsetrails.train import Optimizer, count_flops

from conftest import BLAS_THREADS

RINGS_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "rings.json"


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 1,
        "out_dir": str(tmp_path / "run"),
        "dataset": {"kind": "rings", "n": 120, "noise": 0.2},
        "network": {"kind": "mlp", "input_dim": 2, "hidden_dim": 8,
                    "blocks": 2, "classes": 2},
        "split_index": 1,
        "heads": 2,
        "sparsity": 0.5,
        "topology": {"strategy": "set", "delta_t": 10},
        "train": {"total_steps": 30, "batch_size": 16, "lr": 0.05},
        "eval_interval": 15,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def diverging_rings(tmp_path, **overrides) -> Path:
    """The rings config at learning rate 30, which blows up at step 4 and
    gives a non-finite loss at step 5, saving a checkpoint every step."""
    cfg = json.loads(RINGS_CONFIG.read_text())
    cfg["train"]["lr"] = 30
    cfg.update(checkpoint_every=1, out_dir=str(tmp_path / "run"), **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def write_idx_pair(tmp_path, name: str, classes: int, count: int = 20, side: int = 4) -> dict:
    """`count` random 1 x side x side images labelled 0, 1, ..., classes - 1
    in turn, as an IDX pair; returns the pair's dataset config keys under
    `name`."""
    labels = np.arange(count) % classes
    images = np.random.default_rng(classes).random((count, 1, side, side)).astype(np.float32)
    keys = ("images", "labels") if name == "train" else ("test_images", "test_labels")
    paths = {key: str(tmp_path / f"{key}-{classes}-{count}x{side}.idx") for key in keys}
    write_idx(Dataset(images, labels, classes), *paths.values())
    return paths


def five_class_cnn(tmp_path, train_classes: int, test_classes: int, **overrides):
    """A config of a 5-class conv net on IDX pairs with these label counts."""
    return write_config(tmp_path, dataset={"kind": "idx",
                                           **write_idx_pair(tmp_path, "train", train_classes),
                                           **write_idx_pair(tmp_path, "test", test_classes)},
                        network={"kind": "cnn", "input_shape": [1, 4, 4], "channels": 2,
                                 "blocks": 1, "classes": 5},
                        train={"total_steps": 10}, eval_interval=5, checkpoint_every=5,
                        **overrides)


def image_mlp(tmp_path, input_dim: int = 16, test_count: int = 20, test_side: int = 4):
    """A config of a 2-class MLP on 4x4 IDX train images and a test pair of
    `test_count` images of side `test_side`; 16 inputs read a 4x4 image."""
    return write_config(tmp_path, dataset={"kind": "idx",
                                           **write_idx_pair(tmp_path, "train", 2),
                                           **write_idx_pair(tmp_path, "test", 2, test_count,
                                                            test_side)},
                        network={"input_dim": input_dim},
                        train={"total_steps": 4}, eval_interval=2, checkpoint_every=1)


# test splits the 16-input MLP cannot run on, and the error each gets
BAD_TEST_SPLITS = {
    "empty": ((0, 4), "test split is empty"),
    "5x5": ((20, 5), "test samples of shape (1, 5, 5) do not fit the network: "
                     "layer 0: linear expects 16 features, gets (1, 5, 5)")}


class FailingOpen:
    """Stands in for `open` in the checkpoint module: from the fail_on-th
    file opened for writing whose name starts with `prefix` on, a file
    writes half of what it is given and then raises, as a full disk would."""

    def __init__(self, fail_on: int, prefix: str = ""):
        self.fail_on = fail_on
        self.prefix = prefix
        self.calls = 0

    def __call__(self, path, mode="r", **kwargs):
        f = builtins.open(path, mode, **kwargs)
        if "w" not in mode or not Path(path).name.startswith(self.prefix):
            return f
        self.calls += 1
        return _HalfWriter(f) if self.calls >= self.fail_on else f


class _HalfWriter:
    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class TestTrainCommand:
    def test_artifacts_exist_for_minimal_run(self, tmp_path):
        cfg = write_config(tmp_path, heads=1, sparsity=0.0,
                           topology={"strategy": "static"})
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "run"
        for name in ("history.jsonl", "summary.csv", "checkpoint.bin",
                     "config.resolved.json"):
            assert (out / name).exists(), name

    @pytest.mark.skipif(BLAS_THREADS[0] is None, reason="numpy's bundled OpenBLAS not loaded")
    def test_train_runs_blas_on_one_thread(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["train", "--config", str(write_config(tmp_path)), "--quiet"]) == 0
        assert BLAS_THREADS[0]() == 1

    def test_same_config_and_seed_identical_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
            (tmp_path / "b" / "summary.csv").read_bytes()

    def test_invalid_sparsity_exits_one_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sparsity=1.0)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert "sparsity" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, headz=3)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert "headz" in capsys.readouterr().err

    def test_history_has_one_record_per_eval(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        lines = (tmp_path / "run" / "history.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert [r["step"] for r in records] == [15, 30]
        assert all("metrics" in r and "updates" in r for r in records)
        # topology updates at steps 10 and 20, 30 attach to the nearest eval
        assert len(records[0]["updates"]) > 0

    def test_dump_disagreements_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--dump-disagreements"]) == 0
        rows = list(csv.reader(
            (tmp_path / "run" / "disagreements.csv").read_text().splitlines()))
        assert rows[0] == ["sample", "head0", "head1", "ensemble", "label"]

    def test_dump_disagreements_reuses_the_final_evaluation(self, tmp_path, monkeypatch):
        cfg = resolve(json.loads(write_config(tmp_path).read_text()))
        evaluated = []

        def counted(original):
            def wrapper(model, dataset, step, *args, **kwargs):
                evaluated.append(step)
                return original(model, dataset, step, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(train, "evaluate", counted(train.evaluate))
        monkeypatch.setattr(cli, "evaluate", counted(cli.evaluate))
        out, _ = run_experiment(cfg, dump_disagreements=True, quiet=True)
        assert evaluated == [15, 30]
        # resumed at its last step, fit trains and evaluates nothing, so the
        # CLI evaluates the restored model; the predictions are the same
        evaluated.clear()
        resumed = dict(cfg, out_dir=str(tmp_path / "resumed"))
        run_experiment(resumed, resume=str(out / "checkpoint.bin"),
                       dump_disagreements=True, quiet=True)
        assert evaluated == [30]
        assert (tmp_path / "resumed" / "disagreements.csv").read_bytes() == \
            (out / "disagreements.csv").read_bytes()

    def test_divergence_exits_two_naming_the_newest_checkpoint(self, tmp_path, capsys):
        path = diverging_rings(tmp_path)
        newest = tmp_path / "run" / "checkpoint_000004.bin"
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "training diverged" in err
        assert f"last checkpoint retained at {newest}" in err
        assert not (tmp_path / "run" / "checkpoint_000005.bin").exists()
        # a resumed run that diverges before its first save names the resume file
        assert main(["train", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "again"), "--resume", str(newest)]) == 2
        assert f"last checkpoint retained at {newest}" in capsys.readouterr().err
        assert not list((tmp_path / "again").glob("checkpoint*"))

    def test_divergence_first_seen_by_an_evaluation_exits_two(self, tmp_path, capsys):
        path = diverging_rings(tmp_path, eval_interval=1)
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "training diverged: non-finite predictions at step 4" in err
        newest = tmp_path / "run" / "checkpoint_000003.bin"
        assert f"last checkpoint retained at {newest}" in err
        assert not (tmp_path / "run" / "checkpoint_000004.bin").exists()

    def test_resume_matches_uninterrupted_history(self, tmp_path):
        cfg = write_config(tmp_path, checkpoint_every=10, eval_interval=5,
                           out_dir=str(tmp_path / "full"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "resumed"),
                     "--resume", str(tmp_path / "full" / "checkpoint_000020.bin")]) == 0
        full = {json.loads(l)["step"]: json.loads(l)
                for l in (tmp_path / "full" / "history.jsonl").read_text().splitlines()}
        resumed = [json.loads(l) for l in
                   (tmp_path / "resumed" / "history.jsonl").read_text().splitlines()]
        assert resumed  # evals at 25 and 30
        for record in resumed:
            assert record["metrics"] == full[record["step"]]["metrics"]

    def test_resume_past_the_end_exits_one_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "long"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        short = write_config(tmp_path, train={"total_steps": 20},
                             out_dir=str(tmp_path / "short"))
        assert main(["train", "--config", str(short), "--quiet", "--force",
                     "--resume", str(tmp_path / "long" / "checkpoint.bin")]) == 1
        assert "start step 30 outside [0, total_steps=20]" in capsys.readouterr().err
        assert not list((tmp_path / "short").glob("checkpoint*"))
        assert not (tmp_path / "short" / "summary.csv").exists()

    def test_independent_adam_ensemble_resumes_bit_exact(self, tmp_path):
        cfg = write_config(tmp_path, independent_members=True, heads=3,
                           checkpoint_every=10, eval_interval=5,
                           topology={"strategy": "set", "prune_method": "soft_magnitude",
                                     "delta_t": 5},
                           train={"optimizer": "adam", "lr": 0.01, "weight_decay": 0.0},
                           out_dir=str(tmp_path / "full"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        full = tmp_path / "full"
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "resumed"),
                     "--resume", str(full / "checkpoint_000010.bin")]) == 0
        resumed = tmp_path / "resumed"
        for name in ("checkpoint_000020.bin", "checkpoint_000030.bin", "checkpoint.bin"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes(), name
        full_lines = (full / "history.jsonl").read_text().splitlines()
        assert (resumed / "history.jsonl").read_text().splitlines() == full_lines[2:]

    def test_rejected_run_leaves_its_directory_untouched(self, tmp_path, capsys):
        def config(**overrides):
            return str(write_config(tmp_path, checkpoint_every=20, eval_interval=10,
                                    **overrides))

        out = tmp_path / "run"
        assert main(["train", "--config", config(train={"total_steps": 40}),
                     "--quiet"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # 40 steps at sparsity 0.5 exceed twice a 10-step dense budget
        assert main(["train", "--config", config(train={"total_steps": 40, "base_steps": 10}),
                     "--quiet"]) == 1
        assert "extension cap 20" in capsys.readouterr().err
        assert main(["train", "--config", config(train={"total_steps": 20}), "--quiet",
                     "--force", "--resume", str(out / "checkpoint.bin")]) == 1
        assert "start step 40 outside" in capsys.readouterr().err
        assert main(["train", "--config", config(train={"total_steps": 40}, seed=2),
                     "--quiet", "--resume", str(out / "checkpoint.bin")]) == 3
        assert "different config" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_labels_the_network_cannot_output_are_rejected_before_any_write(
            self, tmp_path, capsys, split):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        cfg = five_class_cnn(tmp_path, 10 if split == "train" else 5,
                             10 if split == "test" else 5)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert (f"invalid run: {split} labels out of range [0, 5) of the network's "
                "logits: min=0, max=9") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {"notes.txt": b"kept\n"}

    @pytest.mark.parametrize("case", [*BAD_TEST_SPLITS, "15-input-train"])
    def test_data_the_network_cannot_run_on_is_rejected_before_any_write(
            self, tmp_path, capsys, case):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        if case in BAD_TEST_SPLITS:
            (count, side), message = BAD_TEST_SPLITS[case]
            cfg = image_mlp(tmp_path, test_count=count, test_side=side)
        else:
            cfg = image_mlp(tmp_path, input_dim=15)
            message = ("train samples of shape (1, 4, 4) do not fit the network: "
                       "layer 0: linear expects 15 features, gets (1, 4, 4)")
        assert main(["train", "--config", str(cfg), "--quiet"]) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {"notes.txt": b"kept\n"}

    def test_resume_hash_mismatch_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "x"))
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        other = write_config(tmp_path, seed=2, out_dir=str(tmp_path / "y"))
        assert main(["train", "--config", str(other), "--quiet",
                     "--resume", str(tmp_path / "x" / "checkpoint.bin")]) == 3
        assert "hash" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_writes_report(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert main(["eval", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "ev"),
                     "--resume", str(tmp_path / "run" / "checkpoint.bin")]) == 0
        payload = json.loads((tmp_path / "ev" / "eval.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["step"] == 30

    def test_eval_reproduces_the_final_history_record(self, tmp_path):
        # more test images than evaluate's default batch, so a conv net
        # evaluated at another batch size differs in the low digits
        def images(n, seed):
            labels = np.arange(n) % 3
            x = np.random.default_rng(seed).random((n, 1, 8, 8)) * 0.5 \
                + labels[:, None, None, None] / 4
            return Dataset(inputs=x.astype(np.float32), labels=labels, num_classes=3)

        paths = {key: str(tmp_path / f"{key}.idx") for key in
                 ("images", "labels", "test_images", "test_labels")}
        write_idx(images(32, 1), paths["images"], paths["labels"])
        write_idx(images(520, 2), paths["test_images"], paths["test_labels"])
        cfg = write_config(tmp_path, dataset={"kind": "idx", **paths},
                           network={"kind": "cnn", "input_shape": [1, 8, 8],
                                    "channels": 4, "blocks": 2, "classes": 3},
                           topology={"strategy": "set", "delta_t": 5},
                           train={"total_steps": 10}, eval_interval=10)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert main(["eval", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "ev"),
                     "--resume", str(tmp_path / "run" / "checkpoint.bin")]) == 0
        last = json.loads((tmp_path / "run" / "history.jsonl").read_text()
                          .splitlines()[-1])["metrics"]
        payload = json.loads((tmp_path / "ev" / "eval.json").read_text())
        for key in ("accuracy", "nll", "ece", "pd", "perplexity", "flops_cumulative"):
            assert payload[key] == last[key], key

    def test_a_diverged_checkpoint_exits_two_without_writing(self, tmp_path, capsys):
        path = diverging_rings(tmp_path)
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        capsys.readouterr()
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(path), "--quiet", "--out", str(out),
                     "--resume", str(tmp_path / "run" / "checkpoint_000004.bin")]) == 2
        err = capsys.readouterr().err
        assert err == "training diverged: non-finite predictions at step 4\n"
        assert not out.exists()

    def test_test_labels_the_network_cannot_output_are_rejected_before_any_write(
            self, tmp_path, capsys):
        assert main(["train", "--config", str(five_class_cnn(tmp_path, 5, 5)),
                     "--quiet"]) == 0
        wider = five_class_cnn(tmp_path, 5, 10)
        assert main(["eval", "--config", str(wider), "--quiet", "--force",
                     "--out", str(tmp_path / "ev"),
                     "--resume", str(tmp_path / "run" / "checkpoint.bin")]) == 1
        assert ("invalid run: test labels out of range [0, 5) of the network's logits: "
                "min=0, max=9") in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("case", BAD_TEST_SPLITS)
    def test_a_test_split_the_network_cannot_run_on_is_rejected_before_any_write(
            self, tmp_path, capsys, case):
        # an MLP whose inputs are the image's pixels trains on 4x4 images
        assert main(["train", "--config", str(image_mlp(tmp_path)), "--quiet"]) == 0
        (count, side), message = BAD_TEST_SPLITS[case]
        bad = image_mlp(tmp_path, test_count=count, test_side=side)
        assert main(["eval", "--config", str(bad), "--quiet", "--force",
                     "--out", str(tmp_path / "ev"),
                     "--resume", str(tmp_path / "run" / "checkpoint.bin")]) == 1
        assert f"invalid run: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_normalized_run_evaluates_to_its_last_history_record(self, tmp_path):
        cfg = write_config(tmp_path, dataset={"normalize": True})
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert main(["eval", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "ev"),
                     "--resume", str(tmp_path / "run" / "checkpoint.bin")]) == 0
        last = json.loads((tmp_path / "run" / "history.jsonl").read_text()
                          .splitlines()[-1])["metrics"]
        payload = json.loads((tmp_path / "ev" / "eval.json").read_text())
        # eval trains nothing, so only the training fields are left empty
        assert {key for key, value in payload.items() if value is None} == \
            {"train_loss", "lr", "drop_fraction"}
        assert {key: value for key, value in payload.items() if value is not None} == \
            {key: last[key] for key, value in payload.items() if value is not None}

    def test_version_1_checkpoint_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        path = tmp_path / "run" / "checkpoint.bin"
        data = bytearray(path.read_bytes())
        data[8:10] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        assert main(["eval", "--config", str(cfg), "--quiet",
                     "--resume", str(path)]) == 3
        assert "unsupported checkpoint version 1" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_runs_and_aggregate_rows(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 20}, eval_interval=20)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "heads", "--values", "1,2,3",
                     "--seeds", "1,2,3", "--out", str(out)]) == 0
        run_dirs = [p for p in out.rglob("summary.csv")]
        assert len(run_dirs) == 9
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["value"] for r in rows] == ["1", "2", "3"]
        assert all(r["seeds"] == "3" for r in rows)

    def test_aggregates_match_recomputation_from_run_summaries(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 20}, eval_interval=20)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "sparsity", "--values", "0.0,0.5",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        rows = {r["value"]: r
                for r in csv.DictReader((out / "sweep.csv").read_text().splitlines())}
        for value in ("0", "0.5"):
            finals = [read_summary_final_row(out / f"sparsity={v}" / f"seed={s}" / "summary.csv")
                      for v, s in [(float(value), 1), (float(value), 2)]]
            accs = [f["accuracy"] for f in finals]
            assert float(rows[value]["accuracy_mean"]) == pytest.approx(
                float(np.mean(accs)), rel=1e-5)
            assert float(rows[value]["accuracy_std"]) == pytest.approx(
                float(np.std(accs)), abs=1e-6)

    def test_invalid_grid_point_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "blocks_in_head", "--values", "0,5",
                     "--out", str(out)]) == 1
        assert "blocks_in_head" in capsys.readouterr().err
        assert not list(out.rglob("summary.csv"))  # nothing ran

    def test_a_grid_point_its_run_would_reject_is_rejected_before_any_run(
            self, tmp_path, capsys):
        # 20 steps are within 1/(1-S) of 12 dense steps at sparsity 0.5, not at 0.0
        cfg = write_config(tmp_path, train={"total_steps": 20, "base_steps": 12},
                           eval_interval=10, topology={"delta_t": 10})
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet", "--axis", "sparsity",
                     "--values", "0.5,0.0", "--out", str(out)]) == 1
        assert ("invalid run: total_steps 20 exceeds the 1/(1-S) extension cap 12 for "
                "sparsity 0.0\n") in capsys.readouterr().err
        assert not out.exists()

    def test_blocks_in_head_rejected_for_an_independent_ensemble(self, tmp_path, capsys):
        # an independent ensemble ignores split_index: every grid point would
        # train the same model
        cfg = write_config(tmp_path, independent_members=True)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "blocks_in_head", "--values", "0,1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "sweep.axis" in err and "independent" in err
        assert not list(out.rglob("*.json"))  # no run started

    def test_blocks_in_head_axis_covers_split_range(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 10}, eval_interval=10)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "blocks_in_head", "--values", "0,1,2",
                     "--out", str(out)]) == 0
        for value in (0, 1, 2):
            resolved = json.loads(
                (out / f"blocks_in_head={value}" / "seed=1" /
                 "config.resolved.json").read_text())
            assert resolved["split_index"] == 2 - value


    def test_dotted_key_axis_sweeps_topology_strategy(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 10}, eval_interval=10)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "topology.strategy", "--values", "static,set,rigl",
                     "--out", str(out)]) == 0
        for value in ("static", "set", "rigl"):
            resolved = json.loads((out / f"topology.strategy={value}" / "seed=1" /
                                   "config.resolved.json").read_text())
            assert resolved["topology"]["strategy"] == value
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [(r["axis"], r["value"]) for r in rows] == [
            ("topology.strategy", v) for v in ("static", "set", "rigl")]

    def test_integer_for_a_float_key_is_a_float(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 10}, eval_interval=10)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "sparsity", "--values", "0", "--out", str(out)]) == 0
        resolved = json.loads(
            (out / "sparsity=0.0" / "seed=1" / "config.resolved.json").read_text())
        assert type(resolved["sparsity"]) is float

    @pytest.mark.parametrize("axis, values", [
        ("train.total_steps", "20,20"),
        ("sparsity", "0.5,0.25,0.50"),
        ("train.lr", "1,1.0"),  # an integer for a float field is that float
        ("topology.strategy", "set,rigl,set"),
        ("blocks_in_head", "1,0,1"),
    ])
    def test_repeated_value_rejected_before_any_run(self, tmp_path, capsys, axis, values):
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet", "--axis", axis,
                     "--values", values, "--seeds", "0", "--out", str(out)]) == 1
        assert "sweep.values" in capsys.readouterr().err
        assert not list(out.rglob("*.json"))  # no run started

    def test_repeated_seed_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet", "--axis", "heads",
                     "--values", "1,2", "--seeds", "0,1,0", "--out", str(out)]) == 1
        assert "sweep.seeds: 0 is repeated" in capsys.readouterr().err
        assert not list(out.rglob("*.json"))

    @pytest.mark.parametrize("values, seeds, named", [
        ("", "0", "sweep.values"),
        (",", "0", "sweep.values"),
        ("1,2", ",", "sweep.seeds"),
        ("1,2", "", "sweep.seeds"),
        ("1,2", "0,x", "sweep.seeds"),
        ("1,2", "0,1.5", "sweep.seeds"),
        ("1,2", "true", "sweep.seeds"),
    ])
    def test_an_empty_grid_or_a_non_integer_seed_is_rejected_before_any_write(
            self, tmp_path, capsys, values, seeds, named):
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet", "--axis", "heads",
                     "--values", values, "--seeds", seeds, "--out", str(out)]) == 1
        assert f"config error: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, named", [
        ("topology.strategyy", "set", "topology.strategyy"),
        ("network.kind.depth", "1", "network.kind.depth"),
        ("train.lr", "fast", "train.lr"),
        ("seed", "3", "--seeds"),
    ])
    def test_bad_axis_or_value_rejected_before_any_run(self, tmp_path, capsys,
                                                       axis, values, named):
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet", "--axis", axis,
                     "--values", values, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not list(out.rglob("*.json"))  # no run started


class TestArtifactWrites:
    @pytest.mark.parametrize("strategy", ["rigl", "set", "prune_oneshot"])
    def test_resume_in_place_keeps_earlier_history(self, tmp_path, strategy):
        # checkpoints every 10 steps, evaluations every 15: the step-30 record
        # lists the update (or the prune) of step 20, made before the checkpoint
        cfg = write_config(tmp_path, checkpoint_every=10, eval_interval=15,
                           topology={"strategy": strategy, "delta_t": 10},
                           train={"total_steps": 40})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        history = (out / "history.jsonl").read_bytes()
        summary = (out / "summary.csv").read_bytes()
        record = json.loads(history.splitlines()[1])
        assert record["step"] == 30
        assert [e["step"] for e in record["updates"] + record["events"]][0] == 20
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--resume", str(out / "checkpoint_000020.bin")]) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        assert [json.loads(l)["step"] for l in lines] == [15, 30, 40]
        assert (out / "history.jsonl").read_bytes() == history
        assert (out / "summary.csv").read_bytes() == summary

    @pytest.mark.xfail(strict=True, reason="only the record after a checkpoint carries what "
                       "happened before it, and a crash before that record loses it")
    def test_resume_in_place_after_a_crash_keeps_the_prune_event(self, tmp_path):
        # evaluations at 20 and 40, checkpoints every 10 steps, the prune at
        # step 30: a crash after checkpoint 30 leaves the step-20 record only
        cfg = json.loads(RINGS_CONFIG.read_text())
        cfg["train"]["total_steps"] = 40
        cfg["topology"].update(strategy="prune_oneshot", delta_t=10, prune_at_fraction=0.75)
        cfg.update(eval_interval=20, checkpoint_every=10, out_dir=str(tmp_path / "run"))
        path, out = tmp_path / "cfg.json", tmp_path / "run"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--quiet"]) == 0
        history = (out / "history.jsonl").read_text()
        assert [e["step"] for e in json.loads(history.splitlines()[1])["events"]] == [30]
        (out / "history.jsonl").write_text(history.splitlines(keepends=True)[0])
        assert main(["train", "--config", str(path), "--quiet",
                     "--resume", str(out / "checkpoint_000030.bin")]) == 0
        assert (out / "history.jsonl").read_text() == history

    def test_failed_checkpoint_write_exits_three_and_keeps_earlier_files(
            self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, checkpoint_every=10)
        out = tmp_path / "run"
        monkeypatch.setattr(checkpoint, "open", FailingOpen(fail_on=2, prefix="checkpoint"),
                            raising=False)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3
        assert "i/o error" in capsys.readouterr().err
        monkeypatch.undo()
        assert load_checkpoint(str(out / "checkpoint_000010.bin")).step == 10
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint_000010.bin", "config.resolved.json", "history.jsonl"]

    @pytest.mark.parametrize("writer", ["checkpoint", "summary", "config", "eval",
                                        "disagreements", "sweep"])
    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch, writer):
        cfg = resolve(json.loads(write_config(tmp_path, train={"total_steps": 10},
                                              eval_interval=10).read_text()))
        out = Path(cfg["out_dir"])
        out.mkdir()
        if writer == "checkpoint":
            path = out / "checkpoint.bin"
            model = make_model(cfg)
            tconf = make_train_config(cfg)
            ckpt = capture(model, Optimizer(tconf, model.named_parameters()),
                           count_flops(model), 0, "0" * 64)
            write = lambda: save_checkpoint(ckpt, str(path))
        elif writer == "summary":
            path = out / "summary.csv"
            row = dict.fromkeys(SUMMARY_COLUMNS, 0.5)
            write = lambda: write_summary(path, [row])
        elif writer == "config":
            path = out / "config.resolved.json"
            write = lambda: run_experiment(cfg, quiet=True)
        elif writer == "eval":
            path = out / "eval.json"
            run_experiment(cfg, quiet=True)
            write = lambda: run_eval(cfg, str(out / "checkpoint.bin"), quiet=True)
        elif writer == "disagreements":
            path = out / "disagreements.csv"
            write = lambda: run_experiment(cfg, dump_disagreements=True, quiet=True)
        else:
            path = out / "sweep.csv"
            write = lambda: run_sweep(cfg, "heads", [1], [1], str(out), quiet=True)
        path.write_bytes(b"previous contents")
        monkeypatch.setattr(checkpoint, "open", FailingOpen(fail_on=1, prefix=path.name),
                            raising=False)
        with pytest.raises(OSError):
            write()
        assert path.read_bytes() == b"previous contents"
        assert not list(tmp_path.rglob("*.tmp"))
        monkeypatch.undo()
        write()
        assert path.read_bytes() != b"previous contents"
