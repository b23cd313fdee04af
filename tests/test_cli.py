import builtins
import csv
import errno
import json

import numpy as np
import pytest

from sparsetrails import checkpoint
from sparsetrails.checkpoint import capture, load_checkpoint, save_checkpoint
from sparsetrails.cli import SUMMARY_COLUMNS, main, read_summary_final_row, write_summary
from sparsetrails.config import make_model, make_train_config, resolve
from sparsetrails.train import Optimizer, count_flops


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


class FailingOpen:
    """Stands in for `open` in the checkpoint module: from the fail_on-th
    call on, a file writes half of what it is given and then raises, as a
    full disk would."""

    def __init__(self, fail_on: int):
        self.fail_on = fail_on
        self.calls = 0

    def __call__(self, path, mode="r"):
        self.calls += 1
        f = builtins.open(path, mode)
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
        rows = list(csv.reader(open(tmp_path / "run" / "disagreements.csv")))
        assert rows[0] == ["sample", "head0", "head1", "ensemble", "label"]

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


class TestSweepCommand:
    def test_grid_runs_and_aggregate_rows(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 20}, eval_interval=20)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "heads", "--values", "1,2,3",
                     "--seeds", "1,2,3", "--out", str(out)]) == 0
        run_dirs = [p for p in out.rglob("summary.csv")]
        assert len(run_dirs) == 9
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [r["value"] for r in rows] == ["1", "2", "3"]
        assert all(r["seeds"] == "3" for r in rows)

    def test_aggregates_match_recomputation_from_run_summaries(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_steps": 20}, eval_interval=20)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--quiet",
                     "--axis", "sparsity", "--values", "0.0,0.5",
                     "--seeds", "1,2", "--out", str(out)]) == 0
        rows = {r["value"]: r for r in csv.DictReader(open(out / "sweep.csv"))}
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


class TestArtifactWrites:
    def test_resume_in_place_keeps_earlier_history(self, tmp_path):
        cfg = write_config(tmp_path, checkpoint_every=20, eval_interval=10,
                           train={"total_steps": 40})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        history = (out / "history.jsonl").read_bytes()
        summary = (out / "summary.csv").read_bytes()
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--resume", str(out / "checkpoint_000020.bin")]) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        assert [json.loads(l)["step"] for l in lines] == [10, 20, 30, 40]
        assert (out / "history.jsonl").read_bytes() == history
        assert (out / "summary.csv").read_bytes() == summary

    def test_failed_checkpoint_write_exits_three_and_keeps_earlier_files(
            self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, checkpoint_every=10)
        out = tmp_path / "run"
        monkeypatch.setattr(checkpoint, "open", FailingOpen(fail_on=2), raising=False)
        assert main(["train", "--config", str(cfg), "--quiet"]) == 3
        assert "i/o error" in capsys.readouterr().err
        monkeypatch.undo()
        assert load_checkpoint(str(out / "checkpoint_000010.bin")).step == 10
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint_000010.bin", "config.resolved.json", "history.jsonl"]

    @pytest.mark.parametrize("writer", ["checkpoint", "summary"])
    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        if writer == "checkpoint":
            cfg = resolve(json.loads(write_config(tmp_path).read_text()))
            model = make_model(cfg)
            tconf = make_train_config(cfg)
            ckpt = capture(model, Optimizer(tconf, model.named_parameters()),
                           count_flops(model), 0, "0" * 64)
            write = lambda: save_checkpoint(ckpt, str(path))
        else:
            row = dict.fromkeys(SUMMARY_COLUMNS, 0.5)
            write = lambda: write_summary(path, [row])
        path.write_bytes(b"previous contents")
        monkeypatch.setattr(checkpoint, "open", FailingOpen(fail_on=1), raising=False)
        with pytest.raises(OSError):
            write()
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir() if p.name != "cfg.json"] == ["artifact"]
        monkeypatch.undo()
        write()
        assert path.read_bytes() != b"previous contents"
