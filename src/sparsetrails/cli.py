"""Experiment runner CLI: single runs, evaluation, and analysis sweeps.

    sparsetrails train --config cfg.json [--seed N] [--out DIR]
                       [--resume ckpt.bin] [--force] [--dump-disagreements]
    sparsetrails eval  --config cfg.json --resume ckpt.bin [--out DIR]
                       [--dump-disagreements]
    sparsetrails sweep --config cfg.json --axis {blocks_in_head,sparsity,heads}
                       --values 1,3,5 [--seeds 0,1,2] [--out DIR]

Artifacts per run: config.resolved.json, history.jsonl (one record per
evaluation), summary.csv, checkpoint.bin; sweeps add sweep.csv with
mean/std aggregates per grid value. Exit codes: 0 success, 1 validation
error, 2 training divergence, 3 I/O or checkpoint error.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (CheckpointError, capture, load_checkpoint, restore,
                         save_checkpoint, write_atomic)
from .config import (ConfigError, config_hash, load_config, make_dataset,
                     make_model, make_train_config, network_spec, resolve)
from .metrics import disagreement_breakdown
from .train import Optimizer, TrainingDiverged, count_flops, evaluate, fit

SUMMARY_COLUMNS = ["step", "train_loss", "lr", "drop_fraction", "accuracy", "nll",
                   "ece", "pd", "perplexity", "flops_cumulative"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.6g}"


def _write_csv(path: Path, rows: list[list]) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue().encode())


def _write_json(path: Path, payload: dict, sort_keys: bool = False) -> None:
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n").encode())


def write_summary(path: Path, rows: list[dict]) -> None:
    """summary.csv from the `metrics` records of the run's evaluations."""
    _write_csv(path, [SUMMARY_COLUMNS]
               + [[_fmt(row[c]) for c in SUMMARY_COLUMNS] for row in rows])


def _earlier_history(path: Path, start_step: int) -> list[str]:
    """The lines of an existing history.jsonl for steps up to start_step; a
    last line without its newline is an unfinished write and is dropped."""
    if not path.exists():
        return []
    with open(path) as f:
        return [line for line in f
                if line.endswith("\n") and json.loads(line)["step"] <= start_step]


def write_disagreements(path: Path, heads: np.ndarray, ens: np.ndarray,
                        labels: np.ndarray) -> int:
    """disagreements.csv from an evaluation's per-head and ensemble predictions."""
    records = disagreement_breakdown(heads, ens, labels)
    _write_csv(path, [["sample"] + [f"head{i}" for i in range(len(heads))]
                      + ["ensemble", "label"]]
               + [[rec.sample] + rec.head_classes + [rec.ensemble_class, rec.label]
                  for rec in records])
    return len(records)


def run_experiment(cfg: dict, resume: str | None = None, force: bool = False,
                   dump_disagreements: bool = False, quiet: bool = False):
    """Train per config and write all artifacts; returns (out_dir, history)."""
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    resolved_hash = config_hash(cfg)
    _write_json(out / "config.resolved.json", cfg, sort_keys=True)

    train_set, test_set = make_dataset(cfg)
    model = make_model(cfg)
    tconf = make_train_config(cfg)
    optimizer = Optimizer(tconf, model.named_parameters())
    ledger = count_flops(model)

    start_step = 0
    last_checkpoint = None
    if resume is not None:
        ckpt = load_checkpoint(resume)
        if ckpt.config_hash != resolved_hash and not force:
            raise CheckpointError(
                "checkpoint was produced by a different config "
                f"(hash {ckpt.config_hash[:12]} != {resolved_hash[:12]}); "
                "pass --force to override")
        start_step = restore(ckpt, model, optimizer, ledger)
        last_checkpoint = resume

    oneshot_target = cfg["sparsity"] \
        if cfg["topology"]["strategy"] == "prune_oneshot" else None
    # resuming into the run's own directory keeps the evaluations before the
    # checkpoint; the ones after it are about to be recomputed
    kept = _earlier_history(out / "history.jsonl", start_step) \
        if resume is not None else []
    history_file = open(out / "history.jsonl", "w")
    history_file.writelines(kept)

    def on_eval(report, updates, events):
        record = {"step": report.step, "metrics": report.to_json(),
                  "updates": [u.to_json() for u in updates], "events": events}
        history_file.write(json.dumps(record) + "\n")
        history_file.flush()
        if not quiet:
            pd = "-" if report.pd is None else f"{report.pd:.4f}"
            print(f"step {report.step:6d}  loss {report.train_loss:.4f}  "
                  f"acc {report.accuracy:.4f}  nll {report.nll:.4f}  pd {pd}")

    def on_checkpoint(step, mdl, opt, ledg):
        every = cfg["checkpoint_every"]
        if every and step % every == 0:
            path = out / f"checkpoint_{step:06d}.bin"
            save_checkpoint(capture(mdl, opt, ledg, step, resolved_hash), str(path))
            return str(path)
        return None

    try:
        history = fit(model, train_set, test_set, tconf,
                      sparsity_target=oneshot_target, start_step=start_step,
                      optimizer=optimizer, ledger=ledger, on_eval=on_eval,
                      on_checkpoint=on_checkpoint, last_checkpoint=last_checkpoint)
    finally:
        history_file.close()

    write_summary(out / "summary.csv", [json.loads(line)["metrics"] for line in kept]
                  + [report.to_json() for report in history.evals])
    save_checkpoint(capture(model, optimizer, ledger, tconf.total_steps,
                            resolved_hash), str(out / "checkpoint.bin"))
    if dump_disagreements:
        _, heads, ens = evaluate(model, test_set, tconf.total_steps,
                                 batch_size=tconf.batch_size)
        write_disagreements(out / "disagreements.csv", heads, ens, test_set.labels)
    return out, history


def run_eval(cfg: dict, checkpoint_path: str, force: bool = False,
             dump_disagreements: bool = False, quiet: bool = False) -> dict:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _, test_set = make_dataset(cfg)
    model = make_model(cfg)
    tconf = make_train_config(cfg)
    optimizer = Optimizer(tconf, model.named_parameters())
    ledger = count_flops(model)
    ckpt = load_checkpoint(checkpoint_path)
    if ckpt.config_hash != config_hash(cfg) and not force:
        raise CheckpointError("checkpoint/config hash mismatch; pass --force")
    step = restore(ckpt, model, optimizer, ledger)
    # fit evaluates at the training batch size; so does eval, to reproduce its numbers
    report, heads, ens = evaluate(model, test_set, step=step, ledger=ledger,
                                  batch_size=tconf.batch_size)
    payload = report.to_json()
    _write_json(out / "eval.json", payload)
    if dump_disagreements:
        write_disagreements(out / "disagreements.csv", heads, ens, test_set.labels)
    if not quiet:
        print(json.dumps(payload, indent=2))
    return payload


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("blocks_in_head", "sparsity", "heads")
_AGG_METRICS = ["accuracy", "nll", "ece", "pd", "perplexity"]


def sweep_config(base: dict, axis: str, value, seed: int, out_root: Path) -> dict:
    cfg = json.loads(json.dumps(base))  # deep copy
    if axis == "blocks_in_head":
        num_blocks = network_spec(base).num_blocks
        if not 0 <= value <= num_blocks:
            raise ConfigError("sweep.values",
                              f"blocks_in_head {value} outside [0, {num_blocks}]")
        cfg["split_index"] = num_blocks - value
    elif axis == "sparsity":
        cfg["sparsity"] = value
    elif axis == "heads":
        cfg["heads"] = value
    else:
        raise ConfigError("sweep.axis", f"unknown axis {axis!r}")
    cfg["seed"] = seed
    cfg["out_dir"] = str(out_root / f"{axis}={value}" / f"seed={seed}")
    return resolve(cfg)


def read_summary_final_row(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise CheckpointError(f"{path}: empty summary")
    final = rows[-1]
    return {k: (float(final[k]) if final[k] != "" else None) for k in final}


def run_sweep(base: dict, axis: str, values: list, seeds: list[int],
              out_dir: str, quiet: bool = False) -> Path:
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    # validate the whole grid before any training starts
    grid = [(value, seed, sweep_config(base, axis, value, seed, out_root))
            for value in values for seed in seeds]
    results: dict = {value: [] for value in values}
    for value, seed, cfg in grid:
        if not quiet:
            print(f"[sweep] {axis}={value} seed={seed}")
        run_dir, _ = run_experiment(cfg, quiet=True)
        results[value].append(read_summary_final_row(run_dir / "summary.csv"))

    sweep_path = out_root / "sweep.csv"
    rows = [["axis", "value", "seeds"]]
    for metric in _AGG_METRICS:
        rows[0] += [f"{metric}_mean", f"{metric}_std"]
    for value in values:
        row = [axis, _fmt(value), str(len(seeds))]
        for metric in _AGG_METRICS:
            samples = [r[metric] for r in results[value] if r[metric] is not None]
            if samples:
                row += [_fmt(float(np.mean(samples))), _fmt(float(np.std(samples)))]
            else:
                row += ["", ""]
        rows.append(row)
    _write_csv(sweep_path, rows)
    if not quiet:
        print(f"[sweep] aggregated results in {sweep_path}")
    return sweep_path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsetrails",
        description="dynamic sparse training for multi-head ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--quiet", action="store_true")

    p_train = sub.add_parser("train", help="run one training experiment")
    common(p_train)
    p_train.add_argument("--resume", default=None, metavar="CHECKPOINT")
    p_train.add_argument("--force", action="store_true",
                         help="resume even if the config hash differs")
    p_train.add_argument("--dump-disagreements", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--resume", required=True, metavar="CHECKPOINT")
    p_eval.add_argument("--force", action="store_true")
    p_eval.add_argument("--dump-disagreements", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid of runs along one analysis axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated repeat seeds (default: config seed)")
    return parser


def _parse_values(axis: str, raw: str):
    parse = float if axis == "sparsity" else int
    try:
        return [parse(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError("sweep.values", f"bad value list {raw!r}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "train":
            out, _ = run_experiment(cfg, resume=args.resume, force=args.force,
                                    dump_disagreements=args.dump_disagreements,
                                    quiet=args.quiet)
            if not args.quiet:
                print(f"artifacts in {out}")
        elif args.command == "eval":
            run_eval(cfg, args.resume, force=args.force,
                     dump_disagreements=args.dump_disagreements, quiet=args.quiet)
        else:
            values = _parse_values(args.axis, args.values)
            seeds = ([int(s) for s in args.seeds.split(",")]
                     if args.seeds else [cfg["seed"]])
            run_sweep(cfg, args.axis, values, seeds, cfg["out_dir"],
                      quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if isinstance(exc, CheckpointError):
            print(f"checkpoint error: {exc}", file=sys.stderr)
            return 3
        print(f"invalid run: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if exc.last_checkpoint:
            print(f"last checkpoint retained at {exc.last_checkpoint}",
                  file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
