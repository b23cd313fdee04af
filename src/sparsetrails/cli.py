"""Experiment runner CLI: single runs, evaluation, and analysis sweeps.

    sparsetrails train --config cfg.json [--seed N] [--out DIR]
                       [--resume ckpt.bin] [--force] [--dump-disagreements]
    sparsetrails eval  --config cfg.json --resume ckpt.bin [--out DIR]
                       [--dump-disagreements]
    sparsetrails sweep --config cfg.json --axis AXIS --values 1,3,5
                       [--seeds 0,1,2] [--out DIR]

AXIS is blocks_in_head or a config key, dotted if nested (train.lr).

Artifacts per run: config.resolved.json, history.jsonl (one record per
evaluation), summary.csv, checkpoint.bin; sweeps add sweep.csv with
mean/std aggregates per grid value. A run rejected by its checks (among
them, an empty split, samples of a shape the network cannot read, or
labels it cannot output, in either split; `eval` checks the test split)
writes nothing, and a sweep runs every grid point's checks before its
first run. Exit codes: 0 success, 1 validation error, 2 training
divergence (a non-finite loss, gradient or prediction), 3 I/O or
checkpoint error.
"""

import argparse
import csv
import ctypes
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (CheckpointError, capture, load_checkpoint, restore,
                         save_checkpoint, write_atomic)
from .config import (DEFAULTS, ConfigError, config_hash, load_config, make_dataset,
                     make_model, make_train_config, network_spec, resolve)
from .metrics import disagreement_breakdown
from .train import (Optimizer, TrainingDiverged, check_data, count_flops, evaluate,
                    fit, validate_run)

SUMMARY_COLUMNS = ["step", "train_loss", "lr", "drop_fraction", "accuracy", "nll",
                   "ece", "pd", "perplexity", "flops_cumulative"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, bool)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.6g}"


def _write_csv(path: Path, rows: list[list]) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, [text.getvalue().encode()])


def _write_json(path: Path, payload: dict, sort_keys: bool = False) -> None:
    write_atomic(path, [(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n").encode()])


def write_summary(path: Path, rows: list[dict]) -> None:
    """summary.csv from the `metrics` records of the run's evaluations."""
    _write_csv(path, [SUMMARY_COLUMNS]
               + [[_fmt(row[c]) for c in SUMMARY_COLUMNS] for row in rows])


def _earlier_history(path: Path, start_step: int) -> tuple[list[str], list[list]]:
    """The lines of an existing history.jsonl for steps up to start_step, and
    the updates and events up to start_step in the line after them, which the
    first record written after the resume lists again, as the uninterrupted
    run did. A last line without its newline is an unfinished write."""
    lines = []
    if path.exists():
        with open(path) as f:
            lines = [line for line in f if line.endswith("\n")]
    kept = [line for line in lines if json.loads(line)["step"] <= start_step]
    after = json.loads(lines[len(kept)]) if lines[len(kept):] else {"updates": [], "events": []}
    return kept, [[e for e in after[key] if e["step"] <= start_step]
                  for key in ("updates", "events")]


def write_disagreements(path: Path, heads: np.ndarray, ens: np.ndarray,
                        labels: np.ndarray) -> int:
    """disagreements.csv from an evaluation's per-head and ensemble predictions."""
    records = disagreement_breakdown(heads, ens, labels)
    _write_csv(path, [["sample"] + [f"head{i}" for i in range(len(heads))]
                      + ["ensemble", "label"]]
               + [[rec.sample] + rec.head_classes + [rec.ensemble_class, rec.label]
                  for rec in records])
    return len(records)


def _restored(cfg: dict, resume: str | None, force: bool):
    """Data, model, train config, optimizer and FLOPs ledger for cfg, restored
    from the checkpoint at `resume` if one is given, and the step they are at."""
    train_set, test_set = make_dataset(cfg)
    model = make_model(cfg)
    tconf = make_train_config(cfg)
    optimizer = Optimizer(tconf, model.named_parameters())
    ledger = count_flops(model)
    step = 0
    if resume is not None:
        ckpt = load_checkpoint(resume)
        resolved_hash = config_hash(cfg)
        if ckpt.config_hash != resolved_hash and not force:
            raise CheckpointError(
                "checkpoint was produced by a different config "
                f"(hash {ckpt.config_hash[:12]} != {resolved_hash[:12]}); "
                "pass --force to override")
        step = restore(ckpt, model, optimizer, ledger)
    return train_set, test_set, model, tconf, optimizer, ledger, step


def _validated(cfg: dict, resume: str | None = None, force: bool = False):
    """`_restored`'s run and its one-shot prune target (None unless the
    strategy is prune_oneshot), once `validate_run` has accepted them."""
    train_set, test_set, model, tconf, optimizer, ledger, step = _restored(cfg, resume, force)
    oneshot_target = cfg["sparsity"] \
        if cfg["topology"]["strategy"] == "prune_oneshot" else None
    validate_run(model, train_set, test_set, tconf, ledger, oneshot_target, step)
    return train_set, test_set, model, tconf, optimizer, ledger, step, oneshot_target


def run_experiment(cfg: dict, resume: str | None = None, force: bool = False,
                   dump_disagreements: bool = False, quiet: bool = False):
    """Train per config and write all artifacts; returns (out_dir, history).
    A run that fails a check raises before it writes anything."""
    train_set, test_set, model, tconf, optimizer, ledger, start_step, oneshot_target = \
        _validated(cfg, resume, force)

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    resolved_hash = config_hash(cfg)
    _write_json(out / "config.resolved.json", cfg, sort_keys=True)
    # resuming into the run's own directory keeps the evaluations before the
    # checkpoint; the ones after it are about to be recomputed
    kept, carried = _earlier_history(out / "history.jsonl", start_step) \
        if resume is not None else ([], [[], []])
    history_file = open(out / "history.jsonl", "w")
    history_file.writelines(kept)

    def on_eval(report, updates, events):
        record = {"step": report.step, "metrics": report.to_json(),
                  "updates": carried[0] + [u.to_json() for u in updates],
                  "events": carried[1] + events}
        carried[:] = [], []
        history_file.write(json.dumps(record) + "\n")
        history_file.flush()
        if not quiet:
            pd = "-" if report.pd is None else f"{report.pd:.4f}"
            print(f"step {report.step:6d}  loss {report.train_loss:.4f}  "
                  f"acc {report.accuracy:.4f}  nll {report.nll:.4f}  pd {pd}")

    # the newest file a diverged run can resume from
    last_checkpoint = resume

    def on_checkpoint(step, mdl, opt, ledg):
        nonlocal last_checkpoint
        every = cfg["checkpoint_every"]
        if every and step % every == 0:
            path = out / f"checkpoint_{step:06d}.bin"
            save_checkpoint(capture(mdl, opt, ledg, step, resolved_hash), str(path))
            last_checkpoint = str(path)

    try:
        history = fit(model, train_set, test_set, tconf,
                      sparsity_target=oneshot_target, start_step=start_step,
                      optimizer=optimizer, ledger=ledger, on_eval=on_eval,
                      on_checkpoint=on_checkpoint)
    except TrainingDiverged as exc:
        exc.last_checkpoint = last_checkpoint
        raise
    finally:
        history_file.close()

    write_summary(out / "summary.csv", [json.loads(line)["metrics"] for line in kept]
                  + [report.to_json() for report in history.evals])
    save_checkpoint(capture(model, optimizer, ledger, tconf.total_steps,
                            resolved_hash), str(out / "checkpoint.bin"))
    if dump_disagreements:
        heads, ens = history.head_preds, history.ensemble_preds
        if heads is None:  # resumed at total_steps: fit ran no step to evaluate
            _, heads, ens = evaluate(model, test_set, tconf.total_steps,
                                     batch_size=tconf.batch_size)
        write_disagreements(out / "disagreements.csv", heads, ens, test_set.labels)
    return out, history


def run_eval(cfg: dict, checkpoint_path: str, force: bool = False,
             dump_disagreements: bool = False, quiet: bool = False) -> dict:
    _, test_set, model, tconf, _, ledger, step = _restored(cfg, checkpoint_path, force)
    check_data(model, test=test_set)
    # fit evaluates at the training batch size; so does eval, to reproduce its
    # numbers, and under fit's errstate: evaluate itself reports non-finite ones
    with np.errstate(over="ignore", invalid="ignore"):
        report, heads, ens = evaluate(model, test_set, step=step, ledger=ledger,
                                      batch_size=tconf.batch_size)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
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

_AGG_METRICS = ["accuracy", "nll", "ece", "pd", "perplexity"]


def _config_key(cfg: dict, axis: str) -> tuple[dict, str]:
    """The section of cfg that holds the dotted key `axis`, and its last part."""
    if axis in ("seed", "out_dir"):
        raise ConfigError("sweep.axis", f"{axis} is set per run by the sweep (see --seeds)")
    *sections, leaf = axis.split(".")
    for key in sections:
        cfg = cfg.get(key) if isinstance(cfg, dict) else None
    if not isinstance(cfg, dict) or leaf not in cfg:
        raise ConfigError("sweep.axis", f"unknown config key {axis!r}")
    return cfg, leaf


def _swept(axis: str, value):
    """value as the sweep sets it: an integer for a float field is a float,
    so --values 0 gives sparsity=0.0."""
    if axis != "blocks_in_head":
        defaults, leaf = _config_key(DEFAULTS, axis)
        if isinstance(defaults[leaf], float) and type(value) is int:
            return float(value)
    return value


def sweep_config(base: dict, axis: str, value, seed: int, out_root: Path) -> dict:
    """base with the axis at value: `blocks_in_head` sets split_index, any
    other axis is a dotted config key. Resolved, so values are type-checked."""
    cfg = json.loads(json.dumps(base))  # deep copy
    if axis == "blocks_in_head":
        if base.get("independent_members"):
            raise ConfigError("sweep.axis", "an independent ensemble has no split point: "
                                            "every blocks_in_head value trains the same model")
        num_blocks = network_spec(base).num_blocks
        if type(value) is not int or not 0 <= value <= num_blocks:
            raise ConfigError("sweep.values",
                              f"blocks_in_head {value} outside [0, {num_blocks}]")
        cfg["split_index"] = num_blocks - value
    else:
        node, leaf = _config_key(cfg, axis)
        value = node[leaf] = _swept(axis, value)
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
    if not values:
        raise ConfigError("sweep.values", "no grid values given")
    if not seeds or any(type(seed) is not int for seed in seeds):
        raise ConfigError("sweep.seeds", f"integer seeds required, got {json.dumps(seeds)}")
    # check the whole grid, each point as its run checks itself, before
    # anything is written
    grid = [(value, seed, sweep_config(base, axis, value, seed, out_root))
            for value in values for seed in seeds]
    for key, points in (("sweep.values", [json.dumps(_swept(axis, v)) for v in values]),
                        ("sweep.seeds", [json.dumps(seed) for seed in seeds])):
        repeat = next((p for i, p in enumerate(points) if p in points[:i]), None)
        if repeat is not None:
            raise ConfigError(key, f"{repeat} is repeated: it would train one run "
                                   "directory twice")
    for _, _, cfg in grid:
        _validated(cfg)
    out_root.mkdir(parents=True, exist_ok=True)
    results: dict = {value: [] for value in values}
    for value, seed, cfg in grid:
        if not quiet:
            print(f"[sweep] {axis}={value} seed={seed}")
        run_dir, _ = run_experiment(cfg, quiet=True)
        results[value].append(read_summary_final_row(run_dir / "summary.csv"))

    sweep_path = out_root / "sweep.csv"
    rows = [["axis", "value", "seeds"]
            + [f"{metric}_{agg}" for metric in _AGG_METRICS for agg in ("mean", "std")]]
    for value in values:
        row = [axis, _fmt(value), str(len(seeds))]
        for metric in _AGG_METRICS:
            samples = [r[metric] for r in results[value] if r[metric] is not None]
            row += [_fmt(float(np.mean(samples))), _fmt(float(np.std(samples)))] \
                if samples else ["", ""]
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
    p_sweep.add_argument("--axis", required=True,
                         help="blocks_in_head or a dotted config key, e.g. train.lr")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid values, read as JSON or else text")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated repeat seeds (default: config seed)")
    return parser


def _parse_values(raw: str) -> list:
    """Comma-separated values, each read as JSON, or as text if it is not JSON."""
    values = []
    for text in filter(None, (v.strip() for v in raw.split(","))):
        try:
            values.append(json.loads(text))
        except json.JSONDecodeError:
            values.append(text)
    return values


def one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, the project's one-core
    setting, unless OPENBLAS_NUM_THREADS says otherwise."""
    if "OPENBLAS_NUM_THREADS" in os.environ or not os.path.exists("/proc/self/maps"):
        return
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    one_blas_thread()
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
            values = _parse_values(args.values)
            seeds = _parse_values(args.seeds) if args.seeds is not None else [cfg["seed"]]
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
