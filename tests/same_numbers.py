"""Same numbers: train a matrix of runs with this tree and with another
revision, and compare every artifact the runs write.

    python tests/same_numbers.py --against 71e86c0
    python tests/same_numbers.py --against ../other-checkout --steps 2

`--against` takes a git revision of this repository, whose `src/` is
exported with `git archive`, or the directory of another checkout. Every
run is the `sparsetrails train` command in a subprocess that imports the
package from its tree's `src/`. The matrix:

- the benchmark's three workloads (`bench/workloads.py`) at seeds 0 and 1;
- four variants of the rings workload: one-shot pruning, an Adam
  independent ensemble, SET with soft-magnitude pruning, and the same
  network given as explicit layers, one of its head linears bias-free,
  under uniform allocation and a vote on mean logits;
- one IDX run of a conv network given as explicit layers: the heads'
  first conv reads the shared backbone output and is valid-padded with a
  3x2 kernel, a one-output-channel conv follows, and a conv on its one
  channel after that, so the one-row guards of the conv forward and of
  its input gradient run (cnn-idx-set's convs are all 3x3 "same" with
  eight outputs, and its one-channel stem computes no input gradient);
- cnn-idx-set at seed 0 and the Adam independent ensemble again, each
  resumed in place from its first checkpoint (rings' is mid-epoch, so every
  member's epoch order is drawn again at the resumed step).

Every run writes a checkpoint at every evaluation and dumps its last
disagreements. `sparsetrails eval` then reads back the final checkpoint of
the one-shot pruned run, of both resumed runs and of wide-mlp-rigl at seed
0, and writes `eval.json` beside the run's other files: its FLOPs come
from the restored masks. Wide's is the largest store, and the Adam
independent ensemble's empty backbone puts its components furthest from
store order. The IDX images are written once, into a directory both
trees read, so the config hashes agree. Each file must be byte-equal,
except `config.resolved.json`, which is compared without `out_dir`. The
first difference is printed with its file and field, and the exit code is
1; it is 0 when every file matches. Above the verdict goes
`src lines: <against> -> <this>`, the lines of each tree's
`src/sparsetrails/*.py`, as `wc -l` counts them.
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py)
from sparsetrails.checkpoint import CheckpointError, load_checkpoint  # noqa: E402

# runs trained again, resumed in place from their first checkpoint, by the
# run whose directory they copy
RESUMED = {"cnn-idx-set-s0-resumed": "cnn-idx-set-s0",
           "rings-adam-independent-resumed": "rings-adam-independent"}
# runs whose final checkpoint `sparsetrails eval` evaluates
EVALUATED = ("rings-prune-oneshot", "cnn-idx-set-s0-resumed", "wide-mlp-rigl-s0",
             "rings-adam-independent-resumed")
# the rings network (2 -> 16, six blocks, 2 classes) as explicit layers, the
# linear of block 4, in the heads at split index 3, without a bias
RINGS_LAYERS = {
    "kind": "layers", "input_shape": [2],
    "stem": [{"kind": "linear", "in": 2, "out": 16}, {"kind": "relu"}],
    "blocks": [[{"kind": "linear", "in": 16, "out": 16, "bias": block != 4}, {"kind": "relu"}]
               for block in range(6)],
    "classifier": [{"kind": "linear", "in": 16, "out": 2}]}
# a conv network on the 1x14x14 IDX images, its heads from the first block on
IDX_CONV_LAYERS = {
    "kind": "layers", "input_shape": [1, 14, 14],
    "stem": [{"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel_h": 3,
              "kernel_w": 3, "padding": "same"}, {"kind": "relu"}],
    "blocks": [[{"kind": "conv2d", "in_channels": in_c, "out_channels": out_c, "kernel_h": kh,
                 "kernel_w": kw, "padding": padding}, {"kind": "relu"}]
               for in_c, out_c, kh, kw, padding in [(4, 6, 3, 2, "valid"), (6, 1, 3, 3, "same"),
                                                    (1, 3, 2, 3, "valid")]],
    "classifier": [{"kind": "linear", "in": 3 * 11 * 11, "out": 10}]}
# runs `sparsetrails` from the tree whose src/ is the first argument
LAUNCH = ("import sys; sys.path.insert(0, sys.argv[1]); import sparsetrails.cli as cli; "
          "sys.exit(cli.main(sys.argv[2:]) if cli.__file__.startswith(sys.argv[1]) "
          "else f'sparsetrails imported from {cli.__file__}')")


def matrix(data_dir: Path, steps: int | None) -> dict[str, dict]:
    """The unresolved config of every run, by run name. With `steps`, each
    run trains that many steps, evaluating and checkpointing halfway."""
    runs = {}
    for workload in ("rings-rigl", "cnn-idx-set", "wide-mlp-rigl"):
        for seed in (0, 1):
            runs[f"{workload}-s{seed}"] = workloads.raw_config(
                workload, seed, ROOT, data_dir / workload / f"seed{seed}")
    rings = runs["rings-rigl-s0"]
    for name, changes in (
            ("rings-prune-oneshot", {"topology": {"strategy": "prune_oneshot"}}),
            ("rings-adam-independent", {"independent_members": True,
                                        "train": {"optimizer": "adam", "lr": 0.01,
                                                  "weight_decay": 0.0}}),
            ("rings-set-soft-magnitude", {"topology": {"strategy": "set",
                                                       "prune_method": "soft_magnitude"}}),
            ("rings-layers-uniform-logits", {"network": RINGS_LAYERS, "allocation": "uniform",
                                             "vote": "logits"})):
        cfg = json.loads(json.dumps(rings))
        for key, value in changes.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        runs[name] = cfg
    runs["idx-conv-layers"] = {**json.loads(json.dumps(runs["cnn-idx-set-s0"])),
                               "network": IDX_CONV_LAYERS, "split_index": 0}
    runs.update({name: runs[source] for name, source in RESUMED.items()})
    for cfg in runs.values():
        if steps is not None:
            cfg["train"]["total_steps"] = steps
            cfg["eval_interval"] = max(1, steps // 2)
        # checkpoints at evaluations, so the resume starts at a history line
        cfg["checkpoint_every"] = cfg["eval_interval"]
    return runs


def export(revision: str, into: Path) -> Path:
    """The `src/` of a git revision of this repository, written under `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def sparsetrails(tree: Path, command: str, config: Path, out: Path, *extra: str) -> None:
    """`sparsetrails command` on the package in tree/src; raises if it fails."""
    done = subprocess.run([sys.executable, "-c", LAUNCH, str(tree / "src"), command,
                           "--config", str(config), "--out", str(out), "--quiet", *extra],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{tree}: {command} {config.stem} exited {done.returncode}\n{done.stderr}")


def run_matrix(tree: Path, configs: dict[str, Path], out: Path) -> None:
    for name, config in configs.items():
        if name not in RESUMED:
            sparsetrails(tree, "train", config, out / name, "--dump-disagreements")
    # the finished runs again, resumed in place from their first checkpoint
    for name, source in RESUMED.items():
        first = json.loads(configs[name].read_text())["checkpoint_every"]
        shutil.copytree(out / source, out / name)
        sparsetrails(tree, "train", configs[name], out / name, "--dump-disagreements",
                     "--resume", str(out / name / f"checkpoint_{first:06d}.bin"))
    for name in EVALUATED:
        sparsetrails(tree, "eval", configs[name], out / name,
                     "--resume", str(out / name / "checkpoint.bin"))


def first_field(a, b, where: str = "") -> str | None:
    """The path of the first field where two parsed values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{where}/{key} (in one only)"
            found = first_field(a[key], b[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_field(x, y, f"{where}[{i}]")
            if found:
                return found
        return f"{where} (length {len(a)} != {len(b)})" if len(a) != len(b) else None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return None if same else f"{where} (array)"
    return None if a == b and type(a) is type(b) else f"{where} ({a!r:.60} != {b!r:.60})"


def _checkpoint_fields(path: Path):
    try:
        return vars(load_checkpoint(str(path)))
    except CheckpointError as exc:
        return f"unreadable: {exc}"


def file_difference(a: Path, b: Path) -> str | None:
    """Where two artifacts of the same name differ, or None."""
    x, y = a.read_bytes(), b.read_bytes()
    if a.name == "config.resolved.json":
        x, y = json.loads(x), json.loads(y)
        x.pop("out_dir"), y.pop("out_dir")
        return first_field(x, y)
    if x == y:
        return None
    if a.suffix in (".jsonl", ".csv"):
        lines_x, lines_y = x.decode().splitlines(), y.decode().splitlines()
        for i, (u, v) in enumerate(zip(lines_x, lines_y)):
            if u != v:
                if a.suffix == ".csv":
                    header = lines_x[0].split(",")
                    cells = [j for j, (p, q) in enumerate(zip(u.split(","), v.split(",")))
                             if p != q] + [len(header)]
                    return f"line {i + 1}, column {(header + ['?'])[cells[0]]}"
                return f"line {i + 1}{first_field(json.loads(u), json.loads(v)) or ''}"
        return f"line count {len(lines_x)} != {len(lines_y)}"
    if a.suffix == ".bin":
        found = first_field(_checkpoint_fields(a), _checkpoint_fields(b))
        if found:
            return found
    offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return f"bytes differ from offset {offset}"


def compare(a: Path, b: Path) -> tuple[int, str | None]:
    """How many files two run directories hold, and the first difference:
    `file: field`, or None if every file matches."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    other = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names != other:
        return len(names), f"files {sorted(map(str, set(names) ^ set(other)))} in one only"
    for rel in names:
        found = file_difference(a / rel, b / rel)
        if found:
            return len(names), f"{rel}: {found}"
    return len(names), None


def src_lines(tree: Path) -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "sparsetrails").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare every artifact of a matrix of "
                                                 "runs between this tree and another")
    parser.add_argument("--against", required=True,
                        help="a git revision, or the directory of another checkout")
    parser.add_argument("--steps", type=int, default=None,
                        help="train every run this many steps (a quick matrix)")
    parser.add_argument("--work", default=None,
                        help="keep the runs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        other = Path(args.against)
        if not other.is_dir():
            other = export(args.against, work / "against-tree")
        configs = {}
        (work / "configs").mkdir(parents=True)
        for name, cfg in matrix(work / "data", args.steps).items():
            configs[name] = work / "configs" / f"{name}.json"
            configs[name].write_text(json.dumps(cfg, indent=1))
        trees = {"this": ROOT, "against": other}
        print(f"src lines: {src_lines(other)} -> {src_lines(ROOT)}")
        try:
            with ThreadPoolExecutor(len(trees)) as pool:  # one run of each tree at a time
                list(pool.map(lambda side: run_matrix(trees[side], configs, work / side),
                              trees))
        except RuntimeError as exc:
            print(f"run failed: {exc}")
            return 1
        files = 0
        for name in configs:
            count, found = compare(work / "this" / name, work / "against" / name)
            files += count
            if found:
                print(f"differs: {name}/{found}")
                return 1
    print(f"same numbers: {len(configs)} runs, {len(EVALUATED)} evals, {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
