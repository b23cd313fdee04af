"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is produced and printed
with its unit, that the correctness gate trips on a zeroed mask bit and on
a bit-flipped checkpoint copy, and that the benchmark fails, printing no
result, in a directory that holds only the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sparsetrails.config import resolve  # noqa: E402


def tiny_config(workload: str, tmp_path: Path) -> dict:
    raw = workloads.raw_config(workload, 3, ROOT, tmp_path / "data")
    raw["train"]["total_steps"] = 4
    raw["topology"]["delta_t"] = 2
    raw["eval_interval"] = 2
    if workload == "rings-rigl":
        raw["dataset"]["n"] = 200
    else:
        raw["dataset"]["limit"] = 64
    return resolve(raw, out_dir=str(tmp_path / "out"))


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """A tiny untraced and a tiny traced measurement of each small workload."""
    out = {}
    for workload in ("rings-rigl", "cnn-idx-set"):
        for trace in (False, True):
            tmp = tmp_path_factory.mktemp(f"{workload}-{trace}")
            out[workload, trace] = harness.measure(tiny_config(workload, tmp), tmp,
                                                   seconds=0, trace=trace)
    return out


@pytest.mark.parametrize("workload", ["rings-rigl", "cnn-idx-set"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_printed_with_its_unit(measured, workload, trace, capsys):
    m = measured[workload, trace]
    assert m.failed == 0, m.failures
    produced = m.per_layer() if trace else m.end_to_end()
    result = run.result_line(m, produced, trace)
    args = type("Args", (), {"seed": 3, "trace": int(trace), "seconds": 0})()
    run.report(workload, args, {}, m, produced)
    lines = capsys.readouterr().out.splitlines()
    for entry in run.declared(trace):
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert any(line.split()[:2] == [entry["name"], entry["unit"]] for line in lines), \
            entry["name"]


def test_layer_map_names_printed_metrics(measured):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    per_layer = {e["name"] for e in spec["per_layer"]}
    end_to_end = set(measured["rings-rigl", False].end_to_end())
    names = {w["name"] for w in spec["workloads"]}
    mapped = set()
    for row in layer_map["map"]:
        assert set(row["metrics"]) <= per_layer, row["metrics"]
        assert set(row["moves"]) <= end_to_end, row["moves"]
        assert set(row["on"]) | set(row["not_on"]) <= names
        mapped |= set(row["metrics"])
    assert mapped == per_layer
    assert set(layer_map["workloads"]) == names


def test_gate_trips_on_a_zeroed_mask_bit(measured):
    m = measured["rings-rigl", False]
    model = m.probe.fit_args[0]
    assert harness.masked_positions_zero(model) and harness.budgets_conserved(model)
    ref = next(r for r in model.named_parameters()
               if r.mask is not None and (r.array[r.mask == 1] != 0).any())
    flat_mask, flat_values = ref.mask.reshape(-1), ref.array.reshape(-1)
    position = next(i for i in range(flat_mask.size)
                    if flat_mask[i] and flat_values[i] != 0)
    flat_mask[position] = 0
    try:
        assert not harness.masked_positions_zero(model)
        assert not harness.budgets_conserved(model)
    finally:
        flat_mask[position] = 1


def test_gate_trips_on_a_bit_flipped_checkpoint(measured, tmp_path):
    m = measured["rings-rigl", False]
    source = Path(m.cfg["out_dir"]) / "checkpoint.bin"
    intact = tmp_path / "intact.bin"
    shutil.copy(source, intact)
    failed, attempted = m.failed, m.attempted
    m.resume(intact, m.probe.saved)
    assert (m.failed, m.attempted) == (failed, attempted + 2)   # resume and its check
    for offset in (len(source.read_bytes()) // 2, 20):   # a weight, then the header
        flipped = tmp_path / f"flipped-{offset}.bin"
        data = bytearray(source.read_bytes())
        data[offset] ^= 0x10
        flipped.write_bytes(bytes(data))
        m.resume(flipped, m.probe.saved)
        assert m.failed == failed + 1, m.failures
        failed = m.failed


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    child = subprocess.run(spec["command"] + ["--workload", "rings-rigl", "--seed", "0",
                                              "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout == ""
