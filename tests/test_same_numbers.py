import json
import shutil
from pathlib import Path

import same_numbers

ROOT = Path(__file__).resolve().parents[1]


def test_two_step_matrix_matches_a_copy_of_the_tree(tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    assert same_numbers.main(["--against", str(copy), "--steps", "2",
                              "--work", str(work)]) == 0
    out = capsys.readouterr().out
    assert "same numbers: 13 runs, 2 evals, 93 files" in out
    lines = same_numbers.src_lines(ROOT)
    assert f"src lines: {lines} -> {lines}\n" in out
    # each resumed run rewrote the run's artifacts after its first checkpoint
    for name in same_numbers.RESUMED:
        assert [json.loads(line)["step"] for line in
                (work / "this" / name / "history.jsonl").read_text().splitlines()] == [1, 2]
    resumed = work / "this" / "cnn-idx-set-s0-resumed"
    # eval read the final checkpoint back: the last evaluation's metrics again
    evaluated = json.loads((resumed / "eval.json").read_text())
    final = json.loads((resumed / "history.jsonl").read_text().splitlines()[-1])["metrics"]
    assert {key: final[key] for key, value in evaluated.items() if value is not None} == \
        {key: value for key, value in evaluated.items() if value is not None}
    assert evaluated["flops_forward_sparse"] > 0

    # config.resolved.json differs in out_dir between the sides; one changed
    # metric is found and named with its file, line and field
    this, against = work / "this" / "rings-rigl-s0", work / "against" / "rings-rigl-s0"
    lines = (against / "history.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[-1])
    record["metrics"]["nll"] += 1.0
    lines[-1] = json.dumps(record) + "\n"
    (against / "history.jsonl").write_text("".join(lines))
    count, found = same_numbers.compare(this, against)
    assert count == 7 and found.startswith("history.jsonl: line 2/metrics/nll (")
