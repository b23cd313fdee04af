"""The sparsetrails benchmark: three training workloads, end to end and per layer.

    python3 bench/run.py --workload rings-rigl --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35

One workload runs in this process, on one thread with BLAS on one thread
(the paper's one-core setting), pinned at any moment to one CPU: the
allowed CPU that does a fixed piece of reference work fastest, chosen
afresh every half second. On a host shared with other tenants the CPUs
slow down in phases, so every timing is also scaled to a host of nominal
speed by the reference work's time around it (see harness.py); the raw
seconds are kept with the results. `--trace 0` measures the
end-to-end metrics with tracing off; `--trace 1` alternates untraced and
traced iterations and reports the per-layer metrics, the per-layer cost
table and the tracing overhead. `--workload all` runs every workload in a
child process of its own, both untraced and traced, and prints all of it.

The report goes to stdout; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, where `metrics` holds the
metrics that BENCHMARK.json lists for the chosen trace mode. Provenance,
raw samples, the cost table and (traced) the spans are written under
`.bench_runs/results/` in the checkout. The benchmark builds nothing: it
imports the package from the checkout's `src/` and fails, printing no
result, when that is missing.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_runs" / "results"
WORKLOADS = ("rings-rigl", "cnn-idx-set", "wide-mlp-rigl")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
                    ("openblas_get_num_threads64_", "openblas_get_config64_"),
                    ("openblas_get_num_threads", "openblas_get_config"))


def one_thread() -> list[int]:
    """One BLAS thread; call before importing numpy. Returns the CPUs this
    process may use: each iteration runs pinned to one of them."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return sorted(os.sched_getaffinity(0))


def import_package():
    """Import sparsetrails from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sparsetrails
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sparsetrails from {src}: {exc}")
    if Path(sparsetrails.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: sparsetrails imported from {sparsetrails.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not clones."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def openblas() -> tuple[str | None, int | None]:
    """Configuration string and thread count of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for threads_sym, config_sym in OPENBLAS_SYMBOLS:
            if hasattr(lib, threads_sym):
                threads, config = getattr(lib, threads_sym), getattr(lib, config_sym)
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def provenance(seed: int, cpus: list[int]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_config, blas_threads = openblas()
    return {
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "seed": seed, "nproc": os.cpu_count(), "cpus": cpus,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas_config, "blas_threads": blas_threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(), "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(m, produced: dict, trace: bool) -> dict:
    """The last line of the output: exactly the metrics BENCHMARK.json lists."""
    metrics = {}
    for entry in declared(trace):
        value, unit, _ = produced[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"bench: {entry['name']} measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def report(workload: str, args, prov: dict, m, produced: dict) -> None:
    """Human-readable report: provenance, metrics, and (traced) the cost table."""
    from harness import REFERENCE_S
    print(f"== sparsetrails benchmark: {workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds}")
    print("provenance: " + json.dumps(prov))
    kind = "per-layer metrics, medians over traced iterations" if args.trace \
        else "end-to-end metrics, untraced, timings at nominal host speed"
    iterations = len(m.walls[bool(args.trace)])
    print(f"{kind} ({iterations} iterations; n = samples behind each value)")
    print(f"  {'metric':32s} {'unit':10s} {'value':>14s} {'n':>7s}")
    for name, (value, unit, n) in produced.items():
        line = f"  {name:32s} {unit:10s} {value:14.6g} {n:7d}"
        if name == "step_ms_p99":
            beyond = sum(1 for s in m.step_ms() if s > value)
            line += f"   ({beyond} samples beyond p99)"
        print(line)
    if args.trace:
        overhead, frac = produced["trace.overhead_s"][0], produced["trace.overhead_frac"][0]
        print(f"tracing overhead: {overhead:+.4f} s per run_experiment "
              f"({100 * frac:+.1f}% of the untraced wall time)")
        print(f"per-layer cost table (batch {m.table[0]['batch']}; head layers count "
              f"once per head; ledger says bwd/fwd = 2.0)")
        print(f"  {'part':8s} {'#':>2s} {'kind':6s} {'x':>2s} {'fwd_ms':>9s} "
              f"{'bwd_ms':>9s} {'bwd_dense_ms':>12s} {'fwd_MFLOP':>10s} "
              f"{'dense_MFLOP':>11s} {'GFLOP/s':>8s} {'bwd/fwd':>7s}")
        for r in m.table:
            dense = "-" if r["bwd_dense_s"] is None else f"{1e3 * r['bwd_dense_s']:.3f}"
            print(f"  {r['part']:8s} {r['layer']:2d} {r['kind']:6s} {r['copies']:2d} "
                  f"{1e3 * r['fwd_s']:9.3f} {1e3 * r['bwd_s']:9.3f} {dense:>12s} "
                  f"{r['fwd_flops'] / 1e6:10.3f} {r['fwd_flops_dense'] / 1e6:11.3f} "
                  f"{r['fwd_gflops']:8.3f} {r['bwd_fwd_ratio']:7.2f}")
    if not args.trace:
        raw = {name: statistics.median(w[0] for w in m.windows[name])
               for name in ("setup_s", "wall_s", "fit_s")}
        print("raw medians, unscaled: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    readings = m.host.seconds
    print(f"host speed: reference work {1e3 * statistics.median(readings):.3f} ms "
          f"(median of {len(readings)} readings; nominal {1e3 * REFERENCE_S:.3f} ms; "
          f"it rises when other tenants load the host)")
    print(f"operations: attempted {m.attempted}, failed {m.failed}")
    for failure in m.failures:
        print(f"  FAILED {failure}")


def run_workload(args) -> int:
    cpus = one_thread()
    import_package()
    import harness
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = ROOT / ".bench_runs" / f"{tag}-{os.getpid()}"
    try:
        cfg = workloads.workload_config(args.workload, args.seed, ROOT, run_dir)
        m = harness.measure(cfg, run_dir, args.seconds, bool(args.trace), cpus=cpus)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not m.walls[False] or (args.trace and not m.traced):
        for failure in m.failures:
            print(f"bench: FAILED {failure}", file=sys.stderr)
        raise SystemExit("bench: no iteration of the workload completed")

    produced = m.per_layer() if args.trace else m.end_to_end()
    result = result_line(m, produced, bool(args.trace))

    prov = provenance(args.seed, cpus)
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov, "config": cfg,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in produced.items()},
              "reference_s": harness.REFERENCE_S,
              "host_speed": {"times": m.host.times, "reference_seconds": m.host.seconds},
              "windows": m.windows, "steps": m.steps, "trained": m.trained,
              "walls": {"untraced": m.walls[False], "traced": m.walls[True]},
              "attempted": m.attempted, "failed": m.failed, "failures": m.failures,
              "cost_table": m.table}
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if m.spans is not None:
        m.spans.write_spans(RESULTS / f"{tag}.spans.jsonl.gz")

    report(args.workload, args, prov, m, produced)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"bench: {workload} trace {trace} exited {child.returncode}")
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{name}": value
                            for name, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparsetrails benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
