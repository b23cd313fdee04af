"""One workload, measured end to end and checked, in this process.

A measurement repeats the workload the way `sparsetrails train` runs it,
one `cli.run_experiment` per iteration, until its time is up. `RunProbe`
times setup, `fit` and every step from outside, by wrapping the calls
`run_experiment` makes with one clock reading each, so the end-to-end
figures come from untraced iterations. With tracing on, every other
iteration also runs under a `Tracer`, and the per-layer metrics come from
those.

After each iteration the trained model is evaluated, checkpointed again
and resumed, and the correctness gate runs. Every run, eval, save, resume
and check is one attempted operation; an exception or a failed check is a
failed one.

The host shares its CPUs with other tenants, and their load slows the CPUs
down, by 40% to over 100%, in phases that last from seconds to tens of
minutes. Two things keep the timings comparable across such phases:

- Each iteration, every half second of a run and each group of eval, save
  and resume samples starts on whichever allowed CPU runs a fixed piece
  of reference work fastest at that moment. In between, the reference
  work is timed again on the current CPU every 50 ms of a run (between
  steps and between layer initialisations) and after each eval, save and
  resume sample. The time this takes is left out of every timed window.
- Every timed window is scaled to a host of nominal speed: its seconds
  are multiplied by REFERENCE_S over the mean reference time read around
  the window (the last reading before it, those inside it and the first
  after it). A change to the program moves the window's time but not the
  reference work, which is the benchmark's own; a slow phase of the host
  moves both. The raw seconds and the reference readings are kept with
  the results.
"""

import bisect
import copy
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsetrails import checkpoint, cli, nn
from sparsetrails.config import config_hash, make_dataset, make_model, \
    make_train_config
# bound before any wrapping, so the benchmark's own calls are never traced
from sparsetrails.train import Optimizer, TrainConfig, count_flops, evaluate

import layer_table
from spans import PAUSE, Patches, Tracer, clock, span_metrics

EVAL_REPEATS = 5
SAVE_REPEATS = 5
RESUME_REPEATS = 5
SETTLE_EVERY = 0.5   # seconds between CPU choices inside a run
READ_EVERY = 0.05    # seconds between host speed readings inside a run
MIN_ITERATIONS = 2   # a rerun is needed for the byte-identical check
MB = 1e6
# the reference work's time in a quiet phase of a 2-vCPU Xeon VM (Python
# 3.11, numpy 2.4 with OpenBLAS on one thread); timings are scaled to it
REFERENCE_S = 0.0019

_ref = np.random.default_rng(0)
_REF_X = _ref.random((32, 16), dtype=np.float32)
_REF_W = _ref.random((16, 16), dtype=np.float32)
_REF_A = _ref.random((32, 512), dtype=np.float32)
_REF_B = _ref.random((512, 512), dtype=np.float32)
_REF_V = _ref.random(4096)


def reference_work() -> None:
    """A fixed mix of the kinds of work the workloads spend their time in:
    interpreter loops, many small array calls, a BLAS-sized product and a
    sort. Interpreter-bound code slows more than BLAS-bound code in a slow
    phase of the host, so the first two take a little over half the time,
    between the two kinds."""
    total = 0
    for i in range(3000):
        total += i * i
    x = _REF_X
    for _ in range(80):
        x = np.maximum(x @ _REF_W, 0.0)
        x = x / (1.0 + x.sum())
    for _ in range(2):
        (_REF_A @ _REF_B).sum()
    np.argsort(_REF_V)


class HostSpeed:
    """Reference-work readings over time; `scale` turns a window's seconds
    into seconds at the nominal speed."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def add(self, seconds: float) -> None:
        self.times.append(clock())
        self.seconds.append(seconds)

    def scale(self, start: float, end: float) -> float:
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end) + 1
        around = self.seconds[lo:hi]
        return REFERENCE_S / (sum(around) / len(around))


class RunProbe:
    """Clock readings around the calls one `run_experiment` makes.

    A step's time runs from the return of one call of fit's per-step
    `on_checkpoint` callback to the next call. `pause`, if set, runs in that
    gap and before each layer is initialised; its time is counted in
    `paused` and left out of every window.
    """

    def __init__(self):
        self.pause = None
        self.reset()

    def reset(self) -> None:
        self.marks: dict[str, tuple[float, float]] = {}   # name -> (clock, paused)
        self.paused = 0.0
        self.steps: list[tuple[float, float]] = []   # (start, end) of each step
        self._step_start = None
        self.fit_args: tuple = ()
        self.fit_kwargs: dict = {}
        self.saved = None

    def install(self, patches: Patches) -> None:
        patches.wrap(cli, "make_dataset", self._marked("setup_start", before=True))
        patches.wrap(cli, "count_flops", self._marked("setup_end"))
        patches.wrap(nn, "init_layer", self._paused_before)
        patches.wrap(cli, "save_checkpoint", self._save)
        patches.wrap(cli, "fit", self._fit)

    def window(self, start: str, end: str) -> tuple[float, float, float]:
        """(seconds without pauses, start, end) between two marks."""
        (t0, p0), (t1, p1) = self.marks[start], self.marks[end]
        return t1 - t0 - (p1 - p0), t0, t1

    def _mark(self, name: str) -> None:
        self.marks[name] = (clock(), self.paused)

    def _pause(self) -> None:
        if self.pause is not None:
            start = clock()
            self.pause()
            self.paused += clock() - start

    def _marked(self, name: str, before: bool = False):
        def make(original):
            def wrapper(*args, **kwargs):
                if before:
                    self._mark(name)
                result = original(*args, **kwargs)
                if not before:
                    self._mark(name)
                return result
            return wrapper
        return make

    def _paused_before(self, original):
        def wrapper(*args, **kwargs):
            self._pause()
            return original(*args, **kwargs)
        return wrapper

    def _save(self, original):
        def wrapper(ckpt, path):
            self.saved = ckpt
            return original(ckpt, path)
        return wrapper

    def _fit(self, original):
        def wrapper(*args, **kwargs):
            on_checkpoint = kwargs["on_checkpoint"]

            def timed_on_checkpoint(step, *rest):
                if self._step_start is not None:
                    self.steps.append((self._step_start, clock()))
                result = on_checkpoint(step, *rest)
                self._pause()
                self._step_start = clock()
                return result

            kwargs["on_checkpoint"] = timed_on_checkpoint
            self.fit_args, self.fit_kwargs = args, kwargs
            self._mark("fit_start")
            history = original(*args, **kwargs)
            self._mark("fit_end")
            return history
        return wrapper


@dataclass
class Fresh:
    """Objects built from the config and never trained: resume targets."""

    model: object
    tconf: TrainConfig
    train_set: object

    def copy(self):
        model = copy.deepcopy(self.model)
        return model, Optimizer(self.tconf, model.named_parameters()), count_flops(model)


def artifacts(out: Path) -> tuple[bytes, list[str]]:
    """summary.csv bytes and the `metrics` records of history.jsonl."""
    records = [json.dumps(json.loads(line)["metrics"])
               for line in (out / "history.jsonl").read_text().splitlines()]
    return (out / "summary.csv").read_bytes(), records


def masked_positions_zero(model) -> bool:
    return all(not np.any(ref.array[ref.mask == 0])
               for ref in model.named_parameters() if ref.mask is not None)


def budgets_conserved(model) -> bool:
    return all(layers[i].weight.active_count() == budget
               for layers, plan in zip(model.components(), model.plans)
               if plan is not None
               for i, budget in zip(plan.layer_indices, plan.budgets))


def within_dense_budget(ledger, tconf) -> bool:
    return ledger.cumulative_train <= ledger.dense_budget(tconf.dense_base_steps,
                                                          tconf.batch_size)


def same_state(a, b) -> bool:
    """Two captured checkpoints hold bit-identical state."""
    scalars = ("version", "config_hash", "step", "optimizer_kind", "adam_t",
               "cumulative_flops")
    if any(getattr(a, s) != getattr(b, s) for s in scalars):
        return False
    for part in ("params", "masks", "opt_state"):
        x, y = getattr(a, part), getattr(b, part)
        if x.keys() != y.keys() or any(
                x[k].shape != y[k].shape or x[k].tobytes() != y[k].tobytes() for k in x):
            return False
    return a.rng_states == b.rng_states


def useful_checkpoint_bytes(ckpt) -> int:
    """Bytes a checkpoint needs: active weights, biases, packed masks and the
    optimizer entries at active positions."""
    useful = 0
    for name, values in ckpt.params.items():
        mask = ckpt.masks.get(name)
        active = values.size if mask is None else int(np.count_nonzero(mask))
        slots = sum(1 for key in ckpt.opt_state if key.split("@")[0] == name)
        useful += 4 * active * (1 + slots)
        if mask is not None:
            useful += (mask.size + 7) // 8
    return useful


@dataclass
class Measurement:
    cfg: dict
    run_dir: Path
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # untraced timed windows: name -> [(seconds, start, end)]; seconds
    # leave out the time spent reading the host's speed
    windows: dict[str, list[tuple]] = field(default_factory=dict)
    steps: list[list[tuple]] = field(default_factory=list)   # per iteration
    trained: list[int] = field(default_factory=list)   # samples, per iteration
    eval_size: int = 0
    traced: list[dict] = field(default_factory=list)
    walls: dict[bool, list[tuple]] = field(default_factory=lambda: {False: [], True: []})
    reference: tuple | None = None
    final: dict = field(default_factory=dict)
    table: list[dict] = field(default_factory=list)
    spans: Tracer | None = None
    fresh: Fresh | None = None
    peak_rss: float | None = None
    cpus: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.hash = config_hash(self.cfg)
        self.probe = RunProbe()
        self.host = HostSpeed()
        reference_work()   # untimed: the first call pays for lazy set-up
        self._settled = self._read = clock()

    def record(self, op: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(op)
        return ok

    def add(self, name: str, seconds: float, start: float, end: float) -> None:
        self.windows.setdefault(name, []).append((seconds, start, end))

    def attempt(self, op: str, fn) -> bool:
        """Run fn as one operation; an exception counts as a failure."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
            return self.record(f"{op}: {type(exc).__name__}: {exc}", False)
        return self.record(op, True)

    def timed(self, name: str | None, op: str, fn) -> bool:
        """attempt(op, fn); if it succeeds and name is given, keep its time."""
        start = clock()
        ok = self.attempt(op, fn)
        end = clock()
        if ok and name:
            self.add(name, end - start, start, end)
        return ok

    def build_fresh(self) -> None:
        """Objects built from the config and never trained: resume targets."""
        train_set, _ = make_dataset(self.cfg)
        self.fresh = Fresh(model=make_model(self.cfg), tconf=make_train_config(self.cfg),
                           train_set=train_set)

    # -- one iteration ---------------------------------------------------

    def settle(self, every: float = 0.0, tracer: Tracer | None = None) -> None:
        """Move to the fastest allowed CPU, reading the host's speed there, at
        most once per `every` seconds; in between, read it at most once per
        READ_EVERY seconds. With a tracer, the reading gets a PAUSE span."""
        now = clock()
        if now - self._settled >= every:
            action = self.choose_cpu
        elif now - self._read >= READ_EVERY:
            action = self.read_host
        else:
            return
        index = tracer.open(PAUSE) if tracer else None
        action()
        if tracer:
            tracer.close(index)

    def choose_cpu(self) -> None:
        self.host.add(pin_to_fastest(self.cpus))
        self._settled = self._read = clock()

    def read_host(self) -> None:
        """Read the host's speed on the current CPU."""
        self.host.add(time_reference(tries=1))
        self._read = clock()

    def iteration(self, traced: bool) -> None:
        self.settle()
        probe = self.probe
        probe.reset()
        tracer = Tracer() if traced else None

        def pause():
            self.settle(SETTLE_EVERY, tracer)

        probe.pause = pause
        done = []
        with Patches() as patches:
            probe.install(patches)
            if tracer:
                tracer.install(patches)
            start = clock()
            ok = self.attempt("run", lambda: done.append(
                cli.run_experiment(self.cfg, quiet=True)))
            end = clock()
            if not ok:
                return
            if self.peak_rss is None:
                # the first run's peak, before the benchmark's own resume
                # targets and copies exist
                self.peak_rss = peak_rss_mb()
            out, history = done[0]
            ckpt_path = out / "checkpoint.bin"
            self.resume(ckpt_path, probe.saved)   # traced in traced iterations; not timed
        self.walls[traced].append((end - start - probe.paused, start, end))
        mdl, _, test_set, tconf = probe.fit_args[:4]
        optimizer, ledger = probe.fit_kwargs["optimizer"], probe.fit_kwargs["ledger"]
        steps = len(history.steps)

        self.record("check masked positions are zero", masked_positions_zero(mdl))
        self.record("check active counts equal budgets", budgets_conserved(mdl))
        self.record("check ledger within dense budget", within_dense_budget(ledger, tconf))
        produced = artifacts(out)
        if self.reference is None:
            self.reference = produced
        else:
            check = "traced run matches untraced" if traced else "rerun is byte-identical"
            self.record(f"check {check}", produced == self.reference)

        if traced:
            metrics = span_metrics(tracer, history, steps)
            metrics["cli.history_mb"] = ((out / "history.jsonl").stat().st_size / MB, "MB")
            metrics["checkpoint.useful_frac"] = (
                useful_checkpoint_bytes(probe.saved) / ckpt_path.stat().st_size, "fraction")
            metrics["nn.useful_mac_frac"] = (ledger.forward_sparse / ledger.forward_dense,
                                             "fraction")
            self.traced.append(metrics)
            self.spans = tracer
            return

        self.add("wall_s", *self.walls[False][-1])
        self.add("setup_s", *probe.window("setup_start", "setup_end"))
        self.add("fit_s", *probe.window("fit_start", "fit_end"))
        # every step is charged 3 * forward_sparse FLOPs per sample it trains
        self.trained.append(ledger.cumulative_train // ledger.train_step_flops(1))
        self.steps.append(probe.steps)
        self.eval_size = len(test_set)

        # each group of samples starts on the fastest CPU with one untimed
        # call that warms that CPU's caches; every sample has a host speed
        # reading on each side
        self.settle()
        for i in range(EVAL_REPEATS + 1):
            self.timed("eval_s" if i else None, "eval", lambda: evaluate(mdl, test_set, steps))
            self.read_host()
        path = self.run_dir / "save.bin"
        self.settle()
        for i in range(SAVE_REPEATS + 1):
            # a new file each time, so every save meets the same file-system state
            path.unlink(missing_ok=True)
            self.timed("ckpt_save_s" if i else None, "save", lambda: checkpoint.save_checkpoint(
                checkpoint.capture(mdl, optimizer, ledger, tconf.total_steps, self.hash),
                str(path)))
            self.read_host()
        self.settle()
        for i in range(RESUME_REPEATS + 1):
            self.resume(ckpt_path, probe.saved, "resume_s" if i else None)
            self.read_host()

        final = history.evals[-1]
        self.final = {
            "final_accuracy": final.accuracy, "final_nll": final.nll,
            "ckpt_mb": ckpt_path.stat().st_size / MB,
            "artifact_mb": sum((out / name).stat().st_size for name in (
                "history.jsonl", "summary.csv", "config.resolved.json")) / MB,
        }

    def resume(self, path: Path, saved, name: str | None = None) -> None:
        """Load and restore into fresh objects, kept as `name` if given;
        check the state round-trips."""
        if self.fresh is None:
            self.build_fresh()
        mdl, optimizer, ledger = self.fresh.copy()
        done = []

        def load_and_restore():
            ckpt = checkpoint.load_checkpoint(str(path))
            done.append((ckpt.config_hash, checkpoint.restore(ckpt, mdl, optimizer, ledger)))

        if self.timed(name, "resume", load_and_restore):
            digest, step = done[0]
            again = checkpoint.capture(mdl, optimizer, ledger, step, digest)
            self.record("check resumed state equals saved state", same_state(again, saved))

    def cost_table(self) -> None:
        tconf = self.fresh.tconf
        inputs = self.fresh.train_set.inputs[:tconf.batch_size]
        rows = layer_table.layer_rows(self.fresh.model, inputs,
                                      dense_grads=tconf.topology.strategy == "rigl")
        ledger = count_flops(self.fresh.model)
        self.record("check cost table matches the ledger",
                    layer_table.ledger_forward(rows)
                    == (ledger.forward_sparse, ledger.forward_dense))
        self.table = rows

    # -- results ---------------------------------------------------------

    def scaled(self, windows: list[tuple]) -> list[float]:
        """Seconds of each window at the nominal host speed."""
        return [seconds * self.host.scale(start, end) for seconds, start, end in windows]

    def step_ms(self) -> list[float]:
        return [1e3 * t for iteration in self.steps
                for t in self.scaled([(end - start, start, end)
                                      for start, end in iteration])]

    def end_to_end(self) -> dict:
        """{name: (value, unit, samples behind it)} from the untraced iterations.

        Timings are medians over the run's samples, at the nominal host
        speed; step_ms_p99 is the 99th percentile of every step of the run.
        Sizes, memory and accuracy are exact for a seed.
        """
        def median(values, unit):
            return statistics.median(values), unit, len(values)

        def exact(value, unit, n=len(self.walls[False])):
            return value, unit, n

        steps = self.step_ms()
        fit = self.scaled(self.windows["fit_s"])
        return {
            "setup_s": median(self.scaled(self.windows["setup_s"]), "s"),
            "wall_s": median(self.scaled(self.windows["wall_s"]), "s"),
            "train_samples_per_s": median([n / t for n, t in zip(self.trained, fit)],
                                          "samples/s"),
            "step_ms_p50": exact(float(np.percentile(steps, 50)), "ms", len(steps)),
            "step_ms_p99": exact(float(np.percentile(steps, 99)), "ms", len(steps)),
            "eval_samples_per_s": median([self.eval_size / t for t in
                                          self.scaled(self.windows["eval_s"])], "samples/s"),
            "ckpt_save_s": median(self.scaled(self.windows["ckpt_save_s"]), "s"),
            "resume_s": median(self.scaled(self.windows["resume_s"]), "s"),
            "ckpt_mb": exact(self.final["ckpt_mb"], "MB"),
            "artifact_mb": exact(self.final["artifact_mb"], "MB"),
            "peak_rss_mb": exact(self.peak_rss, "MB", 1),
            "final_accuracy": exact(self.final["final_accuracy"], "fraction"),
            "final_nll": exact(self.final["final_nll"], "nats"),
            "failed_frac": exact(self.failed / self.attempted, "fraction", self.attempted),
        }

    def per_layer(self) -> dict:
        """{name: (value, unit, samples)}: medians over the traced iterations,
        the cost table's per-kind figures and the tracing overhead."""
        n = len(self.traced)
        m = {name: (statistics.median(t[name][0] for t in self.traced), unit, n)
             for name, (_, unit) in self.traced[0].items()}
        m.update({name: (value, unit, len(self.table))
                  for name, (value, unit) in layer_table.kind_metrics(self.table).items()})
        plain, traced = (statistics.median(self.scaled(self.walls[t])) for t in (False, True))
        m["trace.overhead_s"] = (traced - plain, "s", n)
        m["trace.overhead_frac"] = ((traced - plain) / plain, "fraction", n)
        return m


def time_reference(tries: int = 2) -> float:
    """Seconds the reference work takes here: the fastest of `tries`."""
    timings = []
    for _ in range(tries):
        start = clock()
        reference_work()
        timings.append(clock() - start)
    return min(timings)


def pin_to_fastest(cpus: list[int]) -> float:
    """Pin this process to whichever allowed CPU does the reference work
    fastest; returns that CPU's time for it."""
    if len(cpus) < 2:
        return time_reference()
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((time_reference(), cpu))
    best, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return best


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def measure(cfg: dict, run_dir: Path, seconds: float, trace: bool,
            cpus: list[int] | None = None) -> Measurement:
    """Repeat the workload for `seconds`; with trace, alternate untraced and
    traced iterations and add the per-layer cost table. With several cpus,
    each measurement starts on the one of them that is fastest at the time."""
    m = Measurement(cfg=cfg, run_dir=run_dir, cpus=cpus or [])
    deadline = clock() + seconds
    durations = []
    while True:
        start = clock()
        m.iteration(traced=trace and len(durations) % 2 == 1)
        durations.append(clock() - start)
        # the first iteration also builds the resume targets, so the last
        # one predicts the next best
        if len(durations) >= MIN_ITERATIONS and clock() + durations[-1] > deadline:
            break
    if trace and m.fresh is not None:
        m.settle()
        m.cost_table()
    return m
