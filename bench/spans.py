"""Spans around the package's public functions, recorded from outside.

`Patches` swaps a module or class attribute for a wrapper and puts the
original back on exit. `Tracer` uses it to wrap the public functions that
`cli.run_experiment`, `train.fit` and `model.forward_heads` call, and keeps
one span per call: name, start, end, parent span and an id. Spans of one
training step share the step number as their id; setup, each evaluation
and each checkpoint operation get ids of their own. Spans stay in memory
until `span_metrics` and `write_spans` read them after the run.

Nothing here changes what the wrapped functions compute: the traced run
must reproduce the untraced run's artifacts byte for byte, and the
benchmark checks that it does.
"""

import gzip
import json
import time
from collections import defaultdict

from sparsetrails import checkpoint, cli, model, nn, topology, train
from sparsetrails.rng import Stream

clock = time.perf_counter


class Patches:
    """Attribute swaps that are undone, last first, when the block ends."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace owner.name with make(original)."""
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


PAUSE = "bench.pause"   # the benchmark's own work inside a run, not the program's
RNG_METHODS = ("uniforms", "normals", "gumbels", "permutation",
               "choice_without_replacement")
METRIC_FUNCTIONS = ("accuracy", "nll", "ece", "perplexity", "prediction_disagreement")


class Tracer:
    """In-memory span recorder; `install` wraps the package's entry points."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list = []
        self.values: dict[int, int] = {}      # span -> values drawn (rng spans)
        self._stack: list[int] = []
        self._scopes: list[int] = []          # open spans that have their own id
        self.trace_id = "run"
        self._counter = defaultdict(int)
        self._backbone = None

    # -- recording -------------------------------------------------------

    def open(self, name: str, own_id: str | None = None) -> int:
        """Start a span. It takes own_id if given, else the id of the nearest
        enclosing span that has one of its own, else the current step id."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        if own_id is not None:
            self._scopes.append(index)
        self.ids.append(own_id if own_id is not None
                        else self.ids[self._scopes[-1]] if self._scopes else self.trace_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = clock()
        self._stack.pop()
        if self._scopes and self._scopes[-1] == index:
            self._scopes.pop()

    def own_id(self, kind: str) -> str:
        """A fresh id for one eval or checkpoint operation."""
        self._counter[kind] += 1
        return f"{kind}-{self._counter[kind]}"

    def spanned(self, name: str, kind: str | None = None):
        """Wrapper factory: one span per call of the wrapped function; with a
        kind ("eval", "ckpt", "resume") each call gets an id of its own."""
        def make(original):
            def wrapper(*args, **kwargs):
                index = self.open(name, self.own_id(kind) if kind else None)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)
            return wrapper
        return make

    # -- the package's entry points --------------------------------------

    def install(self, patches: Patches) -> None:
        span = self.spanned
        patches.wrap(cli, "run_experiment", self._run_experiment)
        patches.wrap(cli, "make_dataset", span("data.load"))
        patches.wrap(cli, "make_model", span("model.build"))
        patches.wrap(cli, "count_flops", span("train.count_flops"))
        patches.wrap(train, "count_flops", span("train.count_flops"))
        patches.wrap(cli, "fit", self._fit)
        patches.wrap(cli, "write_summary", span("cli.summary_write"))
        patches.wrap(cli, "capture", span("checkpoint.capture", "ckpt"))
        patches.wrap(cli, "save_checkpoint", span("checkpoint.save", "ckpt"))
        patches.wrap(checkpoint, "load_checkpoint", span("checkpoint.load", "resume"))
        patches.wrap(checkpoint, "restore", span("checkpoint.restore", "resume"))

        patches.wrap(train, "batches", span("data.batches"))
        for method in RNG_METHODS:
            patches.wrap(Stream, method, self._rng)
        patches.wrap(model, "allocate", span("sparsity.allocate"))
        patches.wrap(model, "init_masks", span("sparsity.init_masks"))
        patches.wrap(nn, "init_layer", span("nn.init"))
        patches.wrap(nn, "layer_forward", self._layer_forward)
        patches.wrap(nn, "stack_forward", self._stack_pass("nn.stack_forward"))
        patches.wrap(nn, "stack_backward", self._stack_pass("nn.stack_backward"))

        patches.wrap(train, "forward_heads", self._forward_heads)
        patches.wrap(train, "composite_loss", span("model.loss"))
        patches.wrap(train, "model_backward", span("model.backward"))
        patches.wrap(train, "soft_vote", span("model.vote"))
        patches.wrap(train.Optimizer, "step", span("train.optimizer"))
        patches.wrap(train, "evaluate", span("train.eval", "eval"))
        for fn in METRIC_FUNCTIONS:
            patches.wrap(train, fn, span(f"metrics.{fn}"))
        patches.wrap(train, "topology_update", span("topology.update"))
        patches.wrap(topology, "select_prune", span("topology.select_prune"))
        patches.wrap(topology, "select_grow", span("topology.select_grow"))

    def _run_experiment(self, original):
        def wrapper(*args, **kwargs):
            # everything before fit is setup: config snapshot, data, model,
            # optimizer and the FLOPs ledger
            self.trace_id = "setup"
            index = self.open("cli.run_experiment")
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _fit(self, original):
        def wrapper(*args, **kwargs):
            on_eval = kwargs["on_eval"]
            on_checkpoint = kwargs["on_checkpoint"]

            def traced_on_eval(*a):
                index = self.open("cli.history_write")
                try:
                    return on_eval(*a)
                finally:
                    self.close(index)

            def traced_on_checkpoint(step, *rest):
                try:
                    return on_checkpoint(step, *rest)
                finally:
                    self.trace_id = step + 1

            kwargs["on_eval"] = traced_on_eval
            kwargs["on_checkpoint"] = traced_on_checkpoint
            self.trace_id = kwargs.get("start_step", 0) + 1
            index = self.open("train.fit")
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)
                self.trace_id = "artifacts"
        return wrapper

    def _rng(self, original):
        def wrapper(stream, n, *args, **kwargs):
            index = self.open("rng.draw")
            try:
                return original(stream, n, *args, **kwargs)
            finally:
                self.close(index)
                # choice_without_replacement(n, k) draws k values
                self.values[index] = args[0] if args else kwargs.get("k", n)
        return wrapper

    def _layer_forward(self, original):
        def wrapper(layer, x):
            index = self.open(f"nn.{layer.spec.kind}.fwd")
            try:
                return original(layer, x)
            finally:
                self.close(index)
        return wrapper

    def _stack_pass(self, name: str):
        def make(original):
            def wrapper(layers, *args, **kwargs):
                part = "backbone" if layers is self._backbone else "heads"
                index = self.open(f"{name}.{part}")
                try:
                    return original(layers, *args, **kwargs)
                finally:
                    self.close(index)
            return wrapper
        return make

    def _forward_heads(self, original):
        def wrapper(mdl, *args, **kwargs):
            self._backbone = mdl.backbone
            index = self.open("model.forward")
            try:
                return original(mdl, *args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    # -- reading the spans -----------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and call count. The
        time of PAUSE spans is taken out of every span around them."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        for index, name in enumerate(self.names):
            if name == PAUSE:
                parent = self.parents[index]
                while parent >= 0:
                    durations[parent] -= durations[index]
                    parent = self.parents[parent]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0 and self.names[index] != PAUSE:
                covered[parent] += durations[index]
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for index, name in enumerate(self.names):
            total[name] += durations[index]
            own[name] += durations[index] - covered[index]
            calls[name] += 1
        return total, own, calls

    def within(self, name: str, ancestor: str, excluded: str) -> int:
        """Spans called `name` under an `ancestor` span and not under `excluded`."""
        count = 0
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] not in (ancestor, excluded):
                parent = self.parents[parent]
            count += parent >= 0 and self.names[parent] == ancestor
        return count

    def rng_split(self) -> tuple[float, float, int]:
        """Seconds drawing during setup and during training, and values drawn."""
        setup = train_s = 0.0
        for index, name in enumerate(self.names):
            if name != "rng.draw":
                continue
            duration = self.ends[index] - self.starts[index]
            if self.ids[index] == "setup":
                setup += duration
            elif isinstance(self.ids[index], int):
                train_s += duration
        return setup, train_s, sum(self.values.values())

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for index, name in enumerate(self.names):
                f.write(json.dumps({"name": name, "start": self.starts[index],
                                    "end": self.ends[index],
                                    "parent": self.parents[index],
                                    "id": self.ids[index]}) + "\n")


def span_metrics(tracer: Tracer, history, steps: int) -> dict:
    """Per-layer metrics from the spans of one traced run: {name: (value, unit)}."""
    total, own, calls = tracer.totals()
    m = {}

    def seconds(name, value):
        m[name] = (value, "s")

    def count(name, value):
        m[name] = (value, "count")

    seconds("data.load_s", total["data.load"])
    seconds("data.batches_s", total["data.batches"])
    count("data.batches_calls", calls["data.batches"])

    setup_draw, train_draw, values = tracer.rng_split()
    seconds("rng.draw_s", total["rng.draw"])
    seconds("rng.draw_setup_s", setup_draw)
    seconds("rng.draw_train_s", train_draw)
    count("rng.draws", values)

    seconds("sparsity.allocate_s", total["sparsity.allocate"])
    seconds("sparsity.init_masks_s", total["sparsity.init_masks"])

    seconds("nn.init_s", total["nn.init"])
    for kind in ("linear", "conv2d", "relu"):
        seconds(f"nn.{kind}.fwd_s", total[f"nn.{kind}.fwd"])
        count(f"nn.{kind}.calls", calls[f"nn.{kind}.fwd"])
    backward = [total[f"nn.stack_backward.{p}"] for p in ("backbone", "heads")]
    seconds("nn.stack_backward_s", sum(backward))
    seconds("nn.stack_backward.backbone_s", backward[0])
    seconds("nn.stack_backward.heads_s", backward[1])

    seconds("model.build_s", total["model.build"])
    seconds("model.forward_s", total["model.forward"])
    seconds("model.backbone_fwd_s", total["nn.stack_forward.backbone"])
    seconds("model.heads_fwd_s", total["nn.stack_forward.heads"])
    seconds("model.loss_s", total["model.loss"])
    seconds("model.backward_s", total["model.backward"])
    seconds("model.backward_self_s", own["model.backward"])
    seconds("model.vote_s", total["model.vote"])
    dispatches = sum(tracer.within(f"{name}.{part}", "train.fit", "train.eval")
                     for name in ("nn.stack_forward", "nn.stack_backward")
                     for part in ("backbone", "heads"))
    m["model.dispatches_per_step"] = (dispatches / steps, "count")

    seconds("train.optimizer_s", total["train.optimizer"])
    count("train.optimizer_calls", calls["train.optimizer"])
    seconds("train.step_self_s", own["train.fit"])
    seconds("train.count_flops_s", total["train.count_flops"])
    seconds("train.eval_s", total["train.eval"])
    count("train.evals", calls["train.eval"])

    seconds("topology.update_s", total["topology.update"])
    count("topology.updates", calls["topology.update"])
    seconds("topology.select_prune_s", total["topology.select_prune"])
    seconds("topology.select_grow_s", total["topology.select_grow"])
    grown = both = changed = 0
    for record in history.updates:
        for layer in record.layers:
            grown += len(layer.grown)
            both += len(set(layer.grown) & set(layer.pruned))
            changed += len(layer.grown) + len(layer.pruned)
    count("topology.positions_changed", changed)
    m["topology.net_change_frac"] = ((grown - both) / grown if grown else 0.0, "fraction")

    seconds("metrics.s", sum(total[f"metrics.{fn}"] for fn in METRIC_FUNCTIONS))

    seconds("checkpoint.capture_s", total["checkpoint.capture"])
    seconds("checkpoint.save_s", total["checkpoint.save"])
    seconds("checkpoint.load_s", total["checkpoint.load"])
    seconds("checkpoint.restore_s", total["checkpoint.restore"])

    seconds("cli.history_write_s", total["cli.history_write"])
    seconds("cli.summary_write_s", total["cli.summary_write"])
    count("trace.spans", len(tracer.names))
    return m
