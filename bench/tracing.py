"""Span tracing of saflab from outside the package.

Wrappers are installed on saflab's public functions and methods and removed
again afterwards; no file of the package changes.  A caller reaches a
function through whatever name its module bound at import time
(``saflab.training.cross_entropy``, ``saflab.losses.add``, ...), so
:class:`Patcher` replaces the function in every ``saflab`` module namespace
that holds it, not only where it is defined.

:class:`Tracer` keeps one span stack per thread (the ablation fan-out runs
seeds on threads) and folds every closed span into in-memory aggregates:
calls, inclusive time and self time, where self time is the span's duration
minus the time covered by its child spans.  Aggregates are keyed by span
name and by phase -- ``step`` inside ``train_step``, ``eval`` inside
``evaluate``, ``other`` elsewhere -- so a per-step figure does not mix in
evaluation work.  Raw spans are kept only for the few names asked for.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

PHASE_OF = {"training.train_step": "step", "training.evaluate": "eval"}

OP_KINDS = (
    "matmul", "add_bias", "add", "scale_shift", "mul_colvec", "relu", "sigmoid",
    "softmax_rows", "dropout", "batch_norm", "grad_reverse", "take_rows", "concat_rows",
)
BLOCKS = ("F", "B", "C", "D", "M")
TRAIN_LOSSES = ("cross_entropy", "cross_entropy_divergence", "dann_domain_loss",
                "mdd_adversarial_loss")
KEEP_RAW = ("runs.ablation", "runs.variant", "runs.seed_run")


class _ThreadState:
    __slots__ = ("ident", "stack", "phases", "agg")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack: list[list] = []  # [name, start, child_time, group]
        self.phases: list[str] = []
        self.agg: dict[tuple[str, str], list[float]] = {}

    @property
    def phase(self) -> str:
        return self.phases[-1] if self.phases else "other"


class Tracer:
    """Per-thread span stacks folded into (name, phase) aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.raw: list[tuple] = []  # (name, start, end, parent, thread ident)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    @staticmethod
    def _add(st: _ThreadState, key, calls, total, self_time):
        a = st.agg.get(key)
        if a is None:
            st.agg[key] = [calls, total, self_time]
        else:
            a[0] += calls
            a[1] += total
            a[2] += self_time

    def phase(self) -> str:
        return self._state().phase

    def open(self, name: str, group: str | None = None) -> None:
        st = self._state()
        if name in PHASE_OF:
            st.phases.append(PHASE_OF[name])
        st.stack.append([name, self.clock(), 0.0, group])

    def close(self) -> None:
        end = self.clock()
        st = self._state()
        name, start, child, group = st.stack.pop()
        dur = end - start
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[2] += dur
        self._add(st, (name, st.phase), 1, dur, dur - child)
        if group is not None and not any(f[3] == group for f in st.stack):
            # outermost span of its group: its inclusive time counts once
            self._add(st, (group, st.phase), 1, dur, dur)
        if name in PHASE_OF:
            st.phases.pop()
        if name in KEEP_RAW:
            with self._lock:
                self.raw.append((name, start, end, parent[0] if parent else None, st.ident))

    def count(self, name: str, n: float = 1) -> None:
        st = self._state()
        self._add(st, (name, st.phase), n, 0.0, 0.0)

    def aggregates(self) -> dict[tuple[str, str], tuple[float, float, float]]:
        """Merged (calls, total seconds, self seconds) per (name, phase)."""
        out: dict[tuple[str, str], list[float]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (c, t, s) in st.agg.items():
                a = out.setdefault(key, [0, 0.0, 0.0])
                a[0] += c
                a[1] += t
                a[2] += s
        return {k: tuple(v) for k, v in out.items()}


def saflab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "saflab" or n.startswith("saflab."))]


class Patcher:
    """Replace attributes and remember the originals, restoring them all."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def patch_function(self, original, wrapper) -> int:
        """Rebind ``original`` to ``wrapper`` in every saflab module; returns how many."""
        bound = 0
        for mod in saflab_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                    bound += 1
        return bound

    def patch_method(self, cls, name, wrapper) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _span(tracer: Tracer, name: str, fn, group: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name, group)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return wrapper


class _TimedBatches:
    """Iterator proxy that times each ``next()`` on a batch stream."""

    __slots__ = ("_it", "_tracer")

    def __init__(self, it, tracer):
        self._it = it
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.open("data.batch_wait")
        try:
            return next(self._it)
        finally:
            self._tracer.close()


def install(tracer: Tracer, patcher: Patcher) -> list[str]:
    """Install every span wrapper; returns the targets that saflab lacks."""
    import saflab.autodiff as ad
    import saflab.data as data
    import saflab.losses as losses
    import saflab.mixup as mixup
    import saflab.networks as networks
    import saflab.runs as runs
    import saflab.training as training

    missing: list[str] = []

    def fn(module, attr, wrap):
        original = getattr(module, attr, None)
        if original is None or patcher.patch_function(original, wrap(original)) == 0:
            missing.append(f"{module.__name__}.{attr}")

    def span(module, attr, name, group=None):
        fn(module, attr, lambda f: _span(tracer, name, f, group))

    span(training, "train_step", "training.train_step")
    span(training, "evaluate", "training.evaluate")
    span(training, "run_experiment", "runs.seed_run")
    span(runs, "run_with_seeds", "runs.variant")
    span(data, "load_csv", "data.load_csv")
    span(ad, "sgd_nesterov_step", "autodiff.sgd")
    for kind in OP_KINDS:
        span(ad, kind, f"autodiff.op.{kind}")
    span(losses, "empirical_h_divergence", "losses.h_div")
    span(losses, "empirical_margin_disparity", "losses.margin")
    for loss in TRAIN_LOSSES:
        span(losses, loss, f"losses.{loss}", group="losses.train_loss")
    span(mixup, "pseudo_label_probs", "mixup.pseudo_label")
    span(mixup, "saf_supervision_loss", "mixup.supervision")

    def wrap_backward(f):
        @functools.wraps(f)
        def backward(loss, tape):
            tracer.count("autodiff.tape_nodes", len(getattr(tape, "nodes", ())))
            tracer.open("autodiff.backward")
            try:
                return f(loss, tape)
            finally:
                tracer.close()
        return backward

    def wrap_cycle(f):
        @functools.wraps(f)
        def cycle_batches(*args, **kwargs):
            return _TimedBatches(f(*args, **kwargs), tracer)
        return cycle_batches

    def wrap_grid(f):
        @functools.wraps(f)
        def axis_stump_grid(*args, **kwargs):
            stumps = f(*args, **kwargs)
            tracer.count("losses.h_div.hypotheses", len(stumps))
            return stumps
        return axis_stump_grid

    def wrap_mixup(f):
        @functools.wraps(f)
        def saf_mixup_batch(tape, bundle, target_features, *args, **kwargs):
            tracer.open("mixup.batch")
            try:
                mixed = f(tape, bundle, target_features, *args, **kwargs)
            finally:
                tracer.close()
            tracer.count("mixup.offered_rows", target_features.rows)
            tracer.count("mixup.mixed_rows", len(mixed))
            if len(mixed) < 2:
                tracer.count("mixup.skipped")
            return mixed
        return saf_mixup_batch

    def wrap_ablation(f):
        @functools.wraps(f)
        def run_ablation(*args, **kwargs):
            tracer.open("runs.ablation")
            try:
                table = f(*args, **kwargs)
            finally:
                tracer.close()
            rows = table.read_text(encoding="utf-8").splitlines()[1:]
            tracer.count("runs.failed_variants", sum(not r.endswith(",ok") for r in rows))
            return table
        return run_ablation

    fn(ad, "backward", wrap_backward)
    fn(data, "cycle_batches", wrap_cycle)
    fn(losses, "axis_stump_grid", wrap_grid)
    fn(mixup, "saf_mixup_batch", wrap_mixup)
    fn(runs, "run_ablation", wrap_ablation)

    tensor_init = ad.Tensor.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count("autodiff.tensors")
        tensor_init(self, *args, **kwargs)

    patcher.patch_method(ad.Tensor, "__init__", counted_init)

    forward = networks.MLP.forward

    def traced_forward(self, tape, x, training=False, rng=None):
        if tape is None and not training and tracer.phase() == "step":
            tracer.count("networks.eval_fwd")
        tracer.open(f"networks.{self.name.split('.', 1)[0]}.fwd")
        try:
            return forward(self, tape, x, training, rng)
        finally:
            tracer.close()

    patcher.patch_method(networks.MLP, "forward", traced_forward)
    patcher.patch_method(networks.ModelBundle, "save_params",
                         _span(tracer, "training.save_params",
                               networks.ModelBundle.save_params))
    return missing


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module figures, normalised per train step or per call (see README)."""
    agg = tracer.aggregates()

    def get(name, phase=None):
        calls = total = self_t = 0.0
        for (n, p), (c, t, s) in agg.items():
            if n == name and (phase is None or p == phase):
                calls += c
                total += t
                self_t += s
        return calls, total, self_t

    def per(a, b):
        return a / b if b else 0.0

    steps = get("training.train_step")[0]
    m: dict[str, float] = {}

    def ms_per_call(metric, name, phase=None, own=False):
        calls, total, self_t = get(name, phase)
        m[metric] = 1e3 * per(self_t if own else total, calls)

    ms_per_call("training.train_step.self_ms", "training.train_step", own=True)
    ms_per_call("training.evaluate.self_ms", "training.evaluate", own=True)
    m["training.evaluate.calls"] = per(get("training.evaluate")[0], steps)
    ms_per_call("training.save_params_ms", "training.save_params")

    m["data.batch_wait_ms"] = 1e3 * per(get("data.batch_wait")[1], steps)
    ms_per_call("data.load_csv_ms", "data.load_csv")
    m["data.load_csv.calls"] = per(get("data.load_csv")[0], steps)

    ms_per_call("autodiff.backward_ms", "autodiff.backward")
    ms_per_call("autodiff.sgd_ms", "autodiff.sgd")
    m["autodiff.tape_nodes"] = per(get("autodiff.tape_nodes")[0],
                                   get("autodiff.backward")[0])
    m["autodiff.tensors"] = per(get("autodiff.tensors", "step")[0], steps)
    for kind in OP_KINDS:
        name = f"autodiff.op.{kind}"
        m[f"{name}.calls"] = per(get(name)[0], steps)
        ms_per_call(f"{name}.self_ms", name, own=True)

    for block in BLOCKS:
        name = f"networks.{block}.fwd"
        ms_per_call(f"networks.{block}.fwd_ms", name)
        m[f"networks.{block}.fwd_calls"] = per(get(name)[0], steps)
    m["networks.eval_fwd_calls"] = per(get("networks.eval_fwd", "step")[0], steps)

    ms_per_call("losses.h_div_ms", "losses.h_div")
    m["losses.h_div.hypotheses"] = per(get("losses.h_div.hypotheses")[0],
                                       get("losses.h_div")[0])
    ms_per_call("losses.margin_ms", "losses.margin")
    m["losses.train_loss_ms"] = 1e3 * per(get("losses.train_loss", "step")[1], steps)

    ms_per_call("mixup.batch_ms", "mixup.batch", "step")
    ms_per_call("mixup.pseudo_label_ms", "mixup.pseudo_label", "step")
    ms_per_call("mixup.supervision_ms", "mixup.supervision", "step")
    m["mixup.rows_kept_ratio"] = per(get("mixup.mixed_rows", "step")[0],
                                     get("mixup.offered_rows", "step")[0])
    m["mixup.skipped_steps_ratio"] = per(get("mixup.skipped", "step")[0],
                                         get("mixup.batch", "step")[0])

    m.update(runs_metrics(tracer.raw, get("runs.failed_variants")[0],
                          get("runs.ablation")[0]))
    return m


def runs_metrics(raw, failed_variants: float, ablations: float) -> dict[str, float]:
    """Fan-out figures from the spans at the run_with_seeds / run_ablation boundary.

    A seed run belongs to the variant whose span contains its start; the
    variant spans run one after another, so each seed run has one variant.
    Pool figures are 0 for a workload that runs no pool.
    """
    variants = [(s, e) for n, s, e, _, _ in raw if n == "runs.variant"]
    seeds = [(s, e, tid) for n, s, e, _, tid in raw if n == "runs.seed_run"]
    workers, pooled = [], 0.0
    for vs, ve in variants:
        inside = [(s, e, tid) for s, e, tid in seeds if vs <= s <= ve]
        workers.append(len({tid for _, _, tid in inside}))
        pooled += sum(e - s for s, e, _ in inside)
    pool_wall = sum(e - s for s, e in variants)
    return {
        "runs.workers": statistics.fmean(workers) if workers else 0.0,
        "runs.variant_wall_s": statistics.median(e - s for s, e in variants) if variants else 0.0,
        "runs.seed_run_s_p50": statistics.median(e - s for s, e, _ in seeds) if seeds else 0.0,
        "runs.concurrency": pooled / pool_wall if pool_wall else 0.0,
        "runs.failed_variants": failed_variants / ablations if ablations else 0.0,
    }
