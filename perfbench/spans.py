"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of the `prefdiff` modules from outside:
`src/` is never edited. Each wrapped call is a span; a span's self time is
its busy time minus the time of the spans it encloses. The tracer's own
counting (its before and after hooks) is left out of every span's time.
A function bound by `from .x import f` lives in several module namespaces,
so every `prefdiff` module attribute that *is* the original function object
gets the wrapper.

A target that no longer exists is reported as absent by name, and the
metrics derived from it are left out of the result: an absent layer never
reads as zero.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

# (span name, module, attribute path). A dotted attribute is a method that
# is patched on its class.
TARGETS = [
    ("autodiff.backward", "prefdiff.autodiff", "Tensor.backward"),
    ("autodiff.gather", "prefdiff.autodiff", "gather"),
    ("autodiff.matmul", "prefdiff.autodiff", "matmul"),
    ("encoder.encode_batch", "prefdiff.encoder", "encode_batch"),
    ("encoder.encode_history", "prefdiff.encoder", "encode_history"),
    ("diffusion.denoise", "prefdiff.diffusion", "denoise"),
    ("diffusion.reverse_step", "prefdiff.diffusion", "reverse_step"),
    ("trainer.train", "prefdiff.trainer", "train"),
    ("trainer.train_step", "prefdiff.trainer", "train_step"),
    ("trainer.compute_batch_loss", "prefdiff.trainer", "compute_batch_loss"),
    ("trainer.sample_draws", "prefdiff.trainer", "sample_draws"),
    ("trainer.build_examples", "prefdiff.trainer", "build_examples"),
    ("trainer.adam_update", "prefdiff.trainer", "AdamState.update"),
    ("evaluate.evaluate", "prefdiff.evaluate", "evaluate"),
    ("evaluate.infer_user", "prefdiff.evaluate", "infer_user"),
    ("data.load_ratings", "prefdiff.data", "load_ratings"),
    ("data.build_histories", "prefdiff.data", "build_histories"),
    ("params.save_checkpoint", "prefdiff.params", "save_checkpoint"),
    ("params.load_checkpoint", "prefdiff.params", "load_checkpoint"),
    ("variants.pipeline", "prefdiff.variants", "Pipeline.clean_state"),
    ("variants.pipeline", "prefdiff.variants", "Pipeline.noise_mask"),
    ("variants.pipeline", "prefdiff.variants", "Pipeline.score_embedding"),
    ("variants.pipeline", "prefdiff.variants", "Pipeline.inference_init"),
]

# The span each per-layer metric derives from (None: the tracer's own), the
# end-to-end metric it should move and the workload where it moves most.
# BENCHMARK.json declares the metrics' names, units and directions.
PER_LAYER = {
    "autodiff.backward.calls": ("autodiff.backward", "train_examples_per_s", "train_c8"),
    "autodiff.backward.busy_s": ("autodiff.backward", "train_examples_per_s", "train_c8"),
    "autodiff.backward.self_s": ("autodiff.backward", "train_examples_per_s", "train_c8"),
    "autodiff.graph_nodes_per_step": ("autodiff.backward", "train_examples_per_s", "train_c8"),
    "autodiff.gather.fwd_s": ("autodiff.gather", "train_examples_per_s", "train_c8"),
    "autodiff.gather.bwd_s": ("autodiff.gather", "train_examples_per_s", "train_c8"),
    "autodiff.matmul.fwd_s": ("autodiff.matmul", "train_examples_per_s", "train_c8"),
    "autodiff.matmul.bwd_s": ("autodiff.matmul", "train_examples_per_s", "train_c8"),
    "autodiff.eval_graph_frac": ("diffusion.denoise", "eval_users_per_s", "eval_c8_omega"),
    "encoder.encode_batch.calls": ("encoder.encode_batch", "train_examples_per_s", "train_c8"),
    "encoder.encode_batch.busy_s": ("encoder.encode_batch", "train_examples_per_s", "train_c8"),
    "encoder.encode_history.calls": ("encoder.encode_history", "eval_users_per_s", "eval_c8_omega"),
    "encoder.encode_history.busy_s": ("encoder.encode_history", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.denoise.calls": ("diffusion.denoise", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.denoise.busy_s": ("diffusion.denoise", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.denoise.rows_per_call": ("diffusion.denoise", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.reverse_step.calls": ("diffusion.reverse_step", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.reverse_step.busy_s": ("diffusion.reverse_step", "eval_users_per_s", "eval_c8_omega"),
    "diffusion.reverse_step.self_s": ("diffusion.reverse_step", "eval_users_per_s", "eval_c8_omega"),
    "trainer.train.busy_s": ("trainer.train", "train_examples_per_s", "train_c8"),
    "trainer.train_step.calls": ("trainer.train_step", "train_examples_per_s", "train_c8"),
    "trainer.train_step.busy_s": ("trainer.train_step", "train_examples_per_s", "train_c8"),
    "trainer.train_step.self_s": ("trainer.train_step", "train_examples_per_s", "train_c8"),
    "trainer.compute_batch_loss.self_s": ("trainer.compute_batch_loss", "train_examples_per_s", "train_c8"),
    "trainer.sample_draws.busy_s": ("trainer.sample_draws", "train_examples_per_s", "train_c8"),
    "trainer.build_examples.busy_s": ("trainer.build_examples", "train_examples_per_s", "train_c8"),
    "trainer.adam_update.busy_s": ("trainer.adam_update", "train_examples_per_s", "train_c8"),
    "trainer.adam_update.useful_row_frac": ("trainer.adam_update", "train_examples_per_s", "train_c8"),
    "evaluate.evaluate.busy_s": ("evaluate.evaluate", "eval_users_per_s", "eval_c8_omega"),
    "evaluate.evaluate.self_s": ("evaluate.evaluate", "eval_users_per_s", "eval_c8_omega"),
    "evaluate.infer_user.calls": ("evaluate.infer_user", "eval_users_per_s", "eval_c8_omega"),
    "evaluate.infer_user.busy_s": ("evaluate.infer_user", "eval_users_per_s", "eval_c8_omega"),
    "evaluate.infer_user.self_s": ("evaluate.infer_user", "eval_users_per_s", "eval_c8_omega"),
    "data.load_ratings.calls": ("data.load_ratings", "run_s", "eval_c8_omega"),
    "data.load_ratings.busy_s": ("data.load_ratings", "run_s", "eval_c8_omega"),
    "data.build_histories.busy_s": ("data.build_histories", "run_s", "eval_c8_omega"),
    "params.save_checkpoint.busy_s": ("params.save_checkpoint", "run_s", "train_c8"),
    "params.save_checkpoint.bytes": ("params.save_checkpoint", "run_s", "train_c8"),
    "params.load_checkpoint.busy_s": ("params.load_checkpoint", "run_s", "eval_c8_omega"),
    "variants.pipeline.busy_s": ("variants.pipeline", "run_s", "train_c8"),
    "trace.overhead_frac": (None, None, "all"),
}


class Tracer:
    """Span statistics for one traced repetition; install, run, uninstall."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        self.calls.setdefault(name, 0)
        self.busy.setdefault(name, 0.0)
        self.child.setdefault(name, 0.0)
        self.active.setdefault(name, 0)
        calls, busy, child, active = self.calls, self.busy, self.child, self.active
        stack, clock = self._stack, time.perf_counter

        def hook(count, *args):
            # A hook is the tracer's own work: its time leaves every open span.
            start = clock()
            count(*args)
            if stack:
                stack[-1][1] += clock() - start

        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            active[name] += 1
            stack.append([0.0, 0.0])    # [time in child spans, time in hooks]
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                inner, hooks = stack.pop()
                elapsed = clock() - start - hooks
                active[name] -= 1
                calls[name] += 1
                busy[name] += elapsed
                child[name] += inner
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += hooks
            if after is not None:
                hook(after, out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def _hooks(self, name: str):
        """Counters taken at the same boundary as the span."""
        if name == "autodiff.backward":
            def before(args, kwargs):
                self._add("graph_nodes", _reachable_nodes(args[0]))
            return before, None
        if name in ("autodiff.gather", "autodiff.matmul"):
            bwd_name = name + ".bwd"

            def after(out, args, kwargs):
                if out._backward_fn is not None:
                    out._backward_fn = self._span(bwd_name, out._backward_fn)
            return None, after
        if name == "diffusion.denoise":
            def after(out, args, kwargs):
                self._add("denoise_rows", out.shape[0])
                if self.active.get("evaluate.evaluate"):
                    self._add("eval_outputs", 1)
                    self._add("eval_graphs", out._backward_fn is not None)
            return None, after
        if name == "trainer.adam_update":
            def before(args, kwargs):
                useful, rows = _gradient_rows(args[1])
                self._add("adam_useful_rows", useful)
                self._add("adam_rows", rows)
            return before, None
        if name == "params.save_checkpoint":
            def after(out, args, kwargs):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self._add("checkpoint_bytes", _dir_bytes(path))
            return None, after
        return None, None

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        importlib.import_module("prefdiff.cli")
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(name, original, *self._hooks(name))
            if owner:
                self._patch(holder, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "prefdiff" and \
                        getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapper)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, names, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Each of the named per-layer metrics whose span was installed."""
        calls, busy, child, extra = self.calls, self.busy, self.child, self.extra

        def ratio(num: str, den: str) -> float:
            return extra.get(num, 0.0) / extra[den] if extra.get(den) else 0.0

        derived = {
            "autodiff.graph_nodes_per_step":
                extra.get("graph_nodes", 0.0) / calls["autodiff.backward"]
                if calls.get("autodiff.backward") else 0.0,
            "autodiff.gather.fwd_s": busy.get("autodiff.gather"),
            "autodiff.gather.bwd_s": busy.get("autodiff.gather.bwd", 0.0),
            "autodiff.matmul.fwd_s": busy.get("autodiff.matmul"),
            "autodiff.matmul.bwd_s": busy.get("autodiff.matmul.bwd", 0.0),
            "autodiff.eval_graph_frac": ratio("eval_graphs", "eval_outputs"),
            "diffusion.denoise.rows_per_call":
                extra.get("denoise_rows", 0.0) / calls["diffusion.denoise"]
                if calls.get("diffusion.denoise") else 0.0,
            "trainer.adam_update.useful_row_frac":
                ratio("adam_useful_rows", "adam_rows"),
            "params.save_checkpoint.bytes": extra.get("checkpoint_bytes", 0.0),
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }
        out: dict[str, float] = {}
        for metric in names:
            span = PER_LAYER[metric][0]
            if span is not None and span not in calls:
                continue
            if metric in derived:
                out[metric] = float(derived[metric])
                continue
            stat = metric[len(span) + 1:]
            if stat == "calls":
                out[metric] = float(calls[span])
            elif stat == "busy_s":
                out[metric] = busy[span]
            elif stat == "self_s":
                out[metric] = busy[span] - child[span]
            else:
                raise KeyError(metric)
        return out


def _reachable_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _gradient_rows(params) -> tuple[int, int]:
    """(rows with a nonzero gradient, rows the update touches); a vector or
    scalar parameter counts as one row."""
    useful = rows = 0
    for tensor in params.arrays.values():
        if tensor.grad is None:
            continue
        g = np.asarray(tensor.grad)
        g = g.reshape(g.shape[0], -1) if g.ndim >= 2 else g.reshape(1, -1)
        rows += g.shape[0]
        useful += int(np.count_nonzero(np.any(g != 0, axis=1)))
    return useful, rows


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
