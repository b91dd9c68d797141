"""In-memory span tracer that wraps ensograph's public functions from outside.

Installing the tracer replaces each listed function, in every loaded
``ensograph`` module that binds it, with a wrapper that records one span
(name, start, end, parent span, group, phase, two quantities). For tape ops
the wrapper also wraps the backward closure of the returned tensor, so the
backward pass of each op gets its own span under ``adiff.backward``.
Uninstalling restores the original bindings. Nothing under ``src/`` changes.

Groups are the benchmark's units of work: one optimizer step, one eval
pass or one gradient check. Phase 0 marks set-up spans, phase 1 spans of
the traced loop.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

SETUP, LOOP = 0, 1

# Tape ops that a pipeline run calls; each gets a forward and a backward span.
# adiff.neg is left out: nothing in the package calls it.
TAPE_OPS = (
    "matmul", "dilated_conv1d", "add", "mul", "sub", "div", "tanh", "sigmoid",
    "relu", "abs_", "transpose", "reshape", "tail", "reduce_sum", "reduce_mean",
)

STAGES = (
    ("adiff", "backward"),
    ("stgnn", "forward"), ("stgnn", "temporal_block"), ("stgnn", "mixhop_conv"),
    ("stgnn", "load_checkpoint"), ("stgnn", "save_checkpoint"),
    ("graph", "learn_adjacency"), ("graph", "topk_sparsify"), ("graph", "normalize"),
    ("train", "adam_step"), ("train", "clip_gradients"), ("train", "mae_loss"),
    ("cube", "load_cube"), ("cube", "climatology"), ("cube", "anomalies"),
    ("cube", "split_by_years"), ("cube", "save_cube"),
    ("indices", "area_mean"), ("indices", "running_mean"),
    ("samples", "make_samples"),
    ("skill", "forecast_index"), ("skill", "predicted_index"), ("skill", "table_from_forecasts"),
    ("synth", "generate"),
)

# stages reported by self time or call count instead of inclusive time
_SELF_OR_COUNT = ("adiff.backward", "skill.forecast_index", "skill.predicted_index")

# forward's own remainder: the start conv, residual adds, skip and head
_FORWARD_CHILDREN = ("stgnn.temporal_block", "stgnn.mixhop_conv", "graph.learn_adjacency",
                     "graph.topk_sparsify", "graph.normalize")


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _matmul_qty(args, out):
    """(forward flops, output bytes) computed from operand shapes."""
    k = _shape(args[0])[-1]
    return 2.0 * out.data.size * k, float(out.data.nbytes)


def _conv_qty(args, out):
    _, c_in, _, k = _shape(args[1])
    return 2.0 * out.data.size * c_in * k, float(out.data.nbytes)


_QUANTITIES = {
    "adiff.matmul": _matmul_qty,
    "adiff.dilated_conv1d": _conv_qty,
    "graph.topk_sparsify": lambda args, out: (float(np.count_nonzero(out.data)), 0.0),
    "cube.load_cube": lambda args, out: (float(out.values.nbytes), 0.0),
    "samples.make_samples": lambda args, out: (float(len(out)), 0.0),
}


class Tracer:
    """Spans of every wrapped call, kept in flat arrays until the run ends.

    Set ``boundary`` before install() to advance the group after each span
    of that name; the benchmark sets ``current_group`` and ``current_phase``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.phase = array("b")
        self.q1 = array("d")
        self.q2 = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.current_group = 0
        self.current_phase = SETUP
        # when set, the group advances after each span of this name closes
        self.boundary: str | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.group.append(self.current_group)
        self.phase.append(self.current_phase)
        self.q1.append(0.0)
        self.q2.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def _wrap(self, fn, span: str, tape_op: bool):
        tracer = self
        nid = self._id(span)
        bwd_nid = self._id(span + ".bwd") if tape_op else -1
        quantity = _QUANTITIES.get(span)
        advance = span == self.boundary

        def wrap_backward(bw):
            def traced_backward(g):
                idx = tracer._open(bwd_nid)
                try:
                    bw(g)
                finally:
                    tracer._close(idx)
            return traced_backward

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if quantity is not None:
                tracer.q1[idx], tracer.q2[idx] = quantity(args, out)
            if tape_op and getattr(out, "_backward", None) is not None:
                out._backward = wrap_backward(out._backward)
            if advance:
                tracer.current_group += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every public target for its traced wrapper, in every module binding it.

        A target the package no longer has is skipped; its metrics read 0.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ensograph" or n.startswith("ensograph."))]
        targets = [("adiff", op, True) for op in TAPE_OPS] + [(m, f, False) for m, f in STAGES]
        for mod_name, fn_name, tape_op in targets:
            original = getattr(sys.modules.get(f"ensograph.{mod_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", tape_op)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "start": start, "end": end, "dur": dur, "self": dur - child,
            "name": np.frombuffer(self.name, dtype=np.int32), "parent": parent,
            "group": np.frombuffer(self.group, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
            "q1": np.frombuffer(self.q1, dtype=np.float64),
            "q2": np.frombuffer(self.q2, dtype=np.float64),
        }

    def save(self, path):
        """Write every span as arrays plus the name table (numpy .npz)."""
        arrs = self.arrays()
        np.savez(path, names=np.array(self.names), **arrs)

    def layer_metrics(self, loop_units: int, setup_reps: int,
                      time_scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per loop unit.

        A function that only set-up calls (such as synth.generate) is
        normalised per set-up repetition instead; one the workload never
        calls reads 0. Span durations are multiplied by time_scale, the
        run's factor to the reference speed.
        """
        a = self.arrays()
        a["dur"] = a["dur"] * time_scale
        a["self"] = a["self"] * time_scale
        out: dict[str, tuple[float, str]] = {}

        def select(span):
            nid = self._ids.get(span, -1)
            in_loop = (a["name"] == nid) & (a["phase"] == LOOP)
            if in_loop.any():
                return in_loop, loop_units
            return (a["name"] == nid) & (a["phase"] == SETUP), setup_reps

        def per_unit(span, field="dur", scale=1e3):
            mask, denom = select(span)
            return float(a[field][mask].sum()) * scale / max(denom, 1)

        for op in TAPE_OPS:
            span = f"adiff.{op}"
            out[f"{span}.fwd_ms"] = (per_unit(span), "ms")
            out[f"{span}.bwd_ms"] = (per_unit(span + ".bwd"), "ms")
            mask, denom = select(span)
            out[f"{span}.calls"] = (float(mask.sum()) / max(denom, 1), "count")
        for span in ("adiff.matmul", "adiff.dilated_conv1d"):
            out[f"{span}.gflop"] = (per_unit(span, "q1", 1e-9), "GFLOP-computed")
            out[f"{span}.out_mb"] = (per_unit(span, "q2", 1e-6), "MB-computed")
        out["adiff.backward.self_ms"] = (per_unit("adiff.backward", "self"), "ms")

        for span in (f"{m}.{f}" for m, f in STAGES):
            if span not in _SELF_OR_COUNT:
                out[f"{span}.ms"] = (per_unit(span), "ms")

        fwd_mask, denom = select("stgnn.forward")
        fwd_idx = np.nonzero(fwd_mask)[0]
        child_ids = [self._ids[n] for n in _FORWARD_CHILDREN if n in self._ids]
        stage_child = np.isin(a["parent"], fwd_idx) & np.isin(a["name"], child_ids)
        remainder = a["dur"][fwd_idx].sum() - a["dur"][stage_child].sum()
        out["stgnn.forward.head_skip_ms"] = (float(remainder) * 1e3 / max(denom, 1), "ms")

        mask, _ = select("graph.topk_sparsify")
        out["graph.live_edges"] = (float(a["q1"][mask].mean()) if mask.any() else 0.0, "count")
        mask, _ = select("cube.load_cube")
        seconds = float(a["dur"][mask].sum())
        out["cube.load_cube.mb_per_s"] = (float(a["q1"][mask].sum()) / 1e6 / seconds if seconds else 0.0, "MB/s")
        out["samples.make_samples.windows"] = (per_unit("samples.make_samples", "q1", 1.0), "count")
        out["skill.forecast_index.self_ms"] = (per_unit("skill.forecast_index", "self"), "ms")
        mask, denom = select("skill.predicted_index")
        out["skill.predicted_index.calls"] = (float(mask.sum()) / max(denom, 1), "count")
        return out
