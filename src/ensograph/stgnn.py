"""Spatiotemporal graph network forecasting node anomalies at several leads.

Activations are node-major, [N, B, T, C], from the start projection to the
head, and every learned stage is one adiff.matmul node, which contracts the
last axis of its left operand with the first axis of its right one: a
channel projection is x @ w + b with a 2-D weight [C_in, C_out] and a
[C_out] bias, and the node mix is A @ x with an [N, N] adjacency.

Architecture, per forward pass: a channel projection lifts the input months
(transposed once from [B, 1, N, T] to [N, B, T, 1]) to the residual width,
then each layer applies a gated dilated temporal convolution (one weight
whose first half of output columns is the tanh filter and second half the
sigmoid gate; valid-only, so time shrinks and no padding leaks), a mix-hop
graph convolution over the adjacency learned from node embeddings (the
layer input and its hops along both edge directions, side by side on the
channel axis and projected once), a residual add of the input's trailing
months, and a skip projection: a time convolution of length L, the time
axis a window of w months leaves at that layer. The relu'd skip sum feeds
two projections that emit one channel per lead, [N, B, P, H], reshaped to
[N, B*P, H] and transposed once more to [B*P, H, N].

The temporal convolution, the residual and the skip each join shifted time
slices on the channel axis with one adiff.taps node, so every stage is
convolutional in time: a sequence of T >= w consecutive months holds its
P = T - w + 1 windows, and one pass over it gives each window's forecast
(row b*P + p for the window ending at month p + w - 1 of batch row b) with
the bytes a forward of that window alone would give.

Temporal receptive field is 1 + sum(dilation_l * (K - 1)); configs whose
receptive field exceeds the window are rejected outright.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import adiff
from .adiff import Tensor
from .errors import NumericalError, ValidationError, _check_types
from .graph import GraphLearnConfig, learn_adjacency, normalize, topk_sparsify
from .grid import GridSpec

CHECKPOINT_VERSION = 3
_INT_FIELDS = ("n_nodes", "horizon", "window", "layers", "residual_channels", "conv_channels",
               "skip_channels", "end_channels", "kernel_size", "mixhop_depth", "seed")


@dataclass(frozen=True)
class ModelConfig:
    n_nodes: int
    horizon: int
    window: int = 3
    layers: int = 2
    residual_channels: int = 16
    conv_channels: int = 16
    skip_channels: int = 32
    end_channels: int = 64
    kernel_size: int = 2
    dilations: tuple[int, ...] = (1, 1)
    mixhop_depth: int = 2
    beta: float = 0.05
    graph: GraphLearnConfig = field(default_factory=GraphLearnConfig)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.graph, dict):
            object.__setattr__(self, "graph", GraphLearnConfig(**self.graph))
        if not isinstance(self.graph, GraphLearnConfig):
            raise TypeError(f"graph {self.graph!r} is not an object")
        if not isinstance(self.dilations, (list, tuple)):
            raise TypeError(f"dilations {self.dilations!r} is not a list")
        object.__setattr__(self, "dilations", tuple(self.dilations))
        _check_types([(name, getattr(self, name)) for name in _INT_FIELDS]
                     + [("dilations", d) for d in self.dilations], [("beta", self.beta)])
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if len(self.dilations) != self.layers:
            raise ValueError(
                f"need one dilation per layer: {self.layers} layers, {len(self.dilations)} dilations"
            )
        if any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be >= 1")
        for name in ("residual_channels", "conv_channels", "skip_channels",
                     "end_channels", "kernel_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.mixhop_depth < 0:
            raise ValueError("mixhop_depth must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        rf = self.receptive_field
        if rf > self.window:
            raise ValueError(
                f"receptive field {rf} exceeds window {self.window} "
                f"(kernel {self.kernel_size}, dilations {self.dilations})"
            )
        if self.graph.topk > self.n_nodes:
            raise ValueError(f"topk {self.graph.topk} exceeds n_nodes {self.n_nodes}")

    @property
    def receptive_field(self) -> int:
        return 1 + sum(d * (self.kernel_size - 1) for d in self.dilations)

    def time_lengths(self) -> list[int]:
        """Time-axis length entering each layer and leaving the last."""
        out = [self.window]
        for d in self.dilations:
            out.append(out[-1] - d * (self.kernel_size - 1))
        return out

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["dilations"] = list(self.dilations)
        return d


class ModelParams:
    """Named parameter tensors in a fixed order."""

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self):
        for t in self._tensors.values():
            t.zero_grad()


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) for every tensor, in initialization order."""
    cr, cc = config.residual_channels, config.conv_channels
    cs, ce = config.skip_channels, config.end_channels
    K, D = config.kernel_size, config.mixhop_depth
    lengths = config.time_lengths()
    shapes: list[tuple[str, tuple[int, ...], int]] = [
        ("e1", (config.n_nodes, config.graph.embed_dim), 0),
        ("e2", (config.n_nodes, config.graph.embed_dim), 0),
        ("start_w", (1, cr), 1),
        ("start_b", (cr,), 1),
    ]
    for l in range(config.layers):
        t_out = lengths[l + 1]
        shapes += [
            # row k*cr + c reads channel c of time slice k; filter columns first, then gate
            (f"l{l}_tcn_w", (K * cr, 2 * cc), cr * K),
            (f"l{l}_tcn_b", (2 * cc,), cr * K),
            # row s*cc + c reads channel c of state s; fan_in of one hop block,
            # so each block starts on the per-hop bound
            (f"l{l}_mix_w", ((2 * D + 1) * cc, cr), cc),
            (f"l{l}_mix_b", (cr,), cc),
            # row t*cr + c reads channel c at time t
            (f"l{l}_skip_w", (t_out * cr, cs), cr * t_out),
            (f"l{l}_skip_b", (cs,), cr * t_out),
        ]
    shapes += [
        ("end1_w", (cs, ce), cs),
        ("end1_b", (ce,), cs),
        ("end2_w", (ce, config.horizon), ce),
        ("end2_b", (config.horizon,), ce),
    ]
    return shapes


def init_params(config: ModelConfig, seed: int | None = None, dtype=np.float32) -> ModelParams:
    """Fresh parameters, fully determined by the seed.

    Embeddings are standard normal scaled by 0.1; every other tensor is
    uniform on [-b, b] with b = sqrt(1 / fan_in).
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    tensors = {}
    for name, shape, fan_in in param_shapes(config):
        if name in ("e1", "e2"):
            data = rng.standard_normal(shape) * 0.1
        else:
            bound = float(np.sqrt(1.0 / fan_in))
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(data.astype(dtype), requires_grad=True)
    return ModelParams(tensors)


def temporal_block(x, w, b, dilation: int) -> Tensor:
    """Gated temporal convolution on node-major x [N, B, T, C]: tanh(filter) * sigmoid(gate).

    One adiff.taps node joins the K = w.shape[0] / C time slices
    x[:, :, k*dilation : k*dilation + T_out] on the channel axis, so one
    matmul with w [K*C, 2*C_out] (row k*C + c) and b is the dilated
    convolution. Its first C_out output columns are the filter, the last
    C_out the gate, and adiff.gated joins them. Valid-only, so
    T_out = T - dilation*(K - 1); the output is [N, B, T_out, C_out].
    """
    K = w.shape[0] // x.shape[3]
    slices = adiff.taps(x, range(0, K * dilation, dilation), x.shape[2] - dilation * (K - 1))
    return adiff.gated(adiff.matmul(slices, w, b))


def _check_row_stochastic(a: Tensor):
    sums = a.data.sum(axis=1)
    if not np.all(np.isfinite(sums)):
        raise NumericalError("non-finite adjacency row sum entering mix-hop propagation")
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > 1e-4:
        raise ValueError(f"adjacency is not row-stochastic (row sum off by {worst:.2e})")


def mixhop_conv(h, a_fwd, a_bwd, beta, depth: int, w, b) -> Tensor:
    """Mix-hop propagation of node-major h [N, B, T, C] along both edge directions, projected once.

    Hop j keeps beta of the layer input and propagates the rest:
    h0 = h, hj = beta*h + ((1-beta)*A) @ hj-1, where A @ h mixes the node
    axis; 1-beta scales each [N, N] adjacency once, so a hop is one matmul
    and one add. The states [h, fwd hops 1..depth, bwd hops 1..depth] are
    joined on the channel axis and w [(2*depth+1)*C, C_out] (row s*C + c
    for state s) projects them with b in one matmul. Both adjacencies must
    be row-stochastic; the check runs before the scaling.
    """
    _check_row_stochastic(a_fwd)
    _check_row_stochastic(a_bwd)
    kept = adiff.mul(h, beta)
    states = [h]
    for a in (a_fwd, a_bwd):
        a, state = adiff.mul(a, 1.0 - beta), h
        for _ in range(depth):
            state = adiff.add(kept, adiff.matmul(a, state))
            states.append(state)
    return adiff.matmul(adiff.concat(states, -1), w, b)


def _check_finite(t: Tensor, layer: int, stage: str):
    if not np.all(np.isfinite(t.data)):
        raise NumericalError(f"non-finite activation at layer {layer} ({stage})")


def forward(params: ModelParams, config: ModelConfig, x: Tensor) -> Tensor:
    """Full model: months [B, 1, N, T] -> per-lead node predictions [B*P, H, N].

    T may be any length >= the window w; row b*P + p, with P = T - w + 1,
    is the forecast from the window ending at month p + w - 1 of batch row
    b, so T = w gives [B, H, N]. One transpose takes the input to node-major
    [N, B, T, 1]; every stage after it runs node-major, and the head's
    [N, B, P, H] is reshaped to [N, B*P, H] and transposed back once. Layer
    l's skip joins the L = time_lengths()[l + 1] shifted slices
    h[:, :, j : j + P] on the channel axis (row j*C + c of the skip weight
    reads channel c at position j) and projects them in one matmul.
    """
    x = adiff.as_tensor(x)
    if x.ndim != 4 or x.shape[1:3] != (1, config.n_nodes) or x.shape[3] < config.window:
        raise ValueError(f"input shape {x.shape} does not match [B, 1, {config.n_nodes}, T >= {config.window}]")
    if not np.all(np.isfinite(x.data)):
        raise NumericalError("non-finite model input")

    a_raw = learn_adjacency(params["e1"], params["e2"], config.graph.alpha)
    a_sparse = topk_sparsify(a_raw, config.graph.topk)
    a_fwd = normalize(a_sparse)
    a_bwd = normalize(adiff.transpose(a_sparse, (1, 0)))

    P = x.shape[3] - config.window + 1
    h = adiff.matmul(adiff.transpose(x, (2, 0, 3, 1)), params["start_w"], params["start_b"])
    skip = None
    for l in range(config.layers):
        t = temporal_block(h, params[f"l{l}_tcn_w"], params[f"l{l}_tcn_b"], config.dilations[l])
        _check_finite(t, l, "temporal")
        g = mixhop_conv(t, a_fwd, a_bwd, config.beta, config.mixhop_depth,
                        params[f"l{l}_mix_w"], params[f"l{l}_mix_b"])
        T, t_out = h.shape[2], t.shape[2]
        h = adiff.add(g, adiff.taps(h, range(T - t_out, T - t_out + 1), t_out))
        _check_finite(h, l, "residual")
        s = adiff.matmul(adiff.taps(h, range(t_out - P + 1), P), params[f"l{l}_skip_w"], params[f"l{l}_skip_b"])
        skip = s if skip is None else adiff.add(skip, s)

    out = adiff.relu(skip)
    out = adiff.relu(adiff.matmul(out, params["end1_w"], params["end1_b"]))
    out = adiff.matmul(out, params["end2_w"], params["end2_b"])  # [N, B, P, H]
    return adiff.transpose(adiff.reshape(out, (config.n_nodes, -1, config.horizon)), (1, 2, 0))


def predicted_index(node_preds: np.ndarray, observed_tail, weights: np.ndarray, k: int) -> np.ndarray:
    """Smoothed index forecasts from per-lead node predictions.

    node_preds is [..., H, N]; observed_tail [..., half] holds the area-mean
    observations at leads <= 0, newest last (so tail[..., -1] is lead 0),
    with the same leading axes. Lead-l area means for l >= 1 come from the
    predictions. Returns [..., n_max]: the centered k-month mean labeled at
    each feasible lead, starting at lead 1. Every leading index is computed
    at once, as one weighted sum over nodes and one k-wide sliding mean.
    """
    node_preds = np.asarray(node_preds, dtype=np.float64)
    observed_tail = np.atleast_1d(np.asarray(observed_tail, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if node_preds.ndim < 2 or node_preds.shape[-1] != weights.size:
        raise ValueError(f"node_preds {node_preds.shape} does not match {weights.size} weights")
    if observed_tail.shape[:-1] != node_preds.shape[:-2]:
        raise ValueError(
            f"observed_tail {observed_tail.shape} and node_preds {node_preds.shape} "
            "differ in their leading axes"
        )
    H = node_preds.shape[-2]
    half = k // 2
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 1, got {k}")
    if observed_tail.shape[-1] < half:
        raise ValueError(f"need {half} trailing observations for k={k}, got {observed_tail.shape[-1]}")
    n_max = H - (k - 1 - half)
    if n_max < 1:
        raise ValueError(f"horizon {H} too short for k={k} smoothing")
    pred_means = node_preds @ weights / weights.sum()  # lead 1..H
    # leads 1-half..H, so the window of output lead n starts at position n-1
    series = np.concatenate(
        [observed_tail[..., observed_tail.shape[-1] - half:], pred_means], axis=-1
    )
    return np.lib.stride_tricks.sliding_window_view(series, k, axis=-1).mean(axis=-1)


# ------------------------------------------------------------- persistence

@dataclass
class Checkpoint:
    """A model and what evaluation and edge export need to rebuild its inputs. Every
    field is checked here, so save_checkpoint refuses what load_checkpoint would."""

    params: ModelParams
    config: ModelConfig
    input_scale: float
    seed: int
    base_period: tuple[int, int]
    grid: GridSpec
    nodes: list[tuple[int, int]]

    def __post_init__(self):
        bp, nodes, grid = self.base_period, self.nodes, self.grid
        if not (isinstance(bp, (list, tuple)) and len(bp) == 2):
            raise TypeError(f"base_period {bp!r} is not a pair of years")
        if not (isinstance(nodes, (list, tuple))
                and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in nodes)):
            raise TypeError("nodes are not a list of index pairs")
        _check_types([("seed", self.seed)] + [("base_period", y) for y in bp]
                     + [("nodes", v) for p in nodes for v in p])
        self.base_period, self.nodes = tuple(bp), [tuple(p) for p in nodes]
        if not (isinstance(self.input_scale, float) and 0 < self.input_scale < np.inf):
            raise ValueError(f"input_scale {self.input_scale!r} is not a positive finite float")
        if bp[0] > bp[1]:
            raise ValueError(f"base_period {bp!r} ends before it starts")
        if not (len(set(self.nodes)) == len(nodes) == self.config.n_nodes
                and all(0 <= i < grid.n_lat and 0 <= j < grid.n_lon for i, j in self.nodes)):
            raise ValueError(f"nodes are not {self.config.n_nodes} unique index pairs on the grid")


def save_checkpoint(path, params: ModelParams, config: ModelConfig, input_scale: float,
                    seed: int, base_period, grid, nodes):
    """One file: compact JSON header line, then raw little-endian float32 tensors.

    grid and nodes record which cells the model's node axis refers to, so
    evaluation and edge export can rebuild the region without the data. Every
    field is checked, as a Checkpoint, before anything is written.
    """
    ckpt = Checkpoint(params, config, input_scale, seed, base_period, grid, nodes)
    records = []
    blobs = []
    for name, t in params.items():
        arr = np.ascontiguousarray(t.data.astype("<f4"))
        records.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "input_scale": ckpt.input_scale,
        "seed": ckpt.seed,
        "base_period": list(ckpt.base_period),
        "grid": {"lats": list(grid.lats), "lons": list(grid.lons)},
        "nodes": [list(p) for p in ckpt.nodes],
        "tensors": records,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    Path(path).write_bytes(payload + b"".join(blobs))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, rejecting headers that disagree with their config."""
    raw = Path(path).read_bytes()
    cut = raw.find(b"\n")
    if cut < 0:
        raise ValidationError(f"checkpoint {path} has no header line")
    try:
        header = json.loads(raw[:cut].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError("checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {header.get('format_version')}")
    try:
        config = ModelConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad checkpoint config: {exc}") from exc
    if config.to_dict() != header["config"]:
        raise ValidationError("bad checkpoint config: it does not store every field")

    expected = {name: shape for name, shape, _ in param_shapes(config)}
    records = header.get("tensors", [])
    try:
        got = {r["name"]: tuple(r["shape"]) for r in records}
    except KeyError as exc:
        raise ValidationError(f"checkpoint tensor record lacks field {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed checkpoint tensor record: {exc}") from exc
    if got != expected:
        raise ValidationError("checkpoint tensors do not match the stored config")

    body = raw[cut + 1:]
    need = sum(int(np.prod(expected[r["name"]])) for r in records) * 4
    if len(body) != need:
        raise ValidationError(f"checkpoint payload is {len(body)} bytes, expected {need}")
    tensors = {}
    offset = 0
    for r in records:
        shape = expected[r["name"]]
        count = int(np.prod(shape))
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset).reshape(shape)
        tensors[r["name"]] = Tensor(arr.copy(), requires_grad=True)
        offset += count * 4
    try:
        return Checkpoint(ModelParams(tensors), config, header["input_scale"], header["seed"],
                          header["base_period"], GridSpec(**header["grid"]), header["nodes"])
    except KeyError as exc:
        raise ValidationError(f"checkpoint header lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad checkpoint header: {exc}") from exc
