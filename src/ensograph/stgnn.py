"""Spatiotemporal graph network forecasting node anomalies at several leads.

Activations are node-major, [N, B, T, C], from the start projection to the
head, and every stage is one tape node with a hand-written backward whose
GEMMs are 2-D: a weight is a 2-D [C_in, C_out] matrix with a [C_out] bias,
and the node mix is A @ x with an [N, N] adjacency on [N, B*T*C] views.

Architecture, per forward pass: the learned graph (hop_matrices, built from
node embeddings) gives the [2, N, N] stack of hop matrices every layer
shares. A channel projection lifts the input months (read through their
node-major view, [N, B, T, 1]) to the residual width. Each layer then
applies a gated dilated temporal convolution (temporal_block: one weight
whose first half of output columns is the tanh filter and second half the
sigmoid gate; valid-only, so time shrinks and no padding leaks), and a
mix-hop graph convolution over the learned graph (mixhop_conv: the block
output and its hops along both edge directions, the two directions
propagated as one [2, N, N] stack, each state projected by its own block
of one weight and the terms summed, plus a residual add of the layer
input's trailing months). The head takes every layer's output:
a skip projection per layer, a time convolution of length L, the time axis
a window of w months leaves at that layer; the relu'd skip sum feeds two
projections that emit one channel per lead, [N, B, P, H], returned as
[B*P, H, N].

The temporal convolution, the residual and the skip each join shifted time
slices on the channel axis with one rule (adiff._time_slices), so every
stage is convolutional in time: a sequence of T >= w consecutive months
holds its P = T - w + 1 windows, and one pass over it gives each window's
forecast (row b*P + p for the window ending at month p + w - 1 of batch row
b). That forecast agrees with a forward of the window alone to rounding, not
always to the byte: OpenBLAS picks the kernel of the head's [M, 64] @ [64, H]
product by its row count M, so a run's rows can round differently from the
lone window's (by up to 9e-8 at the gate config, for a training step's runs
of 10 months at horizon 4 and a 66-month run at horizon 7).

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
from .graph import GraphLearnConfig, propagation_matrices
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


def _linear_checks(k: int, w: Tensor, b: Tensor, what: str):
    if w.ndim != 2 or w.shape[0] != k:
        raise ValueError(f"inner dimensions differ: {k} columns ({what}) against weight {w.shape}")
    if b.shape != w.shape[1:]:
        raise ValueError(f"bias shape {b.shape} does not match {w.shape[1:]}")


def temporal_block(x, w, b, dilation: int) -> Tensor:
    """Gated temporal convolution on node-major x [N, B, T, C]: tanh(filter) * sigmoid(gate), as one tape node.

    The K = w.shape[0] / C time slices x[:, :, k*dilation : k*dilation + T_out]
    are joined on the channel axis (row k*C + c of w reads channel c of
    slice k), so the dilated convolution is a product with w [K*C, 2*C_out]
    and b: its first C_out columns are the filter, the last C_out the gate.
    Each half is its own product, so the activations run in place on
    contiguous arrays, the sigmoid as 0.5*tanh(0.5*x) + 0.5, which
    saturates instead of overflowing; each half has the bytes of its
    columns of one product. Valid-only, so T_out = T - dilation*(K - 1);
    the output is [N, B, T_out, C_out]. w's gradient is matmul's per-node
    rule (adiff._weight_grad). Slice k's gradient is its own contiguous
    adiff._pieced_matmul with w's rows k*C to (k+1)*C, and _time_slices'
    rule adds the slices into x's gradient in order. At the widths checked,
    C = 4, 16 (the default) and 32, each product has the bytes of its
    columns of one product with all of w.
    """
    x, w, b = adiff.as_tensor(x), adiff.as_tensor(w), adiff.as_tensor(b)
    N, _, T, C = x.shape
    K = w.shape[0] // C
    _linear_checks(K * C, w, b, f"{K} time slices of {C} channels")
    c_out, odd = divmod(w.shape[1], 2)
    if odd:
        raise ValueError(f"the temporal block needs an even number of weight columns, got {w.shape[1]}")
    cols, unslice = adiff._time_slices(x.data, range(0, K * dilation, dilation), T - dilation * (K - 1))
    x2 = cols.reshape(-1, K * C)
    f = adiff._product(x2, w.data[:, :c_out])
    f += b.data[:c_out]
    np.tanh(f, out=f)
    s = adiff._product(x2, w.data[:, c_out:])
    s += b.data[c_out:]
    s *= 0.5
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5

    def _bw(g):
        g2 = g.reshape(f.shape)
        gy = np.concatenate([g2 * s * (1.0 - f * f), g2 * f * s * (1.0 - s)], axis=1)
        if x.requires_grad:
            adiff._accum(x, unslice(adiff._pieced_matmul(gy, wk.T).reshape(cols.shape[:-1] + (C,))
                                    for wk in w.data.reshape(K, C, -1)))
        if w.requires_grad:
            adiff._accum(w, adiff._weight_grad(x2, gy, N))
        if b.requires_grad:
            adiff._accum(b, adiff._bias_grad(gy))

    return adiff._from_op((f * s).reshape(cols.shape[:-1] + (c_out,)), (x, w, b), _bw)


def _projected(out, states, blocks, first: int):
    """out plus states[j] @ blocks[first + j] for each j, on [rows, C] views, added in order;
    a C past adiff._PIECE is summed in pieces."""
    C = blocks.shape[1]
    product = np.matmul if C <= adiff._PIECE else adiff._pieced_matmul
    for j in range(len(states)):
        out += product(states[j].reshape(-1, C), blocks[first + j])
    return out


def mixhop_conv(h, hops, beta: float, depth: int, w, b, residual=None) -> Tensor:
    """Mix-hop propagation of node-major h [N, B, T, C] along both edge directions, projected once.

    Hop j keeps beta of the layer input and propagates the rest:
    h0 = h, hj = beta*h + ((1-beta)*A) @ hj-1, where A @ h mixes the node
    axis. hops [2, N, N] holds the two directions' (1-beta)*A, as
    hop_matrices builds them. State s of [h, fwd hops 1..depth, bwd hops
    1..depth] meets its block W_s = w[s*C:(s+1)*C] of w [(2*depth+1)*C, C_out],
    and the output is b + sum_s S_s @ W_s: the states are never joined on
    the channel axis. residual, when given, is a node-major [N, B, T_in, C_out]
    tensor whose trailing T months are added last.

    One tape node, on the calling thread. The two directions propagate as one
    stack: hop j is one product of hops with the [2, N, B*T*C] states of hop
    j-1 (h's [N, B*T*C] view, broadcast, for hop 1), and each step of the
    backward one product over both directions. The backward walks the hops in
    reverse: hop j's state gradient G_j is its projection term g @ W_j^T plus
    m^T @ G_j+1; h takes g @ W_0^T and, per direction, beta * sum_j G_j +
    m^T @ G_1; m takes sum_j G_j @ S_j-1^T, added in turn from the last hop,
    and W_s takes S_s^T @ g. Each projection term is a GEMM on [N*B*T, C]
    views, and every other product adiff._pieced_matmul, each item of a stack
    with the pieces and bytes of its own 2-D call, so the contractions over N
    (the hops), N*B*T (w) and B*T*C (m) keep their float32 bytes whatever the
    BLAS thread count. Float64 GEMMs round with the thread count even within
    one piece, so in float64 m's gradient agrees across thread counts to
    rounding only.
    """
    h, w, b = adiff.as_tensor(h), adiff.as_tensor(w), adiff.as_tensor(b)
    hops = adiff.as_tensor(hops) if depth else None
    N, C = h.shape[0], h.shape[-1]
    if w.shape[0] != (2 * depth + 1) * C:
        raise ValueError(f"mix-hop weight {w.shape} does not hold {2 * depth + 1} blocks of {C} rows")
    blocks = w.data.reshape(2 * depth + 1, C, -1)  # blocks[s] = W_s
    flat = h.data.reshape(N, -1)  # [N, B*T*C]: the hops mix the node axis
    pieced = N > adiff._PIECE  # a product over the node axis sums its pieces through scratch
    # hopped[d, j] is direction d's hop j + 1; one block fragments the heap less than 2*depth
    hopped = np.empty((2, depth) + flat.shape, flat.dtype)
    if depth:
        kept = flat * beta
        scratch = np.empty((2,) + flat.shape, flat.dtype) if pieced else None
        prev = flat
        for j in range(depth):
            prev = adiff._pieced_matmul(hops.data, prev, hopped[:, j], scratch)
            prev += kept
    states = hopped.reshape((2 * depth,) + flat.shape)  # the hop states, in their blocks' order
    out = _projected(adiff._product(flat.reshape(-1, C), blocks[0]), states, blocks, 1)
    out += b.data
    c_out = out.shape[-1]
    out = out.reshape(h.shape[:-1] + (c_out,))
    parents = (h, w, b) + (() if hops is None else (hops,))
    if residual is not None:
        residual = adiff.as_tensor(residual)
        T, T_in = h.shape[2], residual.shape[2]
        if T_in < T:
            raise ValueError(f"a residual of {T_in} months cannot cover the {T} months of the hops")
        out += residual.data[:, :, T_in - T:]
        parents += (residual,)

    def _bw(g):
        g2 = g.reshape(-1, c_out)
        # h's and m's gradients outlive this node, so they are made first, below the scratch
        gh = adiff._pieced_matmul(g2, blocks[0].T).reshape(N, -1) if h.requires_grad else None
        gm = np.empty_like(hops.data) if depth and hops.requires_grad else None
        if depth and (gh is not None or gm is not None):
            # one block: per direction the hops' state gradients, then the out/scratch pair of m^T @ G
            work = np.empty((2, depth + 1 + pieced) + flat.shape, flat.dtype)
            gs, pair = work[:, :depth], (work[:, depth], work[:, depth + 1] if pieced else None)
            # every hop's projection term g @ W_j^T, in one stack of products
            adiff._pieced_matmul(g2, np.swapaxes(blocks[1:].reshape(2, depth, C, c_out), 2, 3),
                                 gs.reshape(2, depth, -1, C))
            mt = np.swapaxes(hops.data, 1, 2)
            if gm is not None:  # the out/scratch pair of G_j @ S_j-1^T
                terms = np.empty((2, 2, N, N), flat.dtype)
                term_pair = (terms[0], terms[1] if flat.shape[1] > adiff._PIECE else None)
            for j in reversed(range(depth)):
                if j < depth - 1:
                    gs[:, j] += adiff._pieced_matmul(mt, gs[:, j + 1], *pair)
                if gm is not None:
                    st = np.swapaxes(hopped[:, j - 1] if j else flat, -1, -2)
                    if j == depth - 1:
                        adiff._pieced_matmul(gs[:, j], st, gm, term_pair[1])
                    else:
                        gm += adiff._pieced_matmul(gs[:, j], st, *term_pair)
            if gh is not None:  # per direction, h's share beta * sum_j G_j + m^T @ G_1
                tail = adiff._pieced_matmul(mt, gs[:, 0], *pair)
                total = gs[:, -1]
                for j in reversed(range(depth - 1)):
                    total += gs[:, j]
                total *= beta
                total += tail
                gh += total[0]
                gh += total[1]
        if gm is not None:
            adiff._accum(hops, gm)
        if h.requires_grad:
            adiff._accum(h, gh.reshape(h.shape))
        if w.requires_grad:  # W_0's gradient, then every hop state's in one stack of products
            gw = np.empty((2 * depth + 1, C, c_out), flat.dtype)
            adiff._pieced_matmul(flat.reshape(-1, C).T, g2, gw[0])
            if depth:
                adiff._pieced_matmul(np.swapaxes(states.reshape(2 * depth, -1, C), 1, 2), g2, gw[1:])
            adiff._accum(w, gw.reshape(-1, c_out))
        if b.requires_grad:
            adiff._accum(b, adiff._bias_grad(g2))
        if residual is not None and residual.requires_grad:
            adiff._accum(residual, adiff._time_slices(residual.data, range(T_in - T, T_in - T + 1), T)[1]([g]))

    return adiff._from_op(out, parents, _bw)


def head(outputs, skips, end1, end2, windows: int) -> Tensor:
    """Skip projections of every layer's output, summed, then relu, end1, relu and end2, as one tape node.

    outputs are the layers' node-major [N, B, T_l, C] outputs and skips
    their (w, b) pairs. With P = windows, layer l's skip joins the
    L = T_l - P + 1 shifted slices h[:, :, j : j + P] on the channel axis
    (row j*C + c of w [L*C, C_s] reads channel c at position j) and
    projects them in one product. end1 = (w [C_s, C_e], b) and
    end2 = (w [C_e, H], b). The [N, B, P, H] result is returned as its
    [B*P, H, N] view, row b*P + p for window p of batch row b. Every
    weight's gradient is matmul's per-node rule and every other gradient
    GEMM adiff._pieced_matmul; position j's share of a layer output's
    gradient is its own product with the skip weight's rows j*C to
    (j+1)*C, added in order as in temporal_block. relu's subgradient at 0
    is taken as 0.
    """
    outputs = [adiff.as_tensor(h) for h in outputs]
    skips = [(adiff.as_tensor(w), adiff.as_tensor(b)) for w, b in skips]
    (w1, b1), (w2, b2) = [(adiff.as_tensor(w), adiff.as_tensor(b)) for w, b in (end1, end2)]
    if len(outputs) != len(skips) or not outputs:
        raise ValueError(f"{len(outputs)} layer outputs against {len(skips)} skip projections")
    N, B = outputs[0].shape[:2]
    P = windows
    joined = []  # per layer, the joined slices as [N*B*P, L*C] and their gradient rule
    hidden = None
    for h, (w, b) in zip(outputs, skips):
        T, C = h.shape[2:]
        cols, unslice = adiff._time_slices(h.data, range(T - P + 1), P)
        _linear_checks(cols.shape[-1], w, b, f"skip of {T - P + 1} positions of {C} channels")
        x2 = cols.reshape(-1, cols.shape[-1])
        s = adiff._product(x2, w.data)
        s += b.data
        hidden = s if hidden is None else np.add(hidden, s, out=hidden)
        joined.append((x2, unslice))
    del s  # the last layer's skip product is summed into hidden: free it before end1's product
    np.maximum(hidden, 0, out=hidden)
    _linear_checks(hidden.shape[1], w1, b1, "end1")
    e = adiff._product(hidden, w1.data)
    e += b1.data
    np.maximum(e, 0, out=e)
    _linear_checks(e.shape[1], w2, b2, "end2")
    out = adiff._product(e, w2.data)
    out += b2.data
    H = out.shape[1]

    def _bw(g):
        g2 = np.reshape(np.transpose(g, (2, 0, 1)), (-1, H))  # [N*B*P, H]
        ge = adiff._pieced_matmul(g2, w2.data.T)
        ge *= e > 0
        # end2's and end1's weight and bias gradients first, so ge goes before the skips' products
        for (w, b), (x2, gy) in (((w2, b2), (e, g2)), ((w1, b1), (hidden, ge))):
            if w.requires_grad:
                adiff._accum(w, adiff._weight_grad(x2, gy, N))
            if b.requires_grad:
                adiff._accum(b, adiff._bias_grad(gy))
        gs = adiff._pieced_matmul(ge, w1.data.T)
        del ge, gy  # the loop's last gy is ge
        gs *= hidden > 0
        for h, (w, b), (x2, unslice) in zip(outputs, skips, joined):
            if w.requires_grad:
                adiff._accum(w, adiff._weight_grad(x2, gs, N))
            if b.requires_grad:
                adiff._accum(b, adiff._bias_grad(gs))
            if h.requires_grad:
                C = h.shape[-1]
                adiff._accum(h, unslice(adiff._pieced_matmul(gs, wj.T).reshape(N, B, P, C)
                                        for wj in w.data.reshape(-1, C, w.shape[1])))

    parents = tuple(outputs) + tuple(t for pair in skips for t in pair) + (w1, b1, w2, b2)
    return adiff._from_op(np.transpose(out.reshape(N, B * P, H), (1, 2, 0)), parents, _bw)


def _check_finite(t: Tensor, layer: int, stage: str):
    if not np.isfinite(t.data).all():
        raise NumericalError(f"non-finite activation at layer {layer} ({stage})")


def hop_matrices(params: ModelParams, config: ModelConfig) -> Tensor:
    """The learned graph as the [2, N, N] stack of hop matrices every layer's mix-hop propagates by.

    graph.propagation_matrices, one tape node over the embeddings e1 and e2:
    the learned adjacency sparsified to its top-k entries per row, that
    matrix and its transpose each normalized and scaled by 1 - beta. The
    stack depends on the two embeddings and the config alone, so one stack,
    kept by propagation_matrices, serves every forward on the same ones.
    """
    return propagation_matrices(params["e1"], params["e2"], config.graph, config.beta)


def forward(params: ModelParams, config: ModelConfig, x: Tensor) -> Tensor:
    """Full model: months [B, 1, N, T] -> per-lead node predictions [B*P, H, N].

    T may be any length >= the window w; row b*P + p, with P = T - w + 1,
    is the forecast from the window ending at month p + w - 1 of batch row
    b, so T = w gives [B, H, N]. The input is data and takes no gradient:
    its node-major [N, B, T, 1] view enters the start projection, every
    stage after it runs node-major, and the head returns [B*P, H, N]. Every
    layer's mix-hop shares one hop_matrices stack, which is built only when
    the embeddings differ from the last ones the graph was built from.

    Tape nodes: the graph, the start projection, per layer the temporal
    block and the mix-hop (which adds the residual), and the head.
    """
    x = adiff.as_tensor(x)
    if x.ndim != 4 or x.shape[1:3] != (1, config.n_nodes) or x.shape[3] < config.window:
        raise ValueError(f"input shape {x.shape} does not match [B, 1, {config.n_nodes}, T >= {config.window}]")
    if x.requires_grad:
        raise ValueError("the model input takes no gradient")
    if not np.isfinite(x.data).all():
        raise NumericalError("non-finite model input")
    hops = hop_matrices(params, config)

    h = adiff.matmul(Tensor(x.data.transpose(2, 0, 3, 1)), params["start_w"], params["start_b"])
    outputs = []
    for l in range(config.layers):
        t = temporal_block(h, params[f"l{l}_tcn_w"], params[f"l{l}_tcn_b"], config.dilations[l])
        _check_finite(t, l, "temporal")
        h = mixhop_conv(t, hops, config.beta, config.mixhop_depth,
                        params[f"l{l}_mix_w"], params[f"l{l}_mix_b"], residual=h)
        _check_finite(h, l, "residual")
        outputs.append(h)
    return head(outputs, [(params[f"l{l}_skip_w"], params[f"l{l}_skip_b"]) for l in range(config.layers)],
                (params["end1_w"], params["end1_b"]), (params["end2_w"], params["end2_b"]),
                x.shape[3] - config.window + 1)


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
        for name, t in self.params.items():
            if not np.all(np.isfinite(t.data)):
                raise ValueError(f"tensor {name} holds a non-finite value")


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
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int literal past Python's 4300-digit limit
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
