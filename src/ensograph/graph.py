"""Directed graphs over grid cells: learned from embeddings or from data.

The learned construction follows A = relu(tanh(alpha * (E1 E2^T - E2 E1^T))).
The pre-activation is antisymmetric, so the diagonal is exactly zero and at
most one direction of each node pair survives the relu; weights land in
[0, 1). Rows are then sparsified to the top-k entries (kept_adjacency, plain
numpy, which graph-export writes out) and normalized to D^-1 (A + I) for
propagation. The model's graph is propagation_matrices, one tape node over
the same code that also normalizes both edge directions and scales them for
mix-hop propagation; it reuses the last graph it built while the
embeddings' bytes are unchanged. Gradients flow back into the embeddings
through retained entries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adiff
from .adiff import Tensor, as_tensor
from .cube import AnomalyCube
from .errors import NumericalError, ValidationError, _check_types
from .grid import GridSpec, NodeId, node_coords


@dataclass(frozen=True)
class GraphLearnConfig:
    embed_dim: int = 16
    alpha: float = 3.0
    topk: int = 20

    def __post_init__(self):
        _check_types([("embed_dim", self.embed_dim), ("topk", self.topk)], [("alpha", self.alpha)])
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if not 0 < self.alpha < float("inf"):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.topk < 1:
            raise ValueError("topk must be >= 1")


def _adjacency(e1: np.ndarray, e2: np.ndarray, alpha: float):
    """The learned adjacency relu(tanh(alpha * (E1 E2^T - E2 E1^T))), with its tanh output y and float alpha.

    tanh rounds to exactly 1.0 once alpha times the score passes the float
    saturation point, so saturated entries are nudged down to the largest
    representable value below 1 to keep the half-open range honest.
    """
    if e1.shape != e2.shape or e1.ndim != 2:
        raise ValueError(f"embeddings must share shape [N, d], got {e1.shape} and {e2.shape}")
    m = adiff._product(e1, e2.T)
    scale = m.dtype.type(alpha)
    y = np.tanh(np.multiply(np.subtract(m, m.T), scale))
    out = np.maximum(y, 0)
    np.minimum(out, np.nextafter(m.dtype.type(1.0), m.dtype.type(0.0)), out=out)
    return out, y, scale


def _adjacency_backward(g: np.ndarray, y: np.ndarray, scale, e1: Tensor, e2: Tensor):
    """Accumulate the embeddings' gradients from g, the adjacency's gradient.

    The backward treats the nudge below 1 as the identity: with y the tanh
    output, the score gradient is G = alpha * g * (y > 0) * (1 - y^2), and
    e1 takes (G - G^T) @ e2, e2 takes (G - G^T)^T @ e1.
    """
    gs = g * (y > 0) * (1.0 - y * y) * scale
    gm = gs - gs.T
    if e1.requires_grad:
        adiff._accum(e1, adiff._pieced_matmul(gm, e2.data))
    if e2.requires_grad:
        adiff._accum(e2, adiff._pieced_matmul(gm.T, e1.data))


def _topk_mask(a: np.ndarray, k: int):
    """The 0/1 mask, in a's dtype, of each row's k kept entries; None when k >= n keeps them all.

    Ties break toward the lower column index, so on finite input the kept
    entries are a stable descending argsort's first k columns. Each row's
    threshold, its k-th largest entry, comes from one np.partition, and
    the entries at or above it are kept. When some row keeps more than k,
    its entries equal to the threshold are thinned, lowest columns first,
    to the k - (entries above it) that fit. The count is per row: a NaN
    row keeps fewer than k and would hide a tied row's excess in a total.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        return None
    thr = np.partition(a, n - k, axis=1)[:, n - k:n - k + 1]
    mask = a >= thr
    if (mask.sum(axis=1) > k).any():
        tied = a == thr
        room = k - (a > thr).sum(axis=1, keepdims=True)
        mask &= ~tied | (np.cumsum(tied, axis=1) <= room)
    return mask.astype(a.dtype)


def _kept(e1: np.ndarray, e2: np.ndarray, config: GraphLearnConfig):
    """kept_adjacency, with the top-k mask (None when every entry is kept), the tanh output y and float alpha."""
    adj, y, scale = _adjacency(e1, e2, config.alpha)
    mask = _topk_mask(adj, config.topk)
    return (adj if mask is None else np.multiply(adj, mask)), mask, y, scale


def kept_adjacency(e1: np.ndarray, e2: np.ndarray, config: GraphLearnConfig) -> np.ndarray:
    """The learned adjacency of two [N, d] embedding tables, sparsified to each row's top-k entries.

    The model's graph (propagation_matrices) normalizes this matrix, so an
    exported graph is the one the model propagates by. Weights lie in
    [0, 1), the diagonal is zero and at most one direction of each node
    pair is live; each row keeps its config.topk largest entries, ties
    going to the lower column.
    """
    return _kept(e1, e2, config)[0]


def _normalized(a: np.ndarray, eye: np.ndarray):
    """D^-1 (A + I) and the row sums D, as an [N, 1] column, given I."""
    y = np.add(a, eye)
    s = y.sum(axis=1).reshape(-1, 1)
    return np.divide(y, s), s


def _normalized_backward(g: np.ndarray, out: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A's gradient through out = D^-1 (A + I): (g - rowsum(g * out)) / D."""
    return (g - (g * out).sum(axis=1, keepdims=True)) / s


_memo = None  # (key, products) of the last graph propagation_matrices built


def propagation_matrices(e1: Tensor, e2: Tensor, config: GraphLearnConfig, beta: float) -> Tensor:
    """The matrices mix-hop propagates by along both edge directions, [2, N, N], as one tape node.

    Entry 0 is (1 - beta) * D^-1 (A + I) and entry 1 the same of A^T, for
    A = kept_adjacency(e1, e2, config) and D the row sums of the matrix
    plus I. A non-finite row sum (a NaN embedding gives one) raises
    NumericalError before anything is scaled; a finite A is row-stochastic after
    normalization by construction. The backward runs each direction's
    normalization rule, sums the two (the second transposed), masks the
    sum to the kept entries and runs the adjacency rule once.

    The last build's products stay, read-only, under the embeddings' dtypes,
    shapes and bytes, config and beta: a match builds nothing, a miss drops
    them first. Each call is its own tape node, on its own e1 and e2.
    """
    global _memo
    e1, e2 = as_tensor(e1), as_tensor(e2)
    key = (e1.data.dtype, e2.data.dtype, e1.shape, e2.shape, e1.data.tobytes(), e2.data.tobytes(), config, beta)
    if (memo := _memo) is None or memo[0] != key:
        _memo = memo = None  # the old graph goes before the new one is built
        kept, mask, y, scale = _kept(e1.data, e2.data, config)
        keep = kept.dtype.type(1.0 - beta)
        hops = np.empty((2,) + kept.shape, dtype=kept.dtype)
        eye = np.eye(kept.shape[0], dtype=kept.dtype)
        factors = []
        for d, a in enumerate((kept, kept.T)):
            out, s = _normalized(a, eye)
            if not math.isfinite(s.sum()):
                raise NumericalError("non-finite adjacency row sum entering mix-hop propagation")
            np.multiply(out, keep, out=hops[d])
            factors += [out, s]
        for a in [hops, y] + factors + ([] if mask is None else [mask]):
            a.flags.writeable = False
        _memo = memo = key, (hops, factors, mask, y, scale, keep)
    hops, (out_f, s_f, out_b, s_b), mask, y, scale, keep = memo[1]

    def _bw(g):
        ga = _normalized_backward(g[0] * keep, out_f, s_f) + _normalized_backward(g[1] * keep, out_b, s_b).T
        _adjacency_backward(ga if mask is None else ga * mask, y, scale, e1, e2)

    return adiff._from_op(hops, (e1, e2), _bw)


def correlation_graph(anoms: AnomalyCube, nodes: list[NodeId], tau: float) -> np.ndarray:
    """Symmetric graph keeping |Pearson r| >= tau between node series.

    A reference construction for comparison against learned graphs. Node
    series must be complete (no missing months) and non-constant.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    ii = np.array([i for i, _ in nodes])
    jj = np.array([j for _, j in nodes])
    if anoms.missing[:, ii, jj].any():
        raise ValidationError("correlation graph needs complete node series; found missing months")
    series = anoms.values[:, ii, jj].astype(np.float64)  # [T, N]
    if series.shape[0] < 3:
        raise ValueError("need at least 3 months to correlate")
    stds = series.std(axis=0)
    flat = np.nonzero(stds == 0.0)[0]
    if flat.size:
        raise ValidationError(f"zero variance at node {nodes[int(flat[0])]}")
    corr = np.abs(np.corrcoef(series, rowvar=False))
    corr = np.clip(corr, 0.0, 1.0)
    corr[corr < tau] = 0.0
    np.fill_diagonal(corr, 0.0)
    return corr


def export_edges(a, grid: GridSpec, nodes: list[NodeId], path) -> int:
    """Write nonzero directed edges as CSV, heaviest first.

    Columns are src_lat,src_lon,dst_lat,dst_lon,weight with weights at six
    significant digits. Returns the number of edges written.
    """
    weights = np.asarray(a)
    n = len(nodes)
    if weights.shape != (n, n):
        raise ValueError(f"adjacency {weights.shape} does not match {n} nodes")
    coords = node_coords(grid, nodes)
    src, dst = np.nonzero(weights)
    order = sorted(range(src.size), key=lambda i: (-weights[src[i], dst[i]], src[i], dst[i]))
    lines = ["src_lat,src_lon,dst_lat,dst_lon,weight"]
    for i in order:
        (slat, slon), (dlat, dlon) = coords[src[i]], coords[dst[i]]
        lines.append(f"{slat:g},{slon:g},{dlat:g},{dlon:g},{weights[src[i], dst[i]]:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")
    return src.size
