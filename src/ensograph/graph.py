"""Directed graphs over grid cells: learned from embeddings or from data.

The learned construction follows A = relu(tanh(alpha * (E1 E2^T - E2 E1^T))).
The pre-activation is antisymmetric, so the diagonal is exactly zero and at
most one direction of each node pair survives the relu; weights land in
[0, 1). Rows are then sparsified to the top-k entries and normalized to
D^-1 (A + I) for propagation. Each of the three steps is one adiff tape
node, adjacency learning and normalization with a hand-written backward,
so gradients flow back into the embeddings (through retained entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adiff
from .adiff import Tensor, as_tensor
from .cube import AnomalyCube
from .errors import ValidationError, _check_types
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


def learn_adjacency(e1: Tensor, e2: Tensor, alpha: float) -> Tensor:
    """Adjacency from two node embedding tables, as one tape node.

    The antisymmetric score matrix guarantees a zero diagonal and at most
    one live direction per node pair; relu(tanh(.)) keeps weights in [0, 1).
    tanh rounds to exactly 1.0 once alpha times the score passes the float
    saturation point, so saturated entries are nudged down to the largest
    representable value below 1 to keep the half-open range honest. The
    backward treats the nudge as the identity: with y the tanh output, the
    score gradient is G = alpha * g * (y > 0) * (1 - y^2), and e1 takes
    (G - G^T) @ e2, e2 takes (G - G^T)^T @ e1.
    """
    e1, e2 = as_tensor(e1), as_tensor(e2)
    if e1.shape != e2.shape or e1.ndim != 2:
        raise ValueError(f"embeddings must share shape [N, d], got {e1.shape} and {e2.shape}")
    m = e1.data @ e2.data.T
    scale = m.dtype.type(alpha)
    y = np.tanh(np.multiply(np.subtract(m, m.T), scale))
    out = np.maximum(y, 0)
    np.minimum(out, np.nextafter(m.dtype.type(1.0), m.dtype.type(0.0)), out=out)

    def _bw(g):
        gs = g * (y > 0) * (1.0 - y * y) * scale
        gm = gs - gs.T
        if e1.requires_grad:
            adiff._accum(e1, adiff._pieced_matmul(gm, e2.data))
        if e2.requires_grad:
            adiff._accum(e2, adiff._pieced_matmul(gm.T, e1.data))

    return adiff._from_op(out, (e1, e2), _bw)


def topk_sparsify(a: Tensor, k: int) -> Tensor:
    """Keep the k largest entries of each row, zeroing the rest.

    Ties break toward the lower column index, so on finite input the kept
    entries are a stable descending argsort's first k columns. Each row's
    threshold, its k-th largest entry, comes from one np.partition, and
    the entries at or above it are kept. When some row keeps more than k,
    its entries equal to the threshold are thinned, lowest columns first,
    to the k - (entries above it) that fit. The count is per row: a NaN
    row keeps fewer than k and would hide a tied row's excess in a total.
    The mask is a constant, so gradients flow only through the retained
    entries.
    """
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        return a
    thr = np.partition(a.data, n - k, axis=1)[:, n - k:n - k + 1]
    mask = a.data >= thr
    if (mask.sum(axis=1) > k).any():
        tied = a.data == thr
        room = k - (a.data > thr).sum(axis=1, keepdims=True)
        mask &= ~tied | (np.cumsum(tied, axis=1) <= room)
    return adiff.mul(a, Tensor(mask, dtype=a.data.dtype))


def normalize(a: Tensor) -> Tensor:
    """Row-normalize with a self-loop, D^-1 (A + I), as one tape node; rows sum to one.

    With s the row sums of A + I and out the result, a's gradient is
    (g - rowsum(g * out)) / s.
    """
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    y = np.add(a.data, np.eye(n, dtype=a.data.dtype))
    s = y.sum(axis=1).reshape(n, 1)
    out = np.divide(y, s)
    return adiff._from_op(out, (a,), lambda g: adiff._accum(
        a, (g - (g * out).sum(axis=1, keepdims=True)) / s))


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
    weights = a.data if isinstance(a, Tensor) else np.asarray(a)
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
