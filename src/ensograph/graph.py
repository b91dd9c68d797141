"""Directed graphs over grid cells: learned from embeddings or from data.

The learned construction follows A = relu(tanh(alpha * (E1 E2^T - E2 E1^T))).
The pre-activation is antisymmetric, so the diagonal is exactly zero and at
most one direction of each node pair survives the relu; weights land in
[0, 1). Rows are then sparsified to the top-k entries and normalized to
D^-1 (A + I) for propagation. All three steps run on adiff tensors, so
gradients flow back into the embeddings (through retained entries only).
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
    """Adjacency from two node embedding tables, differentiable throughout.

    The antisymmetric score matrix guarantees a zero diagonal and at most
    one live direction per node pair; relu(tanh(.)) keeps weights in [0, 1).
    tanh rounds to exactly 1.0 once alpha times the score passes the float
    saturation point, so saturated entries are nudged down to the largest
    representable value below 1 to keep the half-open range honest.
    """
    e1, e2 = as_tensor(e1), as_tensor(e2)
    if e1.shape != e2.shape or e1.ndim != 2:
        raise ValueError(f"embeddings must share shape [N, d], got {e1.shape} and {e2.shape}")
    m = adiff.matmul(e1, adiff.transpose(e2, (1, 0)))
    pre = adiff.mul(adiff.sub(m, adiff.transpose(m, (1, 0))), float(alpha))
    out = adiff.relu(adiff.tanh(pre))
    cap = np.nextafter(out.data.dtype.type(1.0), out.data.dtype.type(0.0))
    np.minimum(out.data, cap, out=out.data)
    return out


def topk_sparsify(a: Tensor, k: int) -> Tensor:
    """Keep the k largest entries of each row, zeroing the rest.

    Ties break toward the lower column index. The mask is a constant, so
    gradients flow only through the retained entries.
    """
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        return a
    order = np.argsort(-a.data, axis=1, kind="stable")
    mask = np.zeros_like(a.data)
    rows = np.arange(n)[:, None]
    mask[rows, order[:, :k]] = 1.0
    return adiff.mul(a, Tensor(mask, dtype=a.data.dtype))


def normalize(a: Tensor) -> Tensor:
    """Row-normalize with a self-loop: D^-1 (A + I), rows sum to one."""
    a = as_tensor(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    n = a.shape[0]
    y = adiff.add(a, Tensor(np.eye(n, dtype=a.data.dtype)))
    s = adiff.reshape(adiff.reduce_sum(y, axes=(1,)), (n, 1))
    return adiff.div(y, s)


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
