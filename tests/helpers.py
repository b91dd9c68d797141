"""Shared builders for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ensograph import adiff, graph
from ensograph.cube import AnomalyCube, SstCube
from ensograph.graph import GraphLearnConfig
from ensograph.grid import GridSpec
from ensograph.stgnn import ModelConfig


def small_grid(n_lat=3, n_lon=4, lat0=-2.0, lon0=190.0, step=2.0):
    lats = tuple(lat0 + step * i for i in range(n_lat))
    lons = tuple(lon0 + step * j for j in range(n_lon))
    return GridSpec(lats, lons)


def oni_grid():
    """The 130-cell 2-degree grid covering the index box exactly."""
    return GridSpec(
        tuple(float(v) for v in range(-4, 5, 2)),
        tuple(float(v) for v in range(190, 241, 2)),
    )


def count_graph_builds(monkeypatch):
    """A list that grows by one with each graph that propagation_matrices builds, starting with none kept."""
    builds = []
    adjacency = graph._adjacency
    monkeypatch.setattr(graph, "_memo", None)
    monkeypatch.setattr(graph, "_adjacency", lambda *args: builds.append(1) or adjacency(*args))
    return builds


def shared_add(a, b):
    """a + b, two tensors of one shape, as a tape node that hands its one gradient array to
    both operands, so that two tensors share a gradient buffer."""
    return adiff._from_op(a.data + b.data, (a, b), lambda g: (adiff._accum(a, g), adiff._accum(b, g)))


# The gradient rules that per-slice products, batched hop-state products and flat
# Adam buffers replaced, kept as byte references for the rules that replaced them.

def zeros_plus_adds(x, starts, length, joined):
    """x's gradient from the joined gradient of its time slices [.., length, len(starts)*C]: the
    joined gradient itself where one block of slices is all of x, else zeros plus one strided
    add per slice, in slice order."""
    C = x.shape[-1]
    block = len(starts) == 1 or (length == 1 and starts.step == 1)
    if block and length * len(starts) == x.shape[-2]:
        return joined.reshape(x.shape)
    full = np.zeros_like(x)
    for i, s in enumerate(starts):
        full[..., s:s + length, :] += joined[..., i * C:(i + 1) * C]
    return full


def per_state_weight_grads(states, g2):
    """The mix-hop weight gradient: each state's S^T @ g as its own sum of one GEMM per
    adiff._PIECE rows, in order, joined on the rows."""
    C, piece = states[0].size // g2.shape[0], adiff._PIECE
    grads = []
    for s in states:
        x = s.reshape(-1, C).T
        total = x[:, :piece] @ g2[:piece]
        for lo in range(piece, x.shape[1], piece):
            total += x[:, lo:lo + piece] @ g2[lo:lo + piece]
        grads.append(total)
    return np.concatenate(grads, axis=0)


def per_tensor_step(params, grads, state, t, config, max_norm):
    """Clipping to a global norm of max_norm as the sum of each tensor's float64 squares, then
    adam_step, on separate per-tensor arrays."""
    from ensograph.train import adam_step

    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        grads = {k: g * np.float32(max_norm / norm) for k, g in grads.items()}
    return adam_step(params, grads, state, t, config)


def random_sst(rng, grid=None, n_time=48, start=(1950, 1), missing_frac=0.0):
    grid = grid or small_grid()
    values = 20.0 + 2.0 * rng.standard_normal((n_time, grid.n_lat, grid.n_lon))
    missing = rng.random(values.shape) < missing_frac
    values = np.where(missing, 0.0, values)
    return SstCube(grid, start, values.astype(np.float32), missing)


def random_anoms(rng, grid=None, n_time=48, start=(1950, 1), scale=1.0):
    grid = grid or small_grid()
    values = scale * rng.standard_normal((n_time, grid.n_lat, grid.n_lon))
    return AnomalyCube(grid, start, values.astype(np.float32),
                       np.zeros(values.shape, dtype=bool))


def tiny_config(n_nodes=6, horizon=2, **kw):
    base = dict(
        window=3,
        layers=2,
        residual_channels=4,
        conv_channels=4,
        skip_channels=4,
        end_channels=8,
        kernel_size=2,
        dilations=(1, 1),
        mixhop_depth=2,
        beta=0.05,
        graph=GraphLearnConfig(embed_dim=3, alpha=3.0, topk=min(3, n_nodes)),
        seed=0,
    )
    base.update(kw)
    return ModelConfig(n_nodes=n_nodes, horizon=horizon, **base)


def poisoned_checkpoint(raw: bytes, tensor: str, value: float, index: int = 0) -> bytes:
    """Checkpoint file bytes with element `index` of `tensor` set to the float32 `value`."""
    cut = raw.find(b"\n")
    offset = cut + 1
    for record in json.loads(raw[:cut])["tensors"]:
        if record["name"] == tensor:
            break
        offset += 4 * int(np.prod(record["shape"]))
    offset += 4 * index
    return raw[:offset] + np.array([value], dtype="<f4").tobytes() + raw[offset + 4:]


def python_output(script: str, **env) -> list[str]:
    """The stdout lines of `script` run by a fresh Python that imports the package from src/, with env added."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path, **env)).stdout.splitlines()


def output_at_one_and_two_blas_threads(script: str) -> list[list[str]]:
    """The stdout lines of `script` run by a fresh Python at OPENBLAS_NUM_THREADS=1 and =2.

    Fresh processes, since OpenBLAS reads its thread count once at import.
    """
    return [python_output(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
