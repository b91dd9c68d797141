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


# The gradient rules that per-slice products, batched hop-state products, stacked edge
# directions and flat Adam buffers replaced, kept as byte references for the rules that
# replaced them.

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


def per_direction_mixhop(h, hops, beta, depth, w, b, residual=None):
    """stgnn.mixhop_conv as one tape node over the same parents that runs each edge
    direction's hops as its own chain of 2-D GEMMs, summed in mixhop_conv's order: every
    hop, projection and gradient product is a 2-D adiff._pieced_matmul call."""
    N, C = h.shape[0], h.shape[-1]
    blocks = w.data.reshape(2 * depth + 1, C, -1)
    flat = h.data.reshape(N, -1)
    chains = []  # per direction, [h, hop 1, .., hop depth] as [N, B*T*C]
    for m in hops.data[:2 if depth else 0]:
        states = [flat]
        for _ in range(depth):
            s = adiff._pieced_matmul(m, states[-1])
            s += flat * beta
            states.append(s)
        chains.append(states)
    hop_states = [s for states in chains for s in states[1:]]
    out = adiff._product(flat.reshape(-1, C), blocks[0])
    for s, block in zip(hop_states, blocks[1:]):
        out += adiff._pieced_matmul(s.reshape(-1, C), block)
    out += b.data
    out = out.reshape(h.shape[:-1] + (-1,))
    parents = (h, w, b) + ((hops,) if depth else ())
    if residual is not None:
        T, T_in = h.shape[2], residual.shape[2]
        out += residual.data[:, :, T_in - T:]
        parents += (residual,)

    def _bw(g):
        g2 = g.reshape(-1, out.shape[-1])
        gh = adiff._pieced_matmul(g2, blocks[0].T).reshape(N, -1)
        gm = []
        for d, (m, states) in enumerate(zip(hops.data, chains)):
            gs = [adiff._pieced_matmul(g2, blocks[1 + d * depth + j].T).reshape(N, -1) for j in range(depth)]
            for j in reversed(range(depth)):
                if j < depth - 1:
                    gs[j] = gs[j] + adiff._pieced_matmul(m.T, gs[j + 1])
                term = adiff._pieced_matmul(gs[j], states[j].T)
                gm_d = term if j == depth - 1 else gm_d + term
            total = gs[-1].copy()
            for gj in gs[-2::-1]:
                total += gj
            total *= beta
            total += adiff._pieced_matmul(m.T, gs[0])
            gh += total
            gm.append(gm_d)
        if depth:
            adiff._accum(hops, np.stack(gm))
        adiff._accum(h, gh.reshape(h.shape))
        adiff._accum(w, per_state_weight_grads([flat] + hop_states, g2))
        adiff._accum(b, adiff._bias_grad(g2))
        if residual is not None:
            adiff._accum(residual, zeros_plus_adds(residual.data, range(T_in - T, T_in - T + 1), T, g))

    return adiff._from_op(out, parents, _bw)


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
