import json

import numpy as np
import pytest

from ensograph import adiff
from ensograph.adiff import Tensor, backward, grad_check, mul, reduce_sum
from ensograph.cli import main
from ensograph.errors import NumericalError, ValidationError
from ensograph.graph import GraphLearnConfig
from ensograph.grid import GridSpec
from ensograph.stgnn import (
    ModelConfig,
    ModelParams,
    forward,
    head,
    hop_matrices,
    init_params,
    load_checkpoint,
    mixhop_conv,
    param_shapes,
    predicted_index,
    save_checkpoint,
    temporal_block,
)
from ensograph.train import mae_loss
from helpers import output_at_one_and_two_blas_threads, poisoned_checkpoint, tiny_config


def _zero_params(config):
    return ModelParams({
        name: Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        for name, shape, _ in param_shapes(config)
    })


def _rand_input(rng, config, batch=2, dtype=np.float32):
    x = rng.standard_normal((batch, 1, config.n_nodes, config.window))
    return Tensor(x.astype(dtype))


# ------------------------------------------------------------------- config

def test_receptive_field_must_fit_window():
    with pytest.raises(ValueError, match="receptive field"):
        tiny_config(dilations=(1, 2))
    cfg = tiny_config(window=4, dilations=(1, 2))
    assert cfg.receptive_field == 4
    assert tiny_config(dilations=(1, 1)).receptive_field == 3


def test_time_lengths():
    cfg = tiny_config(window=5, dilations=(1, 2))
    assert cfg.time_lengths() == [5, 4, 2]


def test_topk_cannot_exceed_node_count():
    with pytest.raises(ValueError, match="topk"):
        tiny_config(n_nodes=2, graph=GraphLearnConfig(embed_dim=2, alpha=3.0, topk=5))


def test_config_dict_round_trip():
    cfg = tiny_config(horizon=4, beta=0.2)
    back = ModelConfig(**json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


@pytest.mark.parametrize("path, value", [
    (("n_nodes",), 6.0), (("window",), 3.0), (("layers",), True), (("conv_channels",), 4.0),
    (("kernel_size",), 2.0), (("mixhop_depth",), "2"), (("seed",), 0.0), (("graph", "embed_dim"), 3.0),
    (("graph", "topk"), 3.0), (("graph", "topk"), float("nan")), (("dilations",), "11"),
    (("dilations",), [1.0, 1]), (("dilations",), [1, True]), (("beta",), True), (("graph",), [1]),
])
def test_config_from_dict_wants_json_ints(path, value):
    d = json.loads(json.dumps(tiny_config().to_dict()))
    d[path[0]] = dict(d[path[0]], **{path[1]: value}) if len(path) == 2 else value
    with pytest.raises(TypeError):
        ModelConfig(**d)


def test_config_from_dict_rejects_non_finite_alpha():
    for alpha in (float("nan"), float("inf")):
        d = tiny_config().to_dict()
        d["graph"]["alpha"] = alpha
        with pytest.raises(ValueError, match="alpha"):
            ModelConfig(**d)


def test_config_accepts_json_shaped_fields():
    cfg = tiny_config(dilations=[1, 1],
                      graph={"embed_dim": 2, "alpha": 1.5, "topk": 2})
    assert cfg.dilations == (1, 1)
    assert cfg.graph == GraphLearnConfig(embed_dim=2, alpha=1.5, topk=2)


# ------------------------------------------------------------------- params

def test_param_shapes_wire_up():
    cfg = tiny_config()
    shapes = dict((n, s) for n, s, _ in param_shapes(cfg))
    assert len(shapes) == 20
    assert shapes["e1"] == (6, 3)
    assert shapes["start_w"] == (1, 4)
    # K time slices of 4 channels in, filter and gate columns out
    assert shapes["l0_tcn_w"] == (8, 8)
    assert shapes["l0_tcn_b"] == (8,)
    # one projection of [h, 2 forward hops, 2 backward hops]
    assert shapes["l0_mix_w"] == (20, 4)
    assert shapes["l0_mix_b"] == (4,)
    # skip weights span the full remaining time axis of their layer
    assert shapes["l0_skip_w"] == (8, 4)
    assert shapes["l1_skip_w"] == (4, 4)
    assert shapes["end2_w"] == (8, 2)
    # every learned weight is a plain [C_in, C_out] matrix
    assert all(len(s) == 2 for n, s in shapes.items() if n.endswith("_w"))


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    p1 = init_params(cfg, seed=3)
    p2 = init_params(cfg, seed=3)
    p3 = init_params(cfg, seed=4)
    for name, t in p1.items():
        assert t.data.tobytes() == p2[name].data.tobytes()
    assert any(t.data.tobytes() != p3[name].data.tobytes() for name, t in p1.items())


def test_init_respects_fan_in_bounds():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    for name, shape, fan_in in param_shapes(cfg):
        data = params[name].data
        assert data.shape == shape
        assert data.dtype == np.float32
        if name in ("e1", "e2"):
            assert np.abs(data).max() < 1.0
        else:
            assert np.abs(data).max() <= np.sqrt(1.0 / fan_in)


# ------------------------------------------------------------------- blocks

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_temporal_block_matches_numpy_reference():
    rng = np.random.default_rng(0)
    N, B, T, Ci, Co, K = 4, 1, 5, 2, 3, 2
    x = rng.standard_normal((N, B, T, Ci))
    w = rng.standard_normal((K * Ci, 2 * Co))
    b = rng.standard_normal(2 * Co)
    out = temporal_block(Tensor(x), Tensor(w), Tensor(b), 1).data
    fw, fb, gw, gb = w[:, :Co], b[:Co], w[:, Co:], b[Co:]

    def conv(w, b):
        o = np.zeros((N, B, T - K + 1, Co))
        for kk in range(K):
            o += np.einsum("co,nbtc->nbto", w[kk * Ci:(kk + 1) * Ci], x[:, :, kk:kk + T - K + 1])
        return o + b

    ref = np.tanh(conv(fw, fb)) * _sigmoid(conv(gw, gb))
    np.testing.assert_allclose(out, ref, atol=1e-12)
    with pytest.raises(ValueError, match="even"):
        temporal_block(Tensor(x), Tensor(w[:, 1:]), Tensor(b[1:]), 1)
    with pytest.raises(ValueError, match="inner dimensions"):
        temporal_block(Tensor(x), Tensor(w[1:]), Tensor(b), 1)


def test_temporal_block_value_by_quadruple_loop():
    rng = np.random.default_rng(2)
    N, B, T, Ci, Co, K, d = 4, 2, 7, 3, 2, 2, 2
    x = rng.standard_normal((N, B, T, Ci))
    w = rng.standard_normal((K * Ci, 2 * Co))
    b = rng.standard_normal(2 * Co)
    out = temporal_block(Tensor(x), Tensor(w), Tensor(b), d).data
    T_out = T - d * (K - 1)
    assert out.shape == (N, B, T_out, Co)
    for n in range(N):
        for bb in range(B):
            for t in range(T_out):
                for o in range(Co):
                    filt, gate = b[o], b[Co + o]
                    for kk in range(K):
                        for c in range(Ci):
                            filt += w[kk * Ci + c, o] * x[n, bb, t + kk * d, c]
                            gate += w[kk * Ci + c, Co + o] * x[n, bb, t + kk * d, c]
                    assert abs(out[n, bb, t, o] - np.tanh(filt) * _sigmoid(gate)) < 1e-12


def test_temporal_block_rejects_too_short_input():
    x = Tensor(np.zeros((1, 1, 2, 1)))
    with pytest.raises(ValueError, match="time axis"):
        temporal_block(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)), 1)
    with pytest.raises(ValueError, match="time axis"):
        temporal_block(x, Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)), 2)


def test_temporal_block_grad_check():
    # (K, dilation, T): K = 1 is a single slice, K = T the longest kernel the input admits
    for seed, (K, dilation, T) in enumerate(((2, 2, 7), (1, 1, 3), (3, 2, 7), (4, 1, 4))):
        rng = np.random.default_rng(7 + seed)
        x = Tensor(rng.standard_normal((4, 2, T, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((K * 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        T_out = T - dilation * (K - 1)
        weigh = Tensor(rng.standard_normal((4, 2, T_out, 2)))
        f = lambda: reduce_sum(mul(temporal_block(x, w, b, dilation), weigh))
        for r in grad_check(f, {"x": x, "w": w, "b": b}):
            assert r.passed, f"K={K} d={dilation} T={T} {r.name}: rel err {r.max_rel_err:.2e}"


def test_temporal_block_saturated_gate_passes_filter():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 1, 4, 2))
    fw = rng.standard_normal((4, 2))
    w = np.concatenate([fw, np.zeros((4, 2))], axis=1)
    b = np.concatenate([np.zeros(2), np.full(2, 50.0)])  # gate columns: sigmoid(50) = 1
    out = temporal_block(Tensor(x), Tensor(w), Tensor(b), 1).data
    filt = np.zeros((3, 1, 3, 2))
    for kk in range(2):
        filt += np.einsum("co,nbtc->nbto", fw[kk * 2:(kk + 1) * 2], x[:, :, kk:kk + 3])
    np.testing.assert_allclose(out, np.tanh(filt), atol=1e-12)


def _gated_chain(x, w, b, dilation):
    """The temporal block as the former slice, matmul and gated nodes computed it."""
    C, K = x.shape[-1], w.shape[0] // x.shape[-1]
    T_out = x.shape[2] - dilation * (K - 1)
    cols = np.concatenate([x[:, :, k * dilation:k * dilation + T_out] for k in range(K)], axis=-1)
    y = cols.reshape(-1, K * C) @ w
    y += b
    half = w.shape[1] // 2
    out = np.tanh(y[:, :half]) * (0.5 * np.tanh(0.5 * y[:, half:]) + 0.5)
    return out.reshape(x.shape[:2] + (T_out, half))


@pytest.mark.parametrize("K, dilation, T", [(2, 1, 3), (2, 1, 2), (2, 2, 66), (3, 1, 66), (1, 1, 3)])
def test_temporal_block_has_the_bytes_of_the_op_chain(K, dilation, T):
    # the gate model's widths (C = 16 in, 2 * 16 out) at the training batch and the eval run
    rng = np.random.default_rng(50 + K)
    x = rng.standard_normal((130, 32 if T < 10 else 1, T, 16)).astype(np.float32)
    w = rng.uniform(-0.2, 0.2, (K * 16, 32)).astype(np.float32)
    b = rng.uniform(-0.2, 0.2, 32).astype(np.float32)
    out = temporal_block(Tensor(x), Tensor(w), Tensor(b), dilation).data
    assert out.tobytes() == _gated_chain(x, w, b, dilation).tobytes()


def test_temporal_block_is_one_tape_node(monkeypatch):
    rng = np.random.default_rng(51)
    x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((3, 2, 4, 2), (4, 6), (6,)))
    made = _count_tape_nodes(monkeypatch)
    out = temporal_block(x, w, b, 2)
    assert len(made) == 1 and out._parents == (x, w, b) and out.shape == (3, 2, 2, 3)


def _head_chain(hs, skips, end1, end2, P):
    """The head as the former slice, matmul, add, relu, reshape and transpose nodes computed it."""
    N, B = hs[0].shape[:2]
    total = None
    for h, (w, b) in zip(hs, skips):
        cols = np.concatenate([h[:, :, j:j + P] for j in range(h.shape[2] - P + 1)], axis=-1)
        s = cols.reshape(-1, cols.shape[-1]) @ w
        s += b
        total = s if total is None else np.add(total, s)
    e = np.maximum(total, 0) @ end1[0]
    e += end1[1]
    out = np.maximum(e, 0) @ end2[0]
    out += end2[1]
    return np.transpose(out.reshape(N, B * P, -1), (1, 2, 0))


def _head_operands(rng, times, P, dtype=np.float64, N=3, B=2, C=2, Cs=3, Ce=4, H=2):
    """Layer outputs [N, B, T, C] for each T in times, their skip pairs and the two end pairs."""
    def leaf(*shape):
        return Tensor(rng.uniform(-0.8, 0.8, shape).astype(dtype), requires_grad=True)
    hs = [leaf(N, B, T, C) for T in times]
    skips = [(leaf((T - P + 1) * C, Cs), leaf(Cs)) for T in times]
    return hs, skips, (leaf(Cs, Ce), leaf(Ce)), (leaf(Ce, H), leaf(H))


# (layer time lengths, P): one and two layers, a window per batch row (T == P
# at the last layer) and a run of months (T > P at every layer)
HEADS = [((1,), 1), ((2, 1), 1), ((4,), 2), ((5, 3), 3), ((6, 4), 2)]


@pytest.mark.parametrize("times, P", HEADS)
def test_head_has_the_bytes_of_the_op_chain(times, P):
    hs, skips, end1, end2 = _head_operands(np.random.default_rng(60), times, P, np.float32, N=130, B=4,
                                           C=16, Cs=32, Ce=64, H=4)
    out = head(hs, skips, end1, end2, P).data
    assert out.shape == (4 * P, 4, 130)
    want = _head_chain([h.data for h in hs], [(w.data, b.data) for w, b in skips],
                       [t.data for t in end1], [t.data for t in end2], P)
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("times, P", HEADS)
def test_head_grad_check(times, P):
    rng = np.random.default_rng(61)
    hs, skips, end1, end2 = _head_operands(rng, times, P)
    probe = Tensor(rng.standard_normal((2 * P, 2, 3)))
    params = {f"h{l}": h for l, h in enumerate(hs)}
    params.update({f"skip{l}_{i}": t for l, pair in enumerate(skips) for i, t in enumerate(pair)})
    params.update({f"end{j}_{i}": t for j, pair in enumerate((end1, end2)) for i, t in enumerate(pair)})
    for r in grad_check(lambda: reduce_sum(mul(head(hs, skips, end1, end2, P), probe)), params):
        assert r.passed, f"{times} P={P} {r.name}: rel err {r.max_rel_err:.2e}"


def test_head_is_one_tape_node(monkeypatch):
    hs, skips, end1, end2 = _head_operands(np.random.default_rng(62), (5, 3), 3)
    made = _count_tape_nodes(monkeypatch)
    out = head(hs, skips, end1, end2, 3)
    assert len(made) == 1
    assert out._parents == (*hs, *skips[0], *skips[1], *end1, *end2)
    with pytest.raises(ValueError, match="inner dimensions"):
        head(hs, skips, end1, end2, 2)  # layer 0's skip weight reads 3 positions, P = 2 leaves 4
    with pytest.raises(ValueError, match="skip projections"):
        head(hs, skips[:1], end1, end2, 3)


def _mixprop_ref(h, a, beta, ws, b):
    out = np.einsum("co,nbtc->nbto", ws[0], h)
    state = h
    for j in range(1, len(ws)):
        state = beta * h + (1.0 - beta) * np.einsum("ij,jbtc->ibtc", a, state)
        out += np.einsum("co,nbtc->nbto", ws[j], state)
    return out + b


def _blocks(w, n):
    """Split a fused mix-hop weight [n*C, O] into its n per-state weights."""
    return np.split(w, n, axis=0)


def test_mixhop_matches_numpy_reference():
    rng = np.random.default_rng(2)
    N, B, T, C, Co, D = 5, 2, 2, 3, 4, 2
    h = rng.standard_normal((N, B, T, C))
    raw = np.abs(rng.standard_normal((N, N)))
    np.fill_diagonal(raw, 0.0)
    a_fwd = (raw + np.eye(N)) / (raw + np.eye(N)).sum(axis=1, keepdims=True)
    a_bwd = (raw.T + np.eye(N)) / (raw.T + np.eye(N)).sum(axis=1, keepdims=True)
    beta = 0.3
    w = rng.standard_normal(((2 * D + 1) * C, Co))
    b = rng.standard_normal(Co)

    out = mixhop_conv(Tensor(h), _hops(a_fwd, a_bwd, beta), beta, D, Tensor(w), Tensor(b)).data
    # the layer input's block acts once; hop blocks follow, forward then backward
    blocks = _blocks(w, 2 * D + 1)
    wf = blocks[:D + 1]
    wb = [np.zeros_like(blocks[0])] + blocks[D + 1:]
    ref = _mixprop_ref(h, a_fwd, beta, wf, b) + _mixprop_ref(h, a_bwd, beta, wb, np.zeros(Co))
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_mixhop_identity_adjacency_collapses_hops():
    rng = np.random.default_rng(3)
    N, B, T, C = 4, 1, 3, 2
    h = rng.standard_normal((N, B, T, C))
    eye = np.eye(N)
    w = rng.standard_normal((5 * C, C))
    b = np.zeros(C)
    out = mixhop_conv(Tensor(h), _hops(eye, eye, 0.05), 0.05, 2, Tensor(w), Tensor(b)).data
    # with A = I every hop state equals h, so the sum collapses to h @ sum(Wj)
    wsum = sum(_blocks(w, 5))
    ref = np.einsum("co,nbtc->nbto", wsum, h)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_mixhop_beta_one_ignores_the_graph():
    rng = np.random.default_rng(4)
    N, B, T, C = 5, 1, 3, 2
    h = rng.standard_normal((N, B, T, C))
    raw = np.abs(rng.standard_normal((N, N)))
    a = (raw + np.eye(N)) / (raw + np.eye(N)).sum(axis=1, keepdims=True)
    a_t = (raw.T + np.eye(N)) / (raw.T + np.eye(N)).sum(axis=1, keepdims=True)
    w = Tensor(rng.standard_normal((3 * C, C)))
    b = Tensor(rng.standard_normal(C))
    out_a = mixhop_conv(Tensor(h), _hops(a, a_t, 1.0), 1.0, 1, w, b).data
    out_i = mixhop_conv(Tensor(h), _hops(np.eye(N), np.eye(N), 1.0), 1.0, 1, w, b).data
    np.testing.assert_allclose(out_a, out_i, atol=1e-12)


def _hops(a_fwd, a_bwd, beta):
    """The [2, N, N] stack of hop matrices (1 - beta) * A for two row-stochastic adjacencies."""
    return Tensor(np.stack([(1.0 - beta) * a_fwd, (1.0 - beta) * a_bwd]))


def _chain_ref(h, hops, beta, depth, w, b):
    """Mix-hop as an op chain: each hop m @ s + beta*h, the states joined on the channel axis, one GEMM."""
    N, C = h.shape[0], h.shape[-1]
    states = [h]
    for m in hops:
        s = h
        for _ in range(depth):
            s = (m @ s.reshape(N, -1)).reshape(h.shape) + beta * h
            states.append(s)
    joined = np.concatenate(states, axis=-1)
    return (joined.reshape(-1, (2 * depth + 1) * C) @ w + b).reshape(h.shape[:-1] + (-1,))


def _mixhop_operands(rng, depth, dtype=np.float64, N=5, B=2, T=3, C=3, C_out=4, beta=0.05):
    """h, a stack of two different hop matrices (1 - beta) * A, w and b as tracked tensors."""
    mats = []
    for _ in range(2):
        raw = rng.uniform(0.0, 1.0, (N, N)) + np.eye(N)
        mats.append((1.0 - beta) * raw / raw.sum(axis=1, keepdims=True))
    arrays = [rng.standard_normal((N, B, T, C)), np.stack(mats),
              rng.uniform(-0.5, 0.5, ((2 * depth + 1) * C, C_out)), rng.uniform(-0.5, 0.5, C_out)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_mixhop_conv_matches_the_concatenated_chain(depth, dtype, atol):
    # the summation order of the projection moved, so the match is close but not bitwise
    for beta in (0.0, 0.05, 1.0):
        rng = np.random.default_rng(20 + depth)
        h, hops, w, b = _mixhop_operands(rng, depth, dtype, N=7, B=3, beta=beta)
        out = mixhop_conv(h, hops, beta, depth, w, b).data
        assert out.dtype == dtype and out.shape == (7, 3, 3, 4)
        ref = _chain_ref(*(t.data.astype(np.float64) for t in (h, hops)), beta, depth,
                         w.data.astype(np.float64), b.data.astype(np.float64))
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=atol)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("beta", [0.0, 0.05, 1.0])
def test_mixhop_conv_grad_check(depth, beta):
    rng = np.random.default_rng(30 + depth)
    h, hops, w, b = _mixhop_operands(rng, depth, beta=beta)
    # the residual's trailing months are added; T_in == T adds all of it
    for t_in in (5, 3):
        residual = Tensor(rng.standard_normal((5, 2, t_in, 4)), requires_grad=True)
        probe = Tensor(rng.standard_normal((5, 2, 3, 4)))
        f = lambda: reduce_sum(mul(mixhop_conv(h, hops, beta, depth, w, b, residual), probe))
        for r in grad_check(f, {"h": h, "hops": hops, "w": w, "b": b, "residual": residual}):
            assert r.passed, f"depth {depth} beta {beta} T_in {t_in} {r.name}: rel err {r.max_rel_err:.2e}"
    if depth == 0:
        # the hop matrices take no part, so they read back an exact zero gradient
        assert not hops.grad.any()


def test_mixhop_conv_adds_the_residual_last():
    # bytes of the former residual node, an add of the layer input's trailing months
    rng = np.random.default_rng(41)
    h, hops, w, b = _mixhop_operands(rng, 2, np.float32)
    residual = rng.standard_normal((5, 2, 4, 4)).astype(np.float32)
    out = mixhop_conv(h, hops, 0.05, 2, w, b, Tensor(residual)).data
    want = np.add(mixhop_conv(h, hops, 0.05, 2, w, b).data, residual[:, :, 1:])
    assert out.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="residual of 2 months"):
        mixhop_conv(h, hops, 0.05, 2, w, b, Tensor(residual[:, :, :2]))


def test_mixhop_conv_is_one_tape_node(monkeypatch):
    h, hops, w, b = _mixhop_operands(np.random.default_rng(40), 2)
    residual = Tensor(np.zeros((5, 2, 4, 4)), requires_grad=True)
    made = _count_tape_nodes(monkeypatch)
    out = mixhop_conv(h, hops, 0.05, 2, w, b, residual)
    assert len(made) == 1 and out._parents == (h, w, b, hops, residual)
    with pytest.raises(ValueError, match="blocks"):
        mixhop_conv(h, hops, 0.05, 1, w, b)


# Hashes mixhop_conv's float32 gradients at the default model's node count and
# width (N = 130, C = C_out = 16, depth 2) for every B*T from 1 to 64: w's
# contraction runs over N*B*T and each hop matrix's over B*T*C, so this covers
# every length a training batch of up to 64 windows gives.
MIXHOP_HASHES = r"""
import hashlib
import numpy as np
from ensograph.adiff import Tensor, backward, mul, reduce_sum
from ensograph.stgnn import mixhop_conv
rng = np.random.default_rng(0)
pool = rng.standard_normal((2, 130, 64 * 16)).astype(np.float32)
raw = rng.uniform(0.0, 1.0, (2, 130, 130)) + np.eye(130)
mats = (0.95 * raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
w0 = rng.uniform(-0.25, 0.25, (5 * 16, 16)).astype(np.float32)
b0 = rng.uniform(-0.25, 0.25, 16).astype(np.float32)
for bt in range(1, 65):
    h = Tensor(pool[0, :, :16 * bt].reshape(130, bt, 1, 16).copy(), requires_grad=True)
    hops = Tensor(mats.copy(), requires_grad=True)
    w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    probe = Tensor(pool[1, :, :16 * bt].reshape(130, bt, 1, 16).copy())
    backward(reduce_sum(mul(mixhop_conv(h, hops, 0.05, 2, w, b), probe)))
    grads = b"".join(t.grad.tobytes() for t in (h, hops, w, b))
    print(bt, hashlib.sha256(grads).hexdigest())
"""


def test_mixhop_gradient_bytes_do_not_depend_on_blas_threads():
    runs = output_at_one_and_two_blas_threads(MIXHOP_HASHES)
    assert len(runs[0]) == 64
    differ = [one.split(" ", 1)[0] for one, two in zip(*runs) if one != two]
    assert not differ, f"mix-hop gradient bytes differ between 1 and 2 BLAS threads at B*T = {differ}"


def test_hop_matrix_rejects_nan_adjacency():
    # a NaN in either embedding table makes the adjacency's rows NaN
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    params["e2"].data[2, 1] = np.nan
    with pytest.raises(NumericalError, match="mix-hop"):
        hop_matrices(params, cfg)


def test_forward_flags_a_nan_embedding_before_mix_hop():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    params["e1"].data[0, 0] = np.nan
    with pytest.raises(NumericalError, match="mix-hop"):
        forward(params, cfg, _rand_input(np.random.default_rng(2), cfg))


# ------------------------------------------------------------------ forward

def test_forward_output_shape():
    cfg = tiny_config(horizon=3)
    params = init_params(cfg, seed=0)
    out = forward(params, cfg, _rand_input(np.random.default_rng(0), cfg, batch=4))
    assert out.shape == (4, 3, cfg.n_nodes)
    assert out.data.dtype == np.float32


def test_forward_zero_params_zero_output():
    cfg = tiny_config()
    out = forward(_zero_params(cfg), cfg, _rand_input(np.random.default_rng(1), cfg))
    assert np.all(out.data == 0.0)


def test_forward_takes_no_gradient_to_its_input():
    cfg = tiny_config()
    x = _rand_input(np.random.default_rng(1), cfg)
    x.requires_grad = True
    with pytest.raises(ValueError, match="no gradient"):
        forward(init_params(cfg, seed=0), cfg, x)


def test_forward_rejects_bad_input_shape():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ValueError):
        forward(params, cfg, Tensor(np.zeros((2, 1, cfg.n_nodes, cfg.window - 1), dtype=np.float32)))
    with pytest.raises(ValueError):
        forward(params, cfg, Tensor(np.zeros((2, 2, cfg.n_nodes, cfg.window), dtype=np.float32)))


@pytest.mark.parametrize("cfg", [
    ModelConfig(n_nodes=130, horizon=4),
    tiny_config(kernel_size=3, dilations=(1, 1), window=6),  # skips read 4 and 2 positions
    tiny_config(kernel_size=3, dilations=(1, 2), window=8),  # 6 and 2, through a dilation of 2
], ids=["gate", "k3-d11-w6", "k3-d12-w8"])
def test_forward_on_a_sequence_gives_every_window_its_own_bytes(cfg):
    params = init_params(cfg, seed=14)
    B, P = 2, 9
    x = np.random.default_rng(15).standard_normal(
        (B, 1, cfg.n_nodes, cfg.window + P - 1)).astype(np.float32)
    out = forward(params, cfg, Tensor(x)).data
    assert out.shape == (B * P, cfg.horizon, cfg.n_nodes)
    for b in range(B):
        for p in range(P):
            alone = forward(params, cfg, Tensor(np.ascontiguousarray(x[b:b + 1, :, :, p:p + cfg.window])))
            np.testing.assert_array_equal(out[b * P + p].view(np.uint32), alone.data[0].view(np.uint32))


def test_model_grad_check_on_a_month_run():
    # training feeds runs of months, T = w + P - 1; a run of 8 windows checks the
    # skip's and the residual's time slices over the longer axis
    cfg = tiny_config(n_nodes=5, horizon=2, seed=1)
    params = init_params(cfg, dtype=np.float64)
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((2, 1, 5, cfg.window + 7)))
    c = rng.standard_normal((16, cfg.horizon, 5))
    for r in grad_check(lambda: reduce_sum(mul(forward(params, cfg, x), c)), dict(params.items())):
        assert r.passed, (r.name, r.max_rel_err)


def test_forward_flags_non_finite_input():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    x = np.zeros((1, 1, cfg.n_nodes, cfg.window), dtype=np.float32)
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        forward(params, cfg, Tensor(x))


def test_forward_flags_non_finite_activations():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    params["l0_tcn_w"].data[:] = np.inf
    x = _rand_input(np.random.default_rng(2), cfg)
    with pytest.raises(NumericalError, match="layer 0"), \
            pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        forward(params, cfg, x)


def test_forward_is_deterministic():
    cfg = tiny_config()
    params = init_params(cfg, seed=5)
    x = _rand_input(np.random.default_rng(3), cfg)
    a = forward(params, cfg, x).data.tobytes()
    b = forward(params, cfg, x).data.tobytes()
    assert a == b


def test_forward_batch_composition():
    cfg = tiny_config()
    params = init_params(cfg, seed=6)
    rng = np.random.default_rng(4)
    x = _rand_input(rng, cfg, batch=5)
    full = forward(params, cfg, x).data
    parts = [forward(params, cfg, Tensor(x.data[i:i + 1])).data for i in range(5)]
    np.testing.assert_allclose(full, np.concatenate(parts, axis=0), atol=1e-6)


def test_forward_node_permutation_equivariance():
    cfg = tiny_config(n_nodes=7)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(5)
    x = _rand_input(rng, cfg)
    out = forward(params, cfg, x).data

    perm = rng.permutation(cfg.n_nodes)
    tensors = {name: Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()}
    tensors["e1"] = Tensor(params["e1"].data[perm].copy(), requires_grad=True)
    tensors["e2"] = Tensor(params["e2"].data[perm].copy(), requires_grad=True)
    out_p = forward(ModelParams(tensors), cfg, Tensor(x.data[:, :, perm, :].copy())).data
    np.testing.assert_allclose(out_p, out[:, :, perm], atol=1e-5)


def test_forward_beta_one_is_embedding_independent():
    cfg = tiny_config(beta=1.0)
    params = init_params(cfg, seed=8)
    x = _rand_input(np.random.default_rng(6), cfg)
    out = forward(params, cfg, x).data
    tensors = {name: Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()}
    rng = np.random.default_rng(99)
    tensors["e1"] = Tensor(rng.standard_normal(params["e1"].shape).astype(np.float32) * 0.1,
                           requires_grad=True)
    tensors["e2"] = Tensor(rng.standard_normal(params["e2"].shape).astype(np.float32) * 0.1,
                           requires_grad=True)
    out2 = forward(ModelParams(tensors), cfg, x).data
    np.testing.assert_allclose(out, out2, atol=1e-6)


def _count_tape_nodes(monkeypatch):
    made = []
    from_op = adiff._from_op
    monkeypatch.setattr(adiff, "_from_op", lambda *args: made.append(1) or from_op(*args))
    return made


def test_gate_config_forward_and_loss_make_10_tape_nodes(monkeypatch):
    # one node per stage: the learned graph (both hop matrices), the start
    # projection, each layer's temporal block and mix-hop (which adds the
    # residual), and the head (skips, skip sum, relus, end1 and end2); the
    # loss is sub, abs and mean
    cfg = ModelConfig(n_nodes=130, horizon=4)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(12)
    x = _rand_input(rng, cfg)
    target = Tensor(rng.standard_normal((2, cfg.horizon, cfg.n_nodes)).astype(np.float32))
    made = _count_tape_nodes(monkeypatch)
    backward(mae_loss(forward(params, cfg, x), target))
    assert len(made) == 10


def test_gate_config_eval_sequence_forward_makes_7_tape_nodes(monkeypatch):
    # eval's detached forward over 66 months (64 windows); every stage reads
    # the run's time slices inside its node, so the count does not grow with P
    cfg = ModelConfig(n_nodes=130, horizon=4)
    params = ModelParams({name: Tensor(t.data) for name, t in init_params(cfg, seed=0).items()})
    x = np.random.default_rng(13).standard_normal((1, 1, cfg.n_nodes, cfg.window + 63))
    made = _count_tape_nodes(monkeypatch)
    out = forward(params, cfg, Tensor(x.astype(np.float32)))
    assert out.shape == (64, cfg.horizon, cfg.n_nodes)
    assert len(made) == 7


def test_gate_config_eval_sequence_forward_given_hops_makes_6_tape_nodes(monkeypatch):
    # the same forward given its hop_matrices stack skips the graph's node
    cfg = ModelConfig(n_nodes=130, horizon=4)
    params = ModelParams({name: Tensor(t.data) for name, t in init_params(cfg, seed=0).items()})
    x = Tensor(np.random.default_rng(13).standard_normal((1, 1, cfg.n_nodes, cfg.window + 63)).astype(np.float32))
    hops = hop_matrices(params, cfg)
    assert hops.shape == (2, cfg.n_nodes, cfg.n_nodes)
    made = _count_tape_nodes(monkeypatch)
    out = forward(params, cfg, x, hops)
    assert len(made) == 6
    np.testing.assert_array_equal(out.data.view(np.uint32), forward(params, cfg, x).data.view(np.uint32))


# Hashes every parameter gradient of one gate-config forward and backward at
# batch 31 (single windows) and at batch 32 (4 runs of 8 windows, as training
# steps take them), and the output of one detached 66-month eval forward.
MODEL_HASHES = r"""
import hashlib
import numpy as np
from ensograph.adiff import Tensor, backward
from ensograph.stgnn import ModelConfig, ModelParams, forward, init_params
from ensograph.train import mae_loss
rng = np.random.default_rng(0)
cfg = ModelConfig(n_nodes=130, horizon=4)
for rows, months in ((31, 3), (4, 10)):
    params = init_params(cfg, seed=1)
    x = rng.standard_normal((rows, 1, 130, months)).astype(np.float32)
    out = forward(params, cfg, Tensor(x))
    backward(mae_loss(out, Tensor(rng.standard_normal(out.shape).astype(np.float32))))
    for name, t in params.items():
        print(rows, months, name, hashlib.sha256(t.grad.tobytes()).hexdigest())
cfg = ModelConfig(n_nodes=130, horizon=7)
params = ModelParams({name: Tensor(t.data) for name, t in init_params(cfg, seed=2).items()})
x = rng.standard_normal((1, 1, 130, 66)).astype(np.float32)
print("eval", hashlib.sha256(forward(params, cfg, Tensor(x)).data.tobytes()).hexdigest())
"""


def test_model_gradient_and_eval_bytes_do_not_depend_on_blas_threads():
    runs = output_at_one_and_two_blas_threads(MODEL_HASHES)
    assert len(runs[0]) == 2 * len(param_shapes(ModelConfig(n_nodes=130, horizon=4))) + 1
    differ = [one.rsplit(" ", 1)[0] for one, two in zip(*runs) if one != two]
    assert not differ, f"bytes differ between 1 and 2 BLAS threads at {differ}"


def test_forward_backward_fills_every_parameter():
    cfg = tiny_config()
    params = init_params(cfg, seed=9)
    x = _rand_input(np.random.default_rng(7), cfg)
    backward(reduce_sum(forward(params, cfg, x)))
    for name, t in params.items():
        assert t.grad is not None, name
        assert t.grad.dtype == t.data.dtype == np.float32, name
        assert np.any(t.grad != 0.0), f"no gradient reached {name}"


# --------------------------------------------------------------- prediction

def test_predict_oni_brute_force():
    # The ONI forecast: k=3 windows with the observed area mean as lead 0.
    rng = np.random.default_rng(8)
    H, N = 4, 6
    node_preds = rng.standard_normal((H, N))
    weights = np.abs(rng.standard_normal(N)) + 0.1
    last = 0.42
    out = predicted_index(node_preds, [last], weights, k=3)
    means = node_preds @ weights / weights.sum()  # lead 1..H
    series = np.concatenate([[last], means])      # lead 0..H
    expect = [(series[n - 1] + series[n] + series[n + 1]) / 3.0 for n in range(1, H)]
    np.testing.assert_allclose(out, expect, atol=1e-12)
    assert out.shape == (H - 1,)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_predicted_index_batch_matches_per_window_loop(k):
    rng = np.random.default_rng(10 + k)
    S, H, N, half = 7, 6, 5, k // 2
    node_preds = rng.standard_normal((S, H, N))
    tails = rng.standard_normal((S, half))
    weights = np.abs(rng.standard_normal(N)) + 0.1
    batched = predicted_index(node_preds, tails, weights, k)
    looped = np.stack([predicted_index(node_preds[s], tails[s], weights, k) for s in range(S)])
    assert batched.shape == (S, H - (k - 1 - half))
    np.testing.assert_allclose(batched, looped, rtol=0.0, atol=1e-12)
    # two leading axes flatten to the same rows
    stacked = predicted_index(node_preds.reshape(S, 1, H, N), tails.reshape(S, 1, half), weights, k)
    np.testing.assert_allclose(stacked[:, 0], batched, rtol=0.0, atol=1e-12)


def test_predicted_index_without_batch_axis():
    rng = np.random.default_rng(13)
    node_preds = rng.standard_normal((5, 3))
    weights = np.ones(3)
    tail = np.array([0.1, -0.4])
    out = predicted_index(node_preds, tail, weights, k=3)
    series = np.concatenate([[-0.4], node_preds.mean(axis=1)])  # only the newest observation serves k=3
    np.testing.assert_allclose(out, [series[n - 1: n + 2].mean() for n in range(1, 5)], atol=1e-12)
    assert out.shape == (4,)
    with pytest.raises(ValueError, match="leading axes"):
        predicted_index(np.zeros((2, 5, 3)), tail, weights, k=3)


def test_predict_oni_validates():
    weights = np.ones(3)
    with pytest.raises(ValueError, match="horizon"):
        predicted_index(np.zeros((1, 3)), [0.0], weights, k=3)  # needs H >= 2
    with pytest.raises(ValueError, match="trailing observations"):
        predicted_index(np.zeros((4, 3)), [0.0], weights, k=5)  # one observed lead serves k=3 only


def test_predicted_index_k5_uses_two_observed_leads():
    rng = np.random.default_rng(9)
    H, N = 6, 4
    node_preds = rng.standard_normal((H, N))
    weights = np.ones(N)
    tail = np.array([0.3, -0.2])  # leads -1 and 0, newest last
    out = predicted_index(node_preds, tail, weights, k=5)
    means = node_preds.mean(axis=1)
    series = np.concatenate([tail, means])  # series[m] is lead m-1
    expect = [series[n - 1: n + 4].mean() for n in range(1, H - 1)]
    np.testing.assert_allclose(out, expect, atol=1e-12)
    assert out.shape == (4,)


def test_predicted_index_needs_enough_tail():
    with pytest.raises(ValueError):
        predicted_index(np.zeros((6, 2)), [0.0], np.ones(2), k=5)


# --------------------------------------------------------------- checkpoint

# what save_checkpoint stores besides a tiny_config() model's parameters
CHECKPOINT_FIELDS = dict(input_scale=1.0, seed=0, base_period=(1900, 1950),
                         grid=GridSpec((0.0, 2.0), (10.0, 12.0, 14.0)), nodes=[(i // 3, i % 3) for i in range(6)])


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(horizon=3)
    params = init_params(cfg, seed=11)
    grid = GridSpec((0.0, 2.0), (10.0, 12.0, 14.0))
    nodes = [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (0, 1)]
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, cfg, 0.75, 11,
                    base_period=(1900, 1950), grid=grid, nodes=nodes)
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert ckpt.input_scale == 0.75
    assert ckpt.seed == 11
    assert ckpt.base_period == (1900, 1950)
    assert ckpt.grid == grid
    assert ckpt.nodes == nodes
    for name, t in params.items():
        assert ckpt.params[name].data.tobytes() == t.data.tobytes()
        assert ckpt.params[name].requires_grad


@pytest.mark.parametrize("field, value", [
    ("input_scale", 0.0),
    ("input_scale", float("nan")),
    ("base_period", (1907, 1900)),
    ("nodes", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]),  # row 2 is off the 2-row grid
    ("nodes", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 1)]),  # a repeated node
], ids=["zero-scale", "nan-scale", "reversed-period", "off-grid", "repeated"])
def test_save_checkpoint_refuses_what_load_would(tmp_path, field, value):
    cfg = tiny_config()
    fields = dict(CHECKPOINT_FIELDS, **{field: value})
    path = tmp_path / "m.bin"
    with pytest.raises(ValueError, match=field):
        save_checkpoint(path, init_params(cfg, seed=0), cfg, **fields)
    assert not path.exists()


@pytest.mark.parametrize("name, value", [("e1", np.nan), ("end2_b", np.nan), ("l0_mix_w", np.inf),
                                         ("start_b", -np.inf)])
def test_checkpoint_refuses_a_non_finite_tensor(tmp_path, name, value):
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg, **CHECKPOINT_FIELDS)
    clean = path.read_bytes()
    params[name].data.flat[0] = value
    with pytest.raises(ValueError, match=f"tensor {name} holds a non-finite value"):
        save_checkpoint(path, params, cfg, **CHECKPOINT_FIELDS)
    assert path.read_bytes() == clean  # nothing was written

    path.write_bytes(poisoned_checkpoint(clean, name, value))
    with pytest.raises(ValidationError, match=f"tensor {name} holds a non-finite value"):
        load_checkpoint(path)


def test_checkpoint_rejects_tampering(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    path = tmp_path / "m.bin"
    save_checkpoint(path, params, cfg, **CHECKPOINT_FIELDS)
    raw = path.read_bytes()
    cut = raw.find(b"\n")
    header = json.loads(raw[:cut])

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(ValidationError, match="bytes"):
        load_checkpoint(truncated)

    bad = dict(header)
    bad["tensors"] = bad["tensors"][1:]
    p2 = tmp_path / "drop.bin"
    p2.write_bytes(json.dumps(bad).encode() + b"\n" + raw[cut + 1:])
    with pytest.raises(ValidationError, match="tensors"):
        load_checkpoint(p2)

    bad = dict(header, format_version=77)
    p3 = tmp_path / "ver.bin"
    p3.write_bytes(json.dumps(bad).encode() + b"\n" + raw[cut + 1:])
    with pytest.raises(ValidationError, match="version"):
        load_checkpoint(p3)

    # the records version 2 wrote for this config: [C_out, C_in, 1, K] kernels, channel-major
    def kernel(name, *shape):
        return [{"name": f"{name}_w", "shape": list(shape)}, {"name": f"{name}_b", "shape": [shape[0]]}]

    v2_tensors = [{"name": "e1", "shape": [6, 3]}, {"name": "e2", "shape": [6, 3]}] + kernel("start", 4, 1, 1, 1)
    for layer, t_out in (("l0", 2), ("l1", 1)):
        v2_tensors += (kernel(f"{layer}_tcn", 8, 4, 1, 2) + kernel(f"{layer}_mix", 4, 20, 1, 1)
                       + kernel(f"{layer}_skip", 4, 4, 1, t_out))
    v2_tensors += kernel("end1", 8, 4, 1, 1) + kernel("end2", 2, 8, 1, 1)
    assert [r["name"] for r in v2_tensors] == [r["name"] for r in header["tensors"]]
    v2 = dict(header, format_version=2, tensors=v2_tensors)
    p7 = tmp_path / "v2.bin"
    p7.write_bytes(json.dumps(v2).encode() + b"\n" + raw[cut + 1:])  # same element counts
    with pytest.raises(ValidationError, match="unsupported checkpoint version 2"):
        load_checkpoint(p7)
    assert main(["graph-export", "--checkpoint", str(p7), "--out", str(tmp_path / "e.csv")]) == 2

    # the records version 1 wrote: filter and gate apart, one kernel per mix-hop state and direction
    v1_tensors = []
    for r in v2_tensors:
        layer, _, kind = r["name"].partition("_")
        if kind == "tcn_w":
            for g in ("filter", "gate"):
                v1_tensors += kernel(f"{layer}_{g}", 4, 4, 1, 2)
        elif kind == "mix_w":
            for d in ("fwd", "bwd"):
                v1_tensors += [{"name": f"{layer}_mix_{d}_w{j}", "shape": [4, 4, 1, 1]} for j in range(3)]
                v1_tensors.append({"name": f"{layer}_mix_{d}_b", "shape": [4]})
        elif kind not in ("tcn_b", "mix_b"):
            v1_tensors.append(r)
    v1 = dict(header, format_version=1, tensors=v1_tensors)
    n_values = sum(int(np.prod(r["shape"])) for r in v1_tensors)
    p6 = tmp_path / "v1.bin"
    p6.write_bytes(json.dumps(v1).encode() + b"\n" + bytes(4 * n_values))
    with pytest.raises(ValidationError, match="unsupported checkpoint version 1"):
        load_checkpoint(p6)

    p4 = tmp_path / "garbage.bin"
    p4.write_bytes(b"\xff\xfe\x00\n" + raw[cut + 1:])
    with pytest.raises(ValidationError):
        load_checkpoint(p4)

    p5 = tmp_path / "list.bin"
    p5.write_bytes(b"[1, 2]\n" + raw[cut + 1:])
    with pytest.raises(ValidationError, match="JSON object"):
        load_checkpoint(p5)
