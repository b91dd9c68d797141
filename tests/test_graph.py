import math
import weakref

import numpy as np
import pytest

from ensograph import adiff, graph
from ensograph.adiff import Tensor, backward, grad_check, mul, reduce_sum
from ensograph.errors import NumericalError, ValidationError
from ensograph.graph import (
    GraphLearnConfig,
    _adjacency,
    _adjacency_backward,
    _normalized,
    _normalized_backward,
    _topk_mask,
    correlation_graph,
    export_edges,
    kept_adjacency,
    propagation_matrices,
)
from helpers import count_graph_builds, random_anoms, shared_add, small_grid


def learn_adjacency(e1, e2, alpha):
    """The learned adjacency as a tape node, from the rule and gradient rule propagation_matrices runs."""
    out, y, scale = _adjacency(e1.data, e2.data, alpha)
    return adiff._from_op(out, (e1, e2), lambda g: _adjacency_backward(g, y, scale, e1, e2))


def topk_sparsify(a, k):
    """Each row's top-k entries of a as a tape node: a times the mask propagation_matrices keeps."""
    mask = _topk_mask(a.data, k)
    return a if mask is None else mul(a, Tensor(mask))


def normalize(a):
    """D^-1 (A + I) as a tape node, from the normalization and gradient rule propagation_matrices runs."""
    out, s = _normalized(a.data, np.eye(a.shape[0], dtype=a.dtype))
    return adiff._from_op(out, (a,), lambda g: adiff._accum(a, _normalized_backward(g, out, s)))


def _embeddings(rng, n, d):
    e1 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    e2 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    return e1, e2


def test_two_node_adjacency_hand_value():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    a = kept_adjacency(e1, e2, GraphLearnConfig(embed_dim=1, alpha=1.0, topk=2))
    # score matrix [[0, 1], [-1, 0]]: relu(tanh(.)) keeps only the 0->1 edge
    assert abs(a[0, 1] - math.tanh(1.0)) < 1e-12
    assert a[1, 0] == 0.0
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0


def test_adjacency_invariants_over_random_embeddings():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, d = int(rng.integers(2, 25)), int(rng.integers(1, 6))
        e1, e2 = _embeddings(rng, n, d)
        k = int(rng.integers(1, n + 1))
        config = GraphLearnConfig(embed_dim=d, alpha=float(rng.uniform(0.5, 5.0)), topk=k)
        a = kept_adjacency(e1.data, e2.data, config)
        assert np.all(a >= 0.0)
        assert np.all(a < 1.0)
        assert np.all(np.diag(a) == 0.0)
        assert np.all(a * a.T == 0.0)  # at most one direction per pair
        assert np.all(np.count_nonzero(a, axis=1) <= k)


def test_alpha_sharpens_toward_binary():
    rng = np.random.default_rng(1)
    e1, e2 = _embeddings(rng, 10, 4)
    soft = learn_adjacency(e1, e2, alpha=0.5).data
    hard = learn_adjacency(e1, e2, alpha=50.0).data
    live = soft > 0
    assert np.all(hard[live] >= soft[live])
    # edges with a clearly positive score saturate; near-zero scores may not
    assert np.all(hard[soft > 0.2] > 0.99)
    assert np.all(hard < 1.0)


def test_topk_keeps_k_largest_per_row():
    a = Tensor(np.array([
        [0.0, 0.9, 0.1, 0.5],
        [0.2, 0.0, 0.8, 0.3],
        [0.7, 0.6, 0.0, 0.1],
        [0.4, 0.3, 0.2, 0.0],
    ]))
    out = topk_sparsify(a, 2).data
    np.testing.assert_array_equal(out, [
        [0.0, 0.9, 0.0, 0.5],
        [0.0, 0.0, 0.8, 0.3],
        [0.7, 0.6, 0.0, 0.0],
        [0.4, 0.3, 0.0, 0.0],
    ])


def test_topk_breaks_ties_toward_lower_column():
    a = np.zeros((4, 4))
    a[0] = [0.0, 0.5, 0.5, 0.5]
    out = topk_sparsify(Tensor(a), 2).data
    np.testing.assert_array_equal(out[0], [0.0, 0.5, 0.5, 0.0])


def test_topk_with_k_at_or_above_n_is_identity():
    rng = np.random.default_rng(2)
    a = Tensor(np.abs(rng.standard_normal((5, 5))))
    np.testing.assert_array_equal(topk_sparsify(a, 5).data, a.data)
    np.testing.assert_array_equal(topk_sparsify(a, 9).data, a.data)


def test_topk_row_budget_over_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        a = Tensor(np.abs(rng.standard_normal((n, n))))
        out = topk_sparsify(a, k).data
        assert np.all((out > 0).sum(axis=1) <= k)
        # retained entries are unchanged
        live = out > 0
        np.testing.assert_array_equal(out[live], a.data[live])


def test_topk_gradient_flows_only_through_kept_entries():
    a = Tensor(np.array([[0.0, 0.9, 0.1], [0.2, 0.0, 0.8], [0.7, 0.6, 0.0]]),
               requires_grad=True)
    backward(reduce_sum(topk_sparsify(a, 1)))
    np.testing.assert_array_equal(a.grad, [[0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0],
                                           [1.0, 0.0, 0.0]])


def test_normalize_rows_sum_to_one_with_self_loops():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        a = Tensor(np.abs(rng.standard_normal((n, n))))
        out = normalize(a).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-12)
    # zero matrix normalizes to the identity
    np.testing.assert_array_equal(normalize(Tensor(np.zeros((3, 3)))).data, np.eye(3))


def _old_chain_adjacency(e1, e2, alpha):
    """The adjacency as the former matmul, transpose, sub, mul, tanh and relu nodes computed it."""
    m = e1 @ e2.T
    out = np.maximum(np.tanh(np.multiply(np.subtract(m, m.T), np.asarray(alpha, dtype=m.dtype))), 0)
    return np.minimum(out, np.nextafter(m.dtype.type(1.0), m.dtype.type(0.0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_learn_adjacency_bytes_match_the_old_op_chain(dtype):
    rng = np.random.default_rng(8)
    for n, d, alpha, scale in ((6, 3, 3.0, 0.1), (130, 16, 3.0, 0.1), (40, 4, 60.0, 10.0)):
        e1 = rng.standard_normal((n, d)).astype(dtype) * dtype(scale)
        e2 = rng.standard_normal((n, d)).astype(dtype) * dtype(scale)
        got = learn_adjacency(Tensor(e1), Tensor(e2), alpha).data
        assert got.dtype == dtype
        assert got.tobytes() == _old_chain_adjacency(e1, e2, alpha).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_bytes_match_the_old_op_chain(dtype):
    rng = np.random.default_rng(9)
    a = np.abs(rng.standard_normal((130, 130))).astype(dtype)
    for x in (a, a.T):  # the backward direction normalizes a transposed view
        y = np.add(x, np.eye(130, dtype=dtype))
        want = np.divide(y, y.sum(axis=(1,)).reshape(130, 1))
        assert normalize(Tensor(x)).data.tobytes() == want.tobytes()


def test_learn_adjacency_passes_grad_check():
    rng = np.random.default_rng(10)
    e1, e2 = _embeddings(rng, 7, 3)
    probe = Tensor(rng.standard_normal((7, 7)))
    for alpha in (0.7, 3.0, 40.0):
        a = learn_adjacency(e1, e2, alpha).data
        if alpha == 40.0:
            # some entries round tanh to 1 and are capped, where the gradient is zero
            assert np.any(a == np.nextafter(1.0, 0.0))
        for r in grad_check(lambda: reduce_sum(mul(learn_adjacency(e1, e2, alpha), probe)),
                            {"e1": e1, "e2": e2}):
            assert r.passed, f"alpha {alpha}, {r.name}: rel err {r.max_rel_err:.2e}"


def _transposed(a):
    """a^T as a tape node, so normalize meets the transposed view the backward direction takes."""
    return adiff._from_op(a.data.T, (a,), lambda g: adiff._accum(a, g.T))


def test_normalize_passes_grad_check_on_plain_and_transposed_input():
    rng = np.random.default_rng(11)
    a = Tensor(rng.uniform(0.0, 1.0, (5, 5)), requires_grad=True)
    probe = Tensor(rng.standard_normal((5, 5)))
    for f in (lambda: normalize(a), lambda: normalize(_transposed(a))):
        for r in grad_check(lambda: reduce_sum(mul(f(), probe)), {"a": a}):
            assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"


def test_full_graph_pipeline_is_differentiable():
    rng = np.random.default_rng(5)
    e1, e2 = _embeddings(rng, 6, 3)

    def f():
        a = learn_adjacency(e1, e2, alpha=2.0)
        return reduce_sum(normalize(topk_sparsify(a, 3)))

    for r in grad_check(f, {"e1": e1, "e2": e2}):
        assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"


def _op_chain_matrices(e1, e2, config, beta):
    """The kept adjacency and the hop-matrix pair as the adjacency, top-k, transpose, normalization
    and scaling nodes build them."""
    a = topk_sparsify(learn_adjacency(e1, e2, config.alpha), config.topk)
    return a, [mul(normalize(x), 1.0 - beta) for x in (a, _transposed(a))]


# (n, embed_dim, alpha, topk, beta): the tiny model's graph (most of a row
# ties at zero), top-1 (live entries dropped), top-k of every column, the gate
# model's graph, and a saturating alpha with nothing propagated
GRAPHS = [(5, 3, 3.0, 3, 0.05), (7, 3, 2.0, 1, 0.05), (6, 3, 1.5, 6, 0.3),
          (130, 16, 3.0, 20, 0.05), (40, 4, 60.0, 7, 1.0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_propagation_matrices_and_their_gradients_have_the_bytes_of_the_op_chain(dtype):
    rng = np.random.default_rng(14)
    for n, d, alpha, topk, beta in GRAPHS:
        config = GraphLearnConfig(embed_dim=d, alpha=alpha, topk=topk)
        e1, e2 = (Tensor((0.1 * rng.standard_normal((n, d))).astype(dtype), requires_grad=True) for _ in "12")
        probe = rng.standard_normal((2, n, n)).astype(dtype)
        hops = propagation_matrices(e1, e2, config, beta)
        assert hops.data.shape == (2, n, n) and hops.data.dtype == dtype
        backward(reduce_sum(mul(hops, probe)))
        grads = [e1.grad, e2.grad]
        e1.zero_grad(), e2.zero_grad()
        a, chain = _op_chain_matrices(e1, e2, config, beta)
        # graph-export writes the matrix the model normalizes
        assert kept_adjacency(e1.data, e2.data, config).tobytes() == a.data.tobytes()
        backward(shared_add(reduce_sum(mul(chain[0], probe[0])), reduce_sum(mul(chain[1], probe[1]))))
        for direction, m in enumerate(chain):
            assert hops.data[direction].tobytes() == m.data.tobytes(), (n, direction)
        for got, want in zip(grads, (e1.grad, e2.grad)):
            assert got.tobytes() == want.tobytes(), n


def test_propagation_matrices_pass_grad_check():
    rng = np.random.default_rng(15)
    for n, d, alpha, topk, beta in GRAPHS[:3]:
        config = GraphLearnConfig(embed_dim=d, alpha=alpha, topk=topk)
        e1, e2 = _embeddings(rng, n, d)
        probe = Tensor(rng.standard_normal((2, n, n)))
        for r in grad_check(lambda: reduce_sum(mul(propagation_matrices(e1, e2, config, beta), probe)),
                            {"e1": e1, "e2": e2}):
            assert r.passed, f"n {n} topk {topk}, {r.name}: rel err {r.max_rel_err:.2e}"


def test_propagation_matrices_reject_a_nan_embedding(monkeypatch):
    # a build that raises keeps nothing, so the same embeddings raise again
    builds = count_graph_builds(monkeypatch)
    config = GraphLearnConfig(embed_dim=2, alpha=3.0, topk=2)
    e1, e2 = Tensor(np.ones((3, 2))), Tensor(np.eye(3, 2))
    e1.data[1, 0] = np.nan
    for _ in range(2):
        with pytest.raises(NumericalError, match="mix-hop"):
            propagation_matrices(e1, e2, config, 0.05)
    assert len(builds) == 2 and graph._memo is None


def test_calls_on_unchanged_embeddings_share_the_graph_but_not_a_tape_node(monkeypatch):
    builds = count_graph_builds(monkeypatch)
    rng = np.random.default_rng(16)
    config = GraphLearnConfig(embed_dim=3, alpha=3.0, topk=3)
    e1, e2 = _embeddings(rng, 6, 3)
    probe = rng.standard_normal((2, 6, 6))
    hops = [propagation_matrices(e1, e2, config, 0.05) for _ in range(2)]
    assert len(builds) == 1 and hops[0].data is hops[1].data
    losses = [reduce_sum(mul(h, probe)) for h in hops]
    grads = []
    for loss in losses:  # each loss's backward on its own
        e1.zero_grad(), e2.zero_grad()
        backward(loss)
        grads.append(b"".join(t.grad.tobytes() for t in (e1, e2)))
    assert grads[0] == grads[1] and np.frombuffer(grads[0]).any()


def test_an_embedding_changed_in_place_rebuilds_the_graph(monkeypatch):
    # grad_check perturbs an entry of the same buffer, so the key is the bytes,
    # not the array; -0.0 equals 0.0 as a value but not in bytes
    builds = count_graph_builds(monkeypatch)
    config = GraphLearnConfig(embed_dim=3, alpha=3.0, topk=3)
    e1, e2 = _embeddings(np.random.default_rng(17), 6, 3)
    first = propagation_matrices(e1, e2, config, 0.05).data
    keep = e1.data[2, 1]
    e1.data[2, 1] = keep + 1e-3
    assert propagation_matrices(e1, e2, config, 0.05).data.tobytes() != first.tobytes()
    e1.data[2, 1] = keep
    assert propagation_matrices(e1, e2, config, 0.05).data.tobytes() == first.tobytes()
    assert len(builds) == 3
    e1.data[2, 1] = 0.0
    propagation_matrices(e1, e2, config, 0.05)
    e1.data[2, 1] = -0.0
    propagation_matrices(e1, e2, config, 0.05)
    propagation_matrices(e1, e2, config, 0.05)
    assert len(builds) == 5
    # the config, beta and dtype are part of the key too
    propagation_matrices(e1, e2, GraphLearnConfig(embed_dim=3, alpha=3.0, topk=2), 0.05)
    propagation_matrices(e1, e2, config, 0.3)
    propagation_matrices(Tensor(e1.data.astype(np.float32)), Tensor(e2.data.astype(np.float32)), config, 0.3)
    assert len(builds) == 8


def test_the_kept_graph_is_read_only_and_a_miss_releases_it_before_building(monkeypatch):
    config = GraphLearnConfig(embed_dim=3, alpha=3.0, topk=3)
    e1, e2 = _embeddings(np.random.default_rng(18), 6, 3)
    hops = propagation_matrices(e1, e2, config, 0.05)
    with pytest.raises(ValueError, match="read-only"):
        hops.data[0, 0, 1] = 1.0
    kept = weakref.ref(hops.data)
    del hops
    alive_at_build = []
    adjacency = graph._adjacency
    monkeypatch.setattr(graph, "_adjacency", lambda *args: alive_at_build.append(kept() is not None) or adjacency(*args))
    e2.data[0, 0] += 1.0
    propagation_matrices(e1, e2, config, 0.05)
    assert alive_at_build == [False]


def test_correlation_graph_matches_corrcoef():
    rng = np.random.default_rng(6)
    anoms = random_anoms(rng, n_time=60)
    nodes = [(i, j) for i in range(anoms.grid.n_lat) for j in range(anoms.grid.n_lon)]
    tau = 0.1
    a = correlation_graph(anoms, nodes, tau)
    ii = np.array([i for i, _ in nodes])
    jj = np.array([j for _, j in nodes])
    ref = np.abs(np.corrcoef(anoms.values[:, ii, jj].astype(np.float64).T))
    np.fill_diagonal(ref, 0.0)
    ref[ref < tau] = 0.0
    np.testing.assert_allclose(a, ref, atol=1e-7)
    assert np.all(np.diag(a) == 0.0)
    np.testing.assert_allclose(a, a.T, atol=1e-12)


def test_correlation_graph_rejects_missing_and_flat_nodes():
    rng = np.random.default_rng(7)
    anoms = random_anoms(rng, n_time=30)
    nodes = [(0, 0), (0, 1), (1, 0)]
    anoms.missing[4, 0, 1] = True
    with pytest.raises(ValidationError):
        correlation_graph(anoms, nodes, 0.5)

    flat = random_anoms(rng, n_time=30)
    flat.values[:, 1, 0] = 0.25
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        correlation_graph(flat, nodes, 0.5)


def test_export_edges_sorted_and_complete(tmp_path):
    grid = small_grid(n_lat=2, n_lon=2)
    nodes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = np.zeros((4, 4))
    a[0, 1] = 0.9
    a[2, 3] = 0.4
    a[1, 2] = 0.9
    path = tmp_path / "edges.csv"
    n = export_edges(a, grid, nodes, path)
    assert n == 3
    lines = path.read_text().splitlines()
    assert lines[0] == "src_lat,src_lon,dst_lat,dst_lon,weight"
    # descending weight, then source node id
    assert lines[1].startswith("-2,190,") and lines[1].endswith("0.9")
    assert lines[2].startswith("-2,192,")
    assert lines[3].endswith("0.4")


def test_export_edges_empty_graph(tmp_path):
    grid = small_grid(n_lat=2, n_lon=2)
    nodes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    path = tmp_path / "edges.csv"
    assert export_edges(np.zeros((4, 4)), grid, nodes, path) == 0
    assert path.read_text() == "src_lat,src_lon,dst_lat,dst_lon,weight\n"


def test_graph_config_validation():
    with pytest.raises(ValueError):
        GraphLearnConfig(embed_dim=0)
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            GraphLearnConfig(alpha=alpha)
    with pytest.raises(ValueError):
        GraphLearnConfig(topk=0)
