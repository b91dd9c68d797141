import numpy as np
import pytest

from ensograph.adiff import (
    Tensor,
    _bias_grad,
    _from_op,
    _pieced_matmul,
    _product,
    _time_slices,
    abs_,
    add,
    as_tensor,
    backward,
    grad_check,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    sub,
    tanh,
)
from ensograph.stgnn import head, temporal_block
from helpers import output_at_one_and_two_blas_threads


def _t(rng, *shape, away_from_zero=False):
    data = rng.standard_normal(shape)
    if away_from_zero:
        data = np.sign(data) * (np.abs(data) + 0.2)
    return Tensor(data, requires_grad=True)


# ------------------------------------------------------------------- values

def test_arithmetic_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 5.0])
    np.testing.assert_array_equal(add(a, b).data, [4.0, 7.0])
    np.testing.assert_array_equal(sub(a, b).data, [-2.0, -3.0])
    np.testing.assert_array_equal(mul(a, b).data, [3.0, 10.0])
    np.testing.assert_array_equal(abs_(Tensor([-2.0, 3.0])).data, [2.0, 3.0])


def test_scalar_operand_keeps_float32():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    for out in (add(a, 1.5), mul(1.5, a), sub(a, 2.0), sub(2.0, a)):
        assert out.data.dtype == np.float32
        backward(reduce_sum(out))
        assert a.grad.dtype == np.float32


def test_nonlinearity_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(tanh(Tensor(x)).data, np.tanh(x), rtol=1e-15)


def _gate(x):
    """The gated temporal conv's output on gate pre-activations x with a filter of 30,
    where tanh rounds to exactly 1, so it returns the gate's sigmoid: one node, one
    channel, one month per x value (K = 1, weight [[0, 1]], bias [30, 0])."""
    x = np.asarray(x)
    w, b = np.array([[0.0, 1.0]], dtype=x.dtype), np.array([30.0, 0.0], dtype=x.dtype)
    return temporal_block(Tensor(x.reshape(1, 1, -1, 1)), Tensor(w), Tensor(b), 1).data.reshape(-1)


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-7), (np.float64, 1e-15)])
def test_gated_sigmoid_matches_logistic_reference(dtype, atol):
    x = np.linspace(-30.0, 30.0, 601)
    out = _gate(x.astype(dtype))
    assert out.dtype == dtype
    ref = 1.0 / (1.0 + np.exp(-x.astype(dtype).astype(np.float64)))
    np.testing.assert_allclose(out.astype(np.float64), ref, rtol=0.0, atol=atol)


def test_gated_sigmoid_is_stable_at_large_inputs():
    with np.errstate(over="raise"):
        out = _gate(np.array([-1e4, 1e4]))
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_matmul_values_against_numpy():
    rng = np.random.default_rng(0)
    # the last axis of a against the first of b, as the projections and the node mix use it
    for sa, sb in (((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((4, 4), (4, 2, 3, 5)), ((5, 2, 3, 4), (4, 6))):
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, np.tensordot(a, b, 1), rtol=1e-13)
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4))))


def test_matmul_bias_values():
    rng = np.random.default_rng(2)
    # the bias has b's trailing shape and broadcasts over a's leading axes
    for sa, sb in (((2, 3, 4), (4, 5)), ((3, 4), (4, 2, 5))):
        a, b, bias = rng.standard_normal(sa), rng.standard_normal(sb), rng.standard_normal(sb[1:])
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b), Tensor(bias)).data,
                                   np.tensordot(a, b, 1) + bias, rtol=1e-13)
    # a bias of any other shape, the product's own included, is refused
    for shape in ((4,), (3, 5), (2, 3, 5)):
        with pytest.raises(ValueError, match="bias shape"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(shape)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bias_gradient_has_the_bytes_of_a_row_sum(dtype):
    # the row counts of the tiny model, a training step and eval, against the model's widths
    rng = np.random.default_rng(12)
    for m in (37, 4160, 4680, 8320):
        for n in (4, 7, 16, 32, 64):
            g2 = rng.standard_normal((m, n)).astype(dtype)
            assert _bias_grad(g2).tobytes() == g2.sum(axis=0).tobytes(), (m, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_length_one_contraction_has_the_bytes_of_a_gemm(dtype):
    # the start projection's shape, [N*B*T, 1] @ [1, C], at the tiny, training and eval sizes
    rng = np.random.default_rng(13)
    for m, n in ((30, 4), (130 * 32 * 3, 16), (130 * 66, 16), (7, 1)):
        a2, b2 = rng.standard_normal((m, 1)).astype(dtype), rng.standard_normal((1, n)).astype(dtype)
        out = _product(a2, b2)
        assert out.dtype == dtype and out.tobytes() == (a2 @ b2).tobytes(), (m, n)


def test_shape_op_values():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 4))
    np.testing.assert_array_equal(_time_slices(x, range(1, 2), 2)[0], x[:, 1:3])
    np.testing.assert_allclose(reduce_sum(Tensor(x)).data, x.sum())
    np.testing.assert_allclose(reduce_sum(Tensor(x), 1).data, x.sum(axis=1))
    np.testing.assert_allclose(reduce_mean(Tensor(x), (0, 2)).data, x.mean(axis=(0, 2)))


def test_reduce_over_no_axes_is_the_identity():
    # as numpy's sum(axis=()): no axis is summed, so the values come back as they are
    x = np.arange(6.0).reshape(2, 3)
    for reduce in (reduce_sum, reduce_mean):
        np.testing.assert_array_equal(reduce(Tensor(x), ()).data, x)
    rng = np.random.default_rng(11)
    a = _t(rng, 2, 3)
    probe = Tensor(rng.standard_normal((2, 3)))
    for reduce in (reduce_sum, reduce_mean):
        for r in grad_check(lambda: reduce_sum(mul(reduce(a, ()), probe)), {"a": a}):
            assert r.passed, f"{reduce.__name__}: rel err {r.max_rel_err:.2e}"


# ---------------------------------------------------------------- gradients

def test_square_gradient_hand_value():
    x = Tensor(np.array(3.0), requires_grad=True)
    backward(mul(x, x))
    assert float(x.grad) == 6.0


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array(5.0), requires_grad=True)
    backward(add(x, x))
    assert float(x.grad) == 2.0


def test_matmul_gradient_by_explicit_loops():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    c = rng.standard_normal((3, 2))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    backward(reduce_sum(mul(matmul(ta, tb), Tensor(c))))
    # d/da[i,k] sum_ij c[i,j] (a@b)[i,j] = sum_j c[i,j] b[k,j]
    ga = np.zeros_like(a)
    gb = np.zeros_like(b)
    for i in range(3):
        for j in range(2):
            for k in range(4):
                ga[i, k] += c[i, j] * b[k, j]
                gb[k, j] += c[i, j] * a[i, k]
    np.testing.assert_allclose(ta.grad, ga, rtol=1e-12)
    np.testing.assert_allclose(tb.grad, gb, rtol=1e-12)


def test_matmul_gradient_over_a_long_contraction():
    # a's gradient is summed over pieces of b's trailing axes: 600 = 256 + 256 + 88
    rng = np.random.default_rng(4)
    a, b, c = rng.standard_normal((5, 7)), rng.standard_normal((7, 3, 200)), rng.standard_normal((5, 3, 200))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    backward(reduce_sum(mul(matmul(ta, tb), Tensor(c))))
    np.testing.assert_allclose(ta.grad, c.reshape(5, -1) @ b.reshape(7, -1).T, rtol=1e-12)
    np.testing.assert_allclose(tb.grad, np.einsum("ik,ijl->kjl", a, c), rtol=1e-12)


@pytest.mark.parametrize("k", [100, 600])
def test_pieced_matmul_into_given_arrays_has_the_same_bytes(k):
    # 600 = 256 + 256 + 88: the later pieces land in scratch before each sum
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((7, k)).astype(np.float32), rng.standard_normal((k, 9)).astype(np.float32)
    out, scratch = np.empty((7, 9), np.float32), np.empty((7, 9), np.float32)
    assert _pieced_matmul(x, y, out, scratch) is out
    assert out.tobytes() == _pieced_matmul(x, y).tobytes()


# Hashes the matmul gradients, in float32, at the default model's training
# shapes: a node mix A [130, 130] @ x [130, L] for L = 16*B*T, every
# multiple of 16 up to 3072 (conv width 16, batches B = 1..64 of single windows
# at time lengths T = 1..3, and every run shape a batch of up to 64 windows
# gives), and a channel projection x [130, m, 16] @ w [16, 32] for every
# m = B*T up to 192 rows per node.
GRADIENT_HASHES = r"""
import hashlib
import numpy as np
from ensograph.adiff import Tensor, backward, matmul, mul, reduce_sum
rng = np.random.default_rng(0)
pool = rng.standard_normal((3, 130, 6144)).astype(np.float32)
mix = [(pool[0, :, :130], pool[1, :, :L], pool[2, :, :L]) for L in range(16, 3073, 16)]
proj = [(pool[1, :, :16 * m].reshape(130, m, 16), pool[0, :16, :32], pool[2, :, :32 * m].reshape(130, m, 32))
        for m in range(1, 193)]
for a, b, g in mix + proj:
    a, b = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    backward(reduce_sum(mul(matmul(a, b), Tensor(g.copy()))))
    print(a.shape, b.shape, hashlib.sha256(a.grad.tobytes() + b.grad.tobytes()).hexdigest())
"""


def test_matmul_gradient_bytes_do_not_depend_on_blas_threads():
    runs = output_at_one_and_two_blas_threads(GRADIENT_HASHES)
    assert len(runs[0]) == 192 + 192
    differ = [one.rsplit(" ", 1)[0] for one, two in zip(*runs) if one != two]
    assert not differ, f"gradient bytes differ between 1 and 2 BLAS threads at {differ}"


def test_every_op_passes_grad_check():
    rng = np.random.default_rng(4)
    a = _t(rng, 3, 4)
    b = _t(rng, 3, 4)
    c = _t(rng, 3, 4, away_from_zero=True)  # abs stays off its kink
    m1 = _t(rng, 3, 4)
    m2 = _t(rng, 4, 2)
    bias = _t(rng, 2)
    mix = Tensor(rng.standard_normal((3, 4)), requires_grad=False)

    cases = {
        "add": lambda: reduce_sum(mul(add(a, b), mix)),
        "sub": lambda: reduce_sum(mul(sub(a, b), mix)),
        "mul": lambda: reduce_sum(mul(mul(a, b), mix)),
        "abs": lambda: reduce_sum(mul(abs_(c), mix)),
        "tanh": lambda: reduce_sum(mul(tanh(a), mix)),
        "matmul": lambda: reduce_sum(matmul(m1, m2)),
        "matmul_bias": lambda: reduce_sum(mul(matmul(m1, m2, bias), Tensor(mix.data[:, 1:3]))),
        "mean": lambda: reduce_mean(mul(a, b)),
        "sum_axis": lambda: reduce_sum(reduce_sum(mul(a, b), 1)),
    }
    params = {"a": a, "b": b, "c": c, "m1": m1, "m2": m2, "bias": bias}
    for name, f in cases.items():
        for r in grad_check(f, params):
            assert r.passed, f"{name}/{r.name}: rel err {r.max_rel_err:.2e}"


def test_broadcast_gradients_pass_grad_check():
    rng = np.random.default_rng(5)
    col = _t(rng, 3, 1)
    row = _t(rng, 1, 4)
    bias = _t(rng, 4)
    full = _t(rng, 3, 4)
    cases = [
        lambda: reduce_sum(mul(add(col, row), full)),
        lambda: reduce_sum(mul(add(full, bias), full)),
        lambda: reduce_sum(mul(mul(col, full), full)),
    ]
    for f in cases:
        for r in grad_check(f, {"col": col, "row": row, "bias": bias, "full": full}):
            assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"


def test_batched_matmul_grad_check():
    # leading axes of a and trailing axes of b both ride along the contraction
    rng = np.random.default_rng(6)
    a = _t(rng, 2, 3, 4)
    b = _t(rng, 4, 5)
    m = _t(rng, 3, 4)
    bb = _t(rng, 4, 2, 5)
    weigh_l = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=False)
    weigh_r = Tensor(rng.standard_normal((3, 2, 5)), requires_grad=False)
    for f in (lambda: reduce_sum(mul(matmul(a, b), weigh_l)), lambda: reduce_sum(mul(matmul(m, bb), weigh_r))):
        for r in grad_check(f, {"a": a, "b": b, "m": m, "bb": bb}):
            assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"
    # the node mix's shape: an [N, N] adjacency over a node-major [N, B, T, C] activation
    adj = _t(rng, 4, 4)
    h = _t(rng, 4, 2, 3, 2)
    w = _t(rng, 2, 3)
    weigh_n = Tensor(rng.standard_normal((4, 2, 3, 2)), requires_grad=False)
    weigh_c = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=False)
    for f in (lambda: reduce_sum(mul(matmul(adj, h), weigh_n)), lambda: reduce_sum(mul(matmul(h, w), weigh_c))):
        for r in grad_check(f, {"adj": adj, "h": h, "w": w}):
            assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"


def test_shared_gradient_buffers_stay_intact():
    # backward runs the first branch before the second: the inner add hands one
    # gradient array to both y1 and y2, and the mul then gives each a second one
    rng = np.random.default_rng(9)
    a, b = _t(rng, 3, 4), _t(rng, 3, 4, away_from_zero=True)
    c0 = Tensor(rng.standard_normal((3, 4)))
    c1 = Tensor(rng.standard_normal((3, 4)))

    def f():
        y1, y2 = tanh(a), abs_(b)
        return reduce_sum(add(mul(add(y1, y2), c0), mul(mul(y1, y2), c1)))

    for r in grad_check(f, {"a": a, "b": b}):
        assert r.passed, f"{r.name}: rel err {r.max_rel_err:.2e}"


def test_taps_gradient_zero_pads_outside_the_slices():
    # the time-slice rule of the temporal block, the residual and the skip
    x = np.arange(8.0).reshape(4, 2)
    _, unslice = _time_slices(x, range(1, 2), 2)
    np.testing.assert_array_equal(unslice(np.ones((2, 2))), [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    # overlapping slices add up where they meet
    _, unslice = _time_slices(x, range(0, 2), 3)
    np.testing.assert_array_equal(unslice(np.ones((3, 4))), [[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
    for starts, length in ((range(0), 1), (range(3, 4), 2), (range(0, 4, 2), 3),
                           (range(2, 0, -1), 1), (range(1), 0)):
        with pytest.raises(ValueError, match="time axis"):
            _time_slices(x, starts, length)


@pytest.mark.parametrize("starts, length, view", [
    (range(1, 2), 3, True),      # one slice
    (range(0, 5), 1, True),      # single months in a row
    (range(1, 4), 1, True),
    (range(0, 6, 3), 3, False),  # adjacent slices longer than a month tile x but are not a view of it
    (range(0, 4, 2), 2, False),
    (range(0, 3), 4, False),     # overlapping
    (range(0, 6, 2), 1, False),  # single months with gaps
])
def test_taps_matches_concatenated_slices(starts, length, view):
    x = np.random.default_rng(10).standard_normal((2, 3, 6, 4))
    out, unslice = _time_slices(x, starts, length)
    np.testing.assert_array_equal(out, np.concatenate([x[..., s:s + length, :] for s in starts], axis=-1))
    assert np.shares_memory(out, x) == view
    # the gradient rule is the transpose of the slicing: <slices(x), g> == <x, unslice(g)>
    g = np.random.default_rng(11).standard_normal(out.shape)
    np.testing.assert_allclose(np.vdot(out, g), np.vdot(x, unslice(g)), rtol=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    # the head's two relus, at pre-activations of exactly 0: zero skip and end1
    # weights and biases make both hidden layers 0, so no gradient passes either
    h = Tensor(np.ones((2, 1, 1, 3)), requires_grad=True)
    skip = (Tensor(np.zeros((3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))
    end1 = (Tensor(np.zeros((2, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))
    end2 = (Tensor(np.ones((2, 1)), requires_grad=True), Tensor(np.zeros(1), requires_grad=True))
    backward(reduce_sum(head([h], [skip], end1, end2, 1)))
    for t in (h, *skip, *end1):
        np.testing.assert_array_equal(t.grad, np.zeros_like(t.data))
    np.testing.assert_array_equal(end2[1].grad, [2.0])  # one output per node


def test_abs_subgradient_at_zero_is_zero():
    x = Tensor(np.array([0.0, -1.5, 2.0]), requires_grad=True)
    backward(reduce_sum(abs_(x)))
    np.testing.assert_array_equal(x.grad, [0.0, -1.0, 1.0])


def test_gradient_is_linear_in_the_loss():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 3))

    def grad_of(scale_f, scale_g):
        x = Tensor(data, requires_grad=True)
        f = reduce_sum(tanh(matmul(x, Tensor(w))))
        g = reduce_mean(mul(x, x))
        backward(add(mul(f, Tensor(scale_f)), mul(g, Tensor(scale_g))))
        return x.grad.copy()

    gf = grad_of(1.0, 0.0)
    gg = grad_of(0.0, 1.0)
    combined = grad_of(2.0, -3.0)
    np.testing.assert_allclose(combined, 2.0 * gf - 3.0 * gg, atol=1e-10)


def test_unused_parameter_reads_exact_zero_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    z = Tensor(np.ones(4), requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    assert z.grad is not None
    assert np.all(z.grad == 0.0)


def test_untracked_tensor_gets_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0), requires_grad=False)
    backward(reduce_sum(mul(x, c)))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    assert c.grad is None


# ---------------------------------------------------------------- mechanics

def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(mul(x, x))


def test_backward_releases_interior_gradients():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = tanh(x)
    backward(reduce_sum(mul(y, y)))
    assert y.grad is None
    np.testing.assert_allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2), rtol=1e-15)


def test_backward_twice_raises():
    x = Tensor(np.array(2.0), requires_grad=True)
    loss = mul(x, x)
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_backward_on_detached_loss_raises():
    loss = reduce_sum(mul(Tensor(np.ones(3)), Tensor(np.ones(3))))
    with pytest.raises(RuntimeError):
        backward(loss)
    with pytest.raises(TypeError):
        backward(np.float64(1.0))


def test_fresh_graph_backpropagates_after_consumed_one():
    x = Tensor(np.array(2.0), requires_grad=True)
    backward(mul(x, x))
    backward(mul(x, x))  # new graph; gradient accumulates on the leaf
    assert float(x.grad) == 8.0
    x.zero_grad()
    backward(mul(x, x))
    assert float(x.grad) == 4.0


def test_gradients_are_deterministic():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        backward(reduce_mean(tanh(matmul(x, w))))
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_grad_check_flags_a_corrupted_backward():
    x = Tensor(np.array([0.7, -0.3, 1.2]), requires_grad=True)

    def broken_square(t):
        data = t.data * t.data

        def _bw(g):
            t.grad += 3.0 * t.data * g  # deliberately wrong factor

        return _from_op(data, (t,), _bw)

    results = grad_check(lambda: reduce_sum(broken_square(x)), {"x": x})
    assert not results[0].passed
    assert results[0].max_rel_err > 1e-4


def test_grad_check_rejects_float32_and_untracked():
    x32 = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: reduce_sum(x32), {"x": x32})
    frozen = Tensor(np.ones(2), requires_grad=False)
    with pytest.raises(ValueError):
        grad_check(lambda: reduce_sum(frozen), {"x": frozen})


def test_as_tensor_passthrough_and_dtype():
    t = Tensor(np.ones(2, dtype=np.float32))
    assert as_tensor(t) is t
    assert as_tensor(2.0, like=t).data.dtype == np.float32
    assert as_tensor(2.0).data.dtype == np.float64


def test_integer_input_is_promoted_to_float():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float32 or t.data.dtype == np.float64
