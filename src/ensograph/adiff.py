"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray; differentiable ops link each output to its
inputs with a closure holding the local gradient rule. backward() walks
that implicit tape in reverse topological order, summing gradients over
every path and releasing each interior node once its rule has run.
float32 is the working precision; build float64 tensors for
verification-grade finite-difference checks.

The generic ops are matmul (with an optional bias), mul, tanh and
reduce_sum. The model's stages, its learned graph and the MAE loss are
tape nodes of their own, built in their modules on _from_op with the
private rules below (the pieced GEMM, the weight and bias gradients and
the time slices).

One rule accumulates gradients: a tensor's first gradient is kept by
reference, and each later one replaces it with a new sum, so no gradient
array is written after it is made. The loss is seeded the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOATS = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOATS:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        # tracked leaves always carry a gradient buffer so that a parameter
        # taking no part in a loss reads back an exact zero gradient
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """Coerce x to a Tensor; scalars take the dtype of `like` when given."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None and np.isscalar(x) else None
    return Tensor(x, dtype=dtype)


def _from_op(data, parents, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._consumed = False
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray):
    # g may be shared with a sibling or be a read-only broadcast view, so it is
    # kept by reference and never written; a later gradient makes a new sum
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _sum_to_shape(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast result gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------- elementwise

def mul(a, b):
    """a * b with numpy broadcasting; a scalar operand takes the other's dtype."""
    if not isinstance(a, Tensor) and isinstance(b, Tensor):
        a = as_tensor(a, like=b)
    else:
        a = as_tensor(a)
    b = as_tensor(b, like=a)
    try:
        data = np.multiply(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"shapes {a.data.shape} and {b.data.shape} do not broadcast") from exc

    def _bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _sum_to_shape(g * a.data, b.data.shape))

    return _from_op(data, (a, b), _bw)


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.data)
    return _from_op(y, (x,), lambda g: _accum(x, g * (1.0 - y * y)))


# Longest contraction one gradient GEMM runs. OpenBLAS 0.3.31 gives [130, L] @ [L, 130]
# float32 bytes that differ between one and two threads at every L = 16 (mod 32)
# from 464 up, and the same bytes at every L up to 256. The pieces fix float32 bytes
# only: float64 [2, 130, L] @ [2, L, 130] differs between one and two threads at every
# L from 64 to 256, so float64 results agree across thread counts to rounding.
_PIECE = 256


def _pieced_matmul(x: np.ndarray, y: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """x [.., m, k] @ y [.., k, n] summed one GEMM per _PIECE of the contraction, in
    order, so its float32 bytes do not depend on the BLAS thread count. Stacks of x's,
    of y's or of both (broadcast as np.matmul does) give the stack of products, each
    with the pieces and bytes of its own 2-D call. Given out, and scratch when k runs
    past one piece (both [.., m, n]), it writes them and allocates no array."""
    out = np.matmul(x[..., :_PIECE], y[..., :_PIECE, :], out=out)
    for lo in range(_PIECE, x.shape[-1], _PIECE):
        out += np.matmul(x[..., lo:lo + _PIECE], y[..., lo:lo + _PIECE, :], out=scratch)
    return out


def _product(a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """a2 [m, k] @ b2 [k, n], the forward product of every learned op. A length-1
    contraction is the outer product a2 * b2: each output is the one product a GEMM
    would give, without a GEMM's set-up. One longer than _PIECE is summed in pieces
    (_pieced_matmul), so no float32 forward's bytes depend on the BLAS thread count."""
    k = a2.shape[1]
    return a2 * b2 if k == 1 else a2 @ b2 if k <= _PIECE else _pieced_matmul(a2, b2)


def _weight_grad(a2: np.ndarray, g2: np.ndarray, lead: int) -> np.ndarray:
    """a2 [m, k]^T @ g2 [m, n] as `lead` GEMMs over equal blocks of the m rows, summed
    in order, so no GEMM contracts over more than one block (a single block is taken
    as it is, not summed)."""
    gb = np.matmul(np.swapaxes(a2.reshape(lead, -1, a2.shape[1]), 1, 2), g2.reshape(lead, -1, g2.shape[1]))
    return gb[0] if lead == 1 else gb.sum(axis=0)


def _bias_grad(g2: np.ndarray) -> np.ndarray:
    """g2 [m, n] summed over its rows; the bytes of g2.sum(axis=0), in less time."""
    return np.einsum("ij->j", g2)


def matmul(a, b, bias=None):
    """Contract the last axis of a with the first axis of b, plus an optional bias.

    [.., k] @ [k, ..] gives a's leading axes followed by b's trailing ones,
    so one rule serves a channel projection (x [N, B, T, C] @ w [C, C_out])
    and a plain 2-D product. The forward is one 2-D product on reshape
    views, [m, k] @ [k, n] (_product). A long contraction rounds differently
    with the BLAS thread count, so _product sums it in pieces and neither
    gradient runs one: a's sums one GEMM per _PIECE columns of b's trailing
    axes, in order, and b's sums one GEMM per slice of a's first axis
    (_weight_grad; when a is 2-D the single slice is taken as it is). bias,
    when given, has b's trailing shape and is added in place on the product;
    its gradient is g summed over a's leading axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands need at least 2 dimensions")
    k = a.data.shape[-1]
    if b.data.shape[0] != k:
        raise ValueError(f"inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    a2, b2 = a.data.reshape(-1, k), b.data.reshape(k, -1)
    data = _product(a2, b2)
    shape = a.data.shape[:-1] + b.data.shape[1:]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != b.data.shape[1:]:
            raise ValueError(f"bias shape {bias.data.shape} does not match {b.data.shape[1:]}")
        data += bias.data.reshape(-1)
    data = data.reshape(shape)

    def _bw(g):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        if a.requires_grad:
            _accum(a, _pieced_matmul(g2, b2.T).reshape(a.data.shape))
        if b.requires_grad:
            _accum(b, _weight_grad(a2, g2, a.data.shape[0] if a.ndim > 2 else 1).reshape(b.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, _bias_grad(g2).reshape(bias.data.shape))

    return _from_op(data, (a, b) if bias is None else (a, b, bias), _bw)


# ------------------------------------------------------------ time slices

def _time_slices(x: np.ndarray, starts: range, length: int):
    """Time slices x[..., s:s+length, :] for s in starts, joined on the last axis, and their gradient rule.

    [.., T, C] -> [.., length, len(starts)*C], column i*C + c holding channel
    c of slice i. Where the slices form one block of x (one slice, or single
    months in a row) the result is a view of x. The returned rule takes the
    slices' gradients, [.., length, C] each, in slice order (any iterable, so
    a caller can make each one only when it is needed), and returns x's
    gradient, zero outside the slices, with the bytes of zeros plus each
    slice's gradient added in turn. It writes the first slice's gradient
    plus 0.0, so -0.0 reads 0.0 as after an add to zeros, and zeroes only
    what that slice does not cover. Where the slices tile x, each gradient
    is copied as it is, and one slice's is returned as its view.
    """
    *lead, T, C = x.shape
    if not (starts and starts.step > 0 and starts[0] >= 0 and 1 <= length <= T - starts[-1]):
        raise ValueError(f"time axis of {T} does not hold slices of {length} at {starts}")
    block = len(starts) == 1 or (length == 1 and starts.step == 1)
    if block:
        data = x[..., starts[0]:starts[-1] + length, :].reshape(*lead, length, len(starts) * C)
    else:
        data = np.concatenate([x[..., s:s + length, :] for s in starts], axis=-1)
    whole = block and data.size == x.size

    def unslice(grads):
        if isinstance(grads, np.ndarray):
            raise TypeError("the time-slice rule takes one gradient per slice, not the joined gradient")
        grads = iter(grads)
        if whole and len(starts) == 1:
            return next(grads).reshape(x.shape)
        full = np.empty_like(x)
        if not whole:
            full[..., :starts[0], :] = 0.0
            full[..., starts[0] + length:, :] = 0.0
        for i, (s, g) in enumerate(zip(starts, grads)):
            part = full[..., s:s + length, :]
            if whole:
                np.copyto(part, g)
            elif i == 0:
                np.add(g, 0.0, out=part)
            else:
                part += g
        return full

    return data, unslice


# ------------------------------------------------------------------ reduces

def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(a) % ndim if -ndim <= int(a) < ndim else ndim for a in axes)
    if any(a >= ndim for a in axes) or len(set(axes)) != len(axes):
        raise ValueError(f"invalid reduction axes {axes} for ndim {ndim}")
    return axes


def reduce_sum(x, axes=None):
    """x summed over axes (every axis when None)."""
    x = as_tensor(x)
    axes = _norm_axes(axes, x.ndim)

    def _bw(g):
        ge = g
        for a in sorted(axes):
            ge = np.expand_dims(ge, a)
        _accum(x, np.broadcast_to(ge, x.data.shape))

    return _from_op(np.asarray(x.data.sum(axis=axes)), (x,), _bw)


# ----------------------------------------------------------------- backward

def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable tracked tensor.

    The loss must be scalar and still attached to its tape. Each interior
    node is released as soon as its own rule has run: its gradient is
    dropped and its tape links cleared, so only leaves keep .grad and a
    second call on the same graph raises.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, has shape {loss.data.shape}")
    if loss._consumed:
        raise RuntimeError("tape already consumed by a previous backward call")
    if not loss.requires_grad:
        raise RuntimeError("loss is not connected to any tracked tensor")

    topo: list[Tensor] = []
    seen = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    _accum(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
        if node._parents:
            # every consumer has run, so this gradient is final and no longer needed
            node.grad = None
            node._parents = ()
            node._backward = None
            node._consumed = True


# --------------------------------------------------------------- grad check

@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    passed: bool


def grad_check(f, params, h=1e-5, tol=1e-4) -> list[GradCheckResult]:
    """Compare backward() gradients of f() against central differences.

    f rebuilds its graph from `params` (a dict of float64 leaf tensors) on
    every call and returns a scalar Tensor. Relative error per coordinate
    is |a - n| / max(|a|, |n|, 1); the report carries the max per tensor.
    """
    if isinstance(params, (list, tuple)):
        params = {f"p{i}": p for i, p in enumerate(params)}
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 tensors, {name} is {p.data.dtype}")
        if not p.requires_grad:
            raise ValueError(f"parameter {name} must require grad")
        # perturbations below go through a flat view of the buffer
        p.data = np.ascontiguousarray(p.data)

    for p in params.values():
        p.zero_grad()
    backward(f())
    analytic = {name: p.grad.copy() for name, p in params.items()}

    results = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = float(f().data)
            flat[i] = keep - h
            f_minus = float(f().data)
            flat[i] = keep
            numeric[i] = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
        max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
        results.append(GradCheckResult(name, max_rel, max_rel <= tol))
    return results
