"""Reverse-mode automatic differentiation over dense 1-D/2-D float64 arrays.

Define-by-run: every operation builds a node holding its parents and a
backward closure; :func:`backward` topologically sorts the graph reachable
from a scalar loss and runs the closures in reverse, accumulating into
``.grad``.  Leaf gradients keep accumulating across backward calls until
zeroed, so mini-batch sums and repeated calls behave the same way.

Every forward result is checked for NaN/Inf and raises
:class:`NumericalError` on the spot, which keeps diverging training runs
from producing silent garbage.  Shape violations raise :class:`ShapeError`;
asking for gradients of a value no recorded op produced raises
:class:`TapeError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericalError, ShapeError, TapeError


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operators ------------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, as_tensor(-1.0))

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def sum(self, axis: int | None = None):
        return tensor_sum(self, axis)


def as_tensor(value) -> Tensor:
    """Wrap arrays and numbers as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values produced by {op}")


def _node(data, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    # np.dot and 0-d reductions return bare numpy scalars
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as err:
        raise ShapeError(f"add: {a.shape} + {b.shape}") from err

    def backward(out):
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _node(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as err:
        raise ShapeError(f"sub: {a.shape} - {b.shape}") from err

    def backward(out):
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(-out.grad, b.data.shape))

    return _node(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as err:
        raise ShapeError(f"mul: {a.shape} * {b.shape}") from err

    def backward(out):
        _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _node(data, (a, b), backward, "mul")


def pow_const(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent.

    Non-integer exponents need a positive base; exponent 0 has exact
    value 1 and zero gradient.
    """
    c = float(exponent)
    data = np.power(a.data, c)

    def backward(out):
        if c == 0.0:
            return
        if c == 1.0:
            _accum(a, out.grad)
            return
        _accum(a, out.grad * c * np.power(a.data, c - 1.0))

    return _node(data, (a,), backward, "pow")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul needs 1-D or 2-D operands")
    if a.data.shape[-1] != (b.data.shape[0] if b.ndim >= 1 else None):
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    data = np.dot(a.data, b.data)

    def backward(out):
        g = out.grad
        if a.ndim == 2 and b.ndim == 2:
            _accum(a, np.dot(g, b.data.T))
            _accum(b, np.dot(a.data.T, g))
        elif a.ndim == 1 and b.ndim == 2:
            _accum(a, np.dot(b.data, g))
            _accum(b, np.outer(a.data, g))
        elif a.ndim == 2 and b.ndim == 1:
            _accum(a, np.outer(g, b.data))
            _accum(b, np.dot(a.data.T, g))
        else:
            _accum(a, g * b.data)
            _accum(b, g * a.data)

    return _node(data, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    data = a.data.T.copy()

    def backward(out):
        _accum(a, out.grad.T)

    return _node(data, (a,), backward, "transpose")


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not (0 <= axis < a.ndim):
        raise ShapeError(f"sum axis {axis} out of range for shape {a.shape}")
    data = a.data.sum(axis=axis)

    def backward(out):
        g = out.grad
        if axis is None:
            _accum(a, np.full_like(a.data, float(g)))
        elif axis == 0:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accum(a, np.broadcast_to(g[:, None], a.data.shape).copy())

    return _node(data, (a,), backward, "sum")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    ndim = parts[0].ndim
    if any(p.ndim != ndim for p in parts):
        raise ShapeError("concat operands must share rank")
    if ndim == 1 and axis != 0:
        raise ShapeError("1-D concat supports axis 0 only")
    if ndim == 2 and axis not in (0, 1):
        raise ShapeError("2-D concat supports axes 0 and 1")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as err:
        raise ShapeError(f"concat: {[p.shape for p in parts]}") from err
    sizes = [p.data.shape[axis] for p in parts]

    def backward(out):
        offset = 0
        for p, size in zip(parts, sizes):
            index = (slice(None), slice(offset, offset + size)) \
                if (ndim == 2 and axis == 1) else slice(offset, offset + size)
            _accum(p, out.grad[index])
            offset += size

    return _node(data, tuple(parts), backward, "concat")


def stack_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Stack 0-d tensors into one vector; gradient scatters back per slot."""
    parts = list(parts)
    if not parts:
        raise ShapeError("stack of zero tensors")
    if any(p.ndim != 0 for p in parts):
        raise ShapeError("stack_scalars needs 0-d operands")
    data = np.array([p.data for p in parts], dtype=np.float64)

    def backward(out):
        for i, p in enumerate(parts):
            _accum(p, out.grad[i])

    return _node(data, tuple(parts), backward, "stack")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    n = a.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_rows [{start}:{stop}] on {a.shape}")
    data = a.data[start:stop].copy()

    def backward(out):
        g = np.zeros_like(a.data)
        g[start:stop] = out.grad
        _accum(a, g)

    return _node(data, (a,), backward, "slice_rows")


# -- nonlinearities --------------------------------------------------


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(out):
        _accum(a, np.where(a.data > 0.0, out.grad, 0.0))

    return _node(data, (a,), backward, "relu")


def sigmoid(a: Tensor) -> Tensor:
    # tanh form never overflows, unlike 1/(1+exp(-x)) for large negative x
    data = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(out):
        _accum(a, out.grad * data * (1.0 - data))

    return _node(data, (a,), backward, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(out):
        _accum(a, out.grad * (1.0 - data * data))

    return _node(data, (a,), backward, "tanh")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    _check_finite(data, "log")  # non-positive input lands here

    def backward(out):
        _accum(a, out.grad / a.data)

    return _node(data, (a,), backward, "log")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)

    def backward(out):
        inside = (a.data >= lo) & (a.data <= hi)
        _accum(a, out.grad * inside)

    return _node(data, (a,), backward, "clamp")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along one axis; axis 0 of a matrix runs on its transpose,
    so every reduction walks contiguous memory."""
    last = a.ndim > 0 and axis in (-1, a.ndim - 1)
    if not (last or (a.ndim == 2 and axis == 0)):
        raise ShapeError(f"softmax axis {axis} out of range for {a.shape}")
    x = a.data if last else np.ascontiguousarray(a.data.T)
    # subtracting the max keeps exp from overflowing
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(out):
        g = out.grad if last else np.ascontiguousarray(out.grad.T)
        dx = s * (g - (g * s).sum(axis=-1, keepdims=True))
        _accum(a, dx if last else dx.T)

    return _node(s if last else s.T.copy(), (a,), backward, "softmax")


def dropout(a: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scaling happens at train time, inference is identity.

    rate 0 returns the input tensor itself, bit-exact in either mode.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or not training:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) >= rate).astype(np.float64)
    scale = 1.0 / keep
    data = a.data * mask * scale

    def backward(out):
        _accum(a, out.grad * mask * scale)

    return _node(data, (a,), backward, "dropout")


# -- backward pass ---------------------------------------------------


def _topo_order(loss: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def backward(loss: Tensor) -> None:
    """Run reverse mode from a scalar loss.

    Intermediate gradients are rebuilt per call; leaf gradients accumulate
    until their owner zeroes them.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        raise TapeError("loss was not produced by any recorded operation")
    order = _topo_order(loss)
    for node in order:
        if node._parents:  # fresh pass for interior nodes, keep leaf grads
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node)
