"""Reverse-mode automatic differentiation over dense 1-D/2-D float arrays.

Data are float64, except that float32 data stay float32: an op on float32
operands computes and returns float32, so a float32 forward and its
backward pass run in float32 throughout.  Dropout masks are drawn from
raw 32-bit halves of generator words at either precision, so a mask does
not depend on it.  Training and MC dropout scoring compute in float32
over float64 parameters: :func:`cast` makes the float32 copy each
forward reads, and training casts the logits back up.  Every gradient is
accumulated in its own tensor's dtype, so the float32 nodes' gradients
stay float32 while the loss, the parameters' gradients and the optimizer
state stay float64 (see ``runner._epoch_pass``).  Deterministic scoring
runs in float64.

Define-by-run: every operation builds a node holding its parents and a
backward closure; :func:`backward` topologically sorts the graph reachable
from a scalar loss and runs the closures in reverse, accumulating into
``.grad``.  An interior node's gradient is released as soon as its closure
has passed it on to the node's parents, so a pass never holds a gradient
for every activation at once.  Leaf gradients keep accumulating across
backward calls until zeroed, so mini-batch sums and repeated calls behave
the same way.

Every op checks its result for NaN/Inf and raises
:class:`NumericalError` naming the op by its function name, which keeps
diverging runs from producing silent garbage.  An op that can map a
non-finite value to a finite one also checks that value, in every mode
and under its own name: relu, sigmoid and logit_loss their input,
gcn_conv its pre-activation, neighbor_attention and attention_pool their
scores.  :func:`checked_forward` runs a whole forward pass with the
result checks deferred: only those absorbing checks run, and the pass's
result is checked once.  On any failure the pass is replayed with
result checks on, so it raises the same error at the same op as a fully
checked pass.  Shape violations raise
:class:`ShapeError`; asking for gradients of a value no recorded op
produced raises :class:`TapeError`.  Inside a :func:`no_grad` scope ops
compute values only and record nothing, so inference keeps no tape
alive.

Packed graphs: a batch of graphs is one disjoint union whose node rows
are stacked.  :class:`Segments` names each graph's row range and
:class:`Neighbors` lists each row's neighbours; the segment and neighbour
ops below reduce and gather over them without building any per-graph or
dense N x N array.  A GCN layer is the one op :func:`gcn_conv`, which
keeps only its output on the tape, not its product and pre-activation.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Sequence

import numpy as np

from .errors import NumericalError, ShapeError, TapeError


def _float_array(data) -> np.ndarray:
    """`data` as an array: float32 kept, anything else as float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64,
                                                           copy=False)


class Tensor:
    """A float64 or float32 array plus the bookkeeping reverse mode needs.

    Float32 data stay float32; any other data become float64.  The
    gradient is accumulated in the data's dtype.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = _float_array(data)
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

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)


def as_tensor(value) -> Tensor:
    """Wrap arrays and numbers as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values produced by {op}")


_RECORDING = contextvars.ContextVar("molcalib_autodiff_recording",
                                    default=True)


@contextlib.contextmanager
def no_grad():
    """Scope in which ops compute values but record no parents or closures.

    Recording is restored on exit, also when the body raises.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


_CHECKING = contextvars.ContextVar("molcalib_autodiff_checking",
                                   default=True)


def checked_forward(compute):
    """Return ``compute()``, a tensor, run with finiteness checks deferred.

    Ops skip their result check but keep the check of any value they
    could absorb, and the result is checked once; numpy floating-point
    warnings are off in this pass and its replay.  If any of these checks
    fails, ``compute()`` runs again with result checks on and its result
    is returned, so a pass that produces a non-finite value raises
    :class:`NumericalError` at the same op as a fully checked pass.
    ``compute`` must therefore be replayable: it rebuilds or rewinds any
    random state it consumes.
    """
    with np.errstate(all="ignore"):
        token = _CHECKING.set(False)
        try:
            out = compute()
            _check_finite(out.data, "the checked forward")
            return out
        except NumericalError:
            pass
        finally:
            _CHECKING.reset(token)
        return compute()


def _node(data, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    # np.dot and 0-d reductions return bare numpy scalars
    data = _float_array(data)
    if _CHECKING.get():
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _RECORDING.get() and any(
        p.requires_grad for p in parents)
    out.grad = None
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to `t`'s gradient, converted to `t`'s dtype."""
    if not t.requires_grad:
        return
    if t._parents:
        # interior gradients are rebuilt each pass and never written in
        # place, so `g` may be kept even when it is shared
        g = g.astype(t.data.dtype, copy=False)
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)  # a copy: g may be shared
    else:
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


def cast(a: Tensor, dtype) -> Tensor:
    """`a` in `dtype`, or `a` itself when it has that dtype already.

    A value beyond the narrower dtype's range becomes infinite here, and
    the result is checked as every op's is.
    """
    if a.data.dtype == dtype:
        return a
    data = a.data.astype(dtype)

    def backward(out):
        _accum(a, out.grad)

    return _node(data, (a,), backward, "cast")


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as err:
        raise ShapeError(f"add: {a.shape} + {b.shape}") from err

    def backward(out):
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _node(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as err:
        raise ShapeError(f"mul: {a.shape} * {b.shape}") from err

    def backward(out):
        _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _node(data, (a, b), backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul needs 1-D or 2-D operands")
    if a.data.shape[-1] != (b.data.shape[0] if b.ndim >= 1 else None):
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    data = np.dot(a.data, b.data)

    def backward(out):
        g = out.grad
        if a.ndim == 2 and b.ndim == 2:
            # a constant operand, such as the node features, needs none
            if a.requires_grad:
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

    return _node(data, (a,), backward, "tensor_sum")


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


# -- nonlinearities --------------------------------------------------


def relu(a: Tensor) -> Tensor:
    _check_finite(a.data, "relu")
    data = np.maximum(a.data, 0.0)

    def backward(out):
        _accum(a, out.grad * (a.data > 0.0))

    return _node(data, (a,), backward, "relu")


def sigmoid(a: Tensor) -> Tensor:
    _check_finite(a.data, "sigmoid")
    # tanh form never overflows, unlike 1/(1+exp(-x)) for large negative x
    data = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(out):
        _accum(a, out.grad * data * (1.0 - data))

    return _node(data, (a,), backward, "sigmoid")


def logit_loss(z: Tensor, t: np.ndarray, pos_weight: float = 1.0,
               neg_weight: float = 1.0, gamma: float = 0.0,
               beta: float = 0.0) -> Tensor:
    """Summed binary loss of logits `z` against targets `t` in [0, 1]:

        sum  -w+ t (1-p)^gamma log p - w- (1-t) p^gamma log(1-p) - beta H(p)

    with p = sigmoid(z) and H the binary entropy.  Both logarithms are
    -softplus(-+z), so no rounded probability is ever logged, and the
    gradient is in closed form: a confidently wrong logit keeps a slope
    of about w+ or w-, however far it saturates.
    """
    if t.shape != z.data.shape:
        raise ShapeError(f"logit_loss: targets {t.shape}, logits {z.shape}")
    # a non-finite logit is caught whatever these formulas make of it
    _check_finite(z.data, "logit_loss")
    x = z.data
    nlp = np.logaddexp(0.0, -x)  # -log p
    nlq = np.logaddexp(0.0, x)  # -log(1 - p)
    p, q = np.exp(-nlp), np.exp(-nlq)
    pos = pos_weight * t * q ** gamma
    neg = neg_weight * (1.0 - t) * p ** gamma
    data = np.sum(pos * nlp + neg * nlq - beta * (p * nlp + q * nlq))

    def backward(out):
        g = (neg * (gamma * q * nlq + p) - pos * (gamma * p * nlp + q)
             + beta * p * q * x)
        _accum(z, out.grad * g)

    return _node(data, (z,), backward, "logit_loss")


DropoutRng = Sequence[tuple[np.random.Generator, int]]


def dropout(a: Tensor, rate: float, training: bool,
            rng: DropoutRng | None = None) -> Tensor:
    """Inverted dropout: scaling happens at train time, inference is identity.

    rate 0 returns the input tensor itself, bit-exact in either mode.
    `rng` is (generator, rows) blocks that tile the rows in order, each
    block's mask drawn from its own generator; one block covering every
    row draws the whole mask from one generator.

    A block of n entries draws ceil(n / 2) raw 64-bit words from its
    generator's bit generator and reads each as its low, then its high
    32-bit half (little-endian on every platform), one half per entry in
    row-major order; an odd n leaves the last high half unused.  An entry
    is kept where its half is at least t = round(rate * 2**32), capped at
    2**32 - 1, so it is kept with probability 1 - t / 2**32, within 2**-33
    of 1 - rate.  The rule does not read the data's dtype, so float32 and
    float64 inputs of one shape draw the same mask.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or not training:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    if sum(rows for _, rows in rng) != a.data.shape[0]:
        raise ShapeError("dropout blocks do not tile the rows")
    threshold = min(round(rate * 2.0 ** 32), 2 ** 32 - 1)
    width = a.data.size // max(len(a.data), 1)
    # a bool mask: multiplying by it gives the values a 0/1 float mask would
    mask = np.empty(a.data.size, dtype=bool)
    start = 0
    for gen, rows in rng:
        n = rows * width
        raw = gen.bit_generator.random_raw((n + 1) // 2)
        np.greater_equal(raw.astype("<u8", copy=False).view("<u4")[:n],
                         threshold, out=mask[start:start + n])
        start += n
    mask = mask.reshape(a.data.shape)
    scale = 1.0 / (1.0 - float(rate))  # a Python float keeps float32 data
    data = np.multiply(a.data, mask)
    data *= scale

    def backward(out):
        g = np.multiply(out.grad, mask)
        g *= scale
        _accum(a, g)

    return _node(data, (a,), backward, "dropout")


# -- packed graphs ---------------------------------------------------


class Segments:
    """Contiguous row ranges of a packed matrix, one per graph, in order.

    Every segment holds at least one row.
    """

    __slots__ = ("sizes", "starts", "ids")

    def __init__(self, sizes) -> None:
        sizes = np.asarray(sizes, dtype=np.intp)
        if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
            raise ShapeError("segments need one or more positive sizes")
        self.sizes = sizes
        self.starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.ids = np.repeat(np.arange(sizes.size), sizes)  # row -> segment

    @property
    def num_rows(self) -> int:
        return self.ids.size


def _pad_row(x: np.ndarray) -> np.ndarray:
    """`x` with one all-zero row appended, the target of unused slots."""
    return np.concatenate([x, np.zeros((1,) + x.shape[1:], dtype=x.dtype)])


def _padded(rows: int, cols: int, dtype) -> np.ndarray:
    """A (rows + 1, cols) array whose last row is zero and whose other
    rows are to be written in place: :func:`_pad_row` of them, uncopied."""
    out = np.empty((rows + 1, cols), dtype=dtype)
    out[rows] = 0.0
    return out


class Neighbors:
    """Padded neighbour lists of an undirected graph over N rows: each row
    lists itself and every row it shares a bond with, in ascending order.

    ``index[i, k]`` is the k-th neighbour of row i; unused slots hold N,
    which names an all-zero pad row.  ``mirror[i, k]`` is the slot that
    lists i among the neighbours of ``index[i, k]``; only the backward
    pass of :func:`neighbor_attention` reads it, so it is built on first
    use.  Symmetry is what lets every backward pass below run as a
    gather: the rows that list j are exactly the rows j lists.
    """

    __slots__ = ("index", "_by_slot", "_mirror")

    def __init__(self, bonds, num_rows: int) -> None:
        """`bonds` is an (E, 2) array of row pairs in [0, N), each bond
        once in either orientation; a self-bond or a pair listed twice
        raises :class:`ShapeError`."""
        bonds = np.asarray(bonds, dtype=np.intp)
        self_rows = np.arange(num_rows)
        rows = np.concatenate((self_rows, bonds[:, 0], bonds[:, 1]))
        cols = np.concatenate((self_rows, bonds[:, 1], bonds[:, 0]))
        key = np.sort(rows * num_rows + cols)  # row-major pair order
        # a repeated pair, or a self-bond doubling a self-loop, sorts
        # next to its twin
        if np.any(key[1:] == key[:-1]):
            raise ShapeError("bond list has a self-bond or a repeated pair")
        rows, cols = np.divmod(key, num_rows)
        degree = np.bincount(rows, minlength=num_rows)
        width = max(int(degree.max(initial=0)), 1)
        slot = np.arange(rows.size) - (np.cumsum(degree) - degree)[rows]
        index = np.full((num_rows, width), num_rows, dtype=np.intp)
        index[rows, slot] = cols
        self._set_index(index)

    def _set_index(self, index: np.ndarray) -> None:
        self.index = index
        # slot k's neighbour of every row, contiguous for np.take
        self._by_slot = np.ascontiguousarray(index.T)
        self._mirror = None

    def repeat(self, rows: np.ndarray) -> Neighbors:
        """Neighbour lists over new rows, new row u a copy of row rows[u].

        Each copy of a graph must hold its rows contiguously and in their
        order, so that u - rows[u] is one offset across the copy: then row
        u's neighbours are row rows[u]'s shifted by it.  The shift keeps
        every list ascending, and unused slots name the new pad row, so
        the result equals the lists built from the copies' bonds, with no
        sort.
        """
        source = np.take(self.index, rows, axis=0)
        index = source + (np.arange(rows.size) - rows)[:, None]
        index[source == self.index.shape[0]] = rows.size
        out = Neighbors.__new__(Neighbors)
        out._set_index(index)
        return out

    @property
    def mirror(self) -> np.ndarray:
        if self._mirror is None:
            num_rows = self.index.shape[0]
            # the listed pairs in row-major order, as __init__ sorted them
            rows, slot = np.nonzero(self.index < num_rows)
            cols = self.index[rows, slot]
            # pair p of the column-major order is the mirror of pair p of
            # the row-major order
            by_col = np.argsort(cols * num_rows + rows)
            self._mirror = np.zeros_like(self.index)
            self._mirror[rows, slot] = slot[by_col]
        return self._mirror

    def _sum_padded(self, xp: np.ndarray) -> np.ndarray:
        """out[i] = sum over slots k of xp[index[i, k]], where the last
        row of `xp` is the zero pad row."""
        out = np.take(xp, self._by_slot[0], axis=0)
        for neighbor in self._by_slot[1:]:
            out += np.take(xp, neighbor, axis=0)
        return out

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(N, K, d) rows: out[i, k] = x[index[i, k]]; 0 on unused slots."""
        return np.take(_pad_row(x), self.index, axis=0)

    def transpose(self, w: np.ndarray) -> np.ndarray:
        """Per-slot values of the mirrored pair: out[i, k] = w[j, m] for
        j = index[i, k], m = mirror[i, k]; 0 on unused slots."""
        return _pad_row(w)[self.index, self.mirror]


def repeat_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Rows of `a` in the order `rows` names them, repeats allowed:
    out[u] = a[rows[u]].  The backward pass sums the gradients of each
    row's copies."""
    data = np.take(a.data, rows, axis=0)

    def backward(out):
        g = np.zeros_like(a.data)
        np.add.at(g, rows, out.grad)
        _accum(a, g)

    return _node(data, (a,), backward, "repeat_rows")


def gcn_conv(h: Tensor, w: Tensor, nb: Neighbors) -> Tensor:
    """One GCN layer as one op: relu((A + I) @ (h @ w)) with the bond
    adjacency A, each row summing the projected rows it lists.

    Only the result is kept for the backward pass: it gives the ReLU mask,
    and (A + I) is symmetric, so the gradient reaching the pre-activation
    is summed over the same lists.  The pre-activation is checked, as the
    ReLU could map it to finite values; a non-finite product reaches it
    through each row's own slot.
    """
    if h.ndim != 2 or w.ndim != 2 or h.data.shape[1] != w.data.shape[0] \
            or h.data.shape[0] != nb.index.shape[0]:
        raise ShapeError(f"gcn_conv: {h.shape} @ {w.shape} over "
                         f"{nb.index.shape[0]} rows")
    rows = h.data.shape[0]
    # the product, like the backward pass's masked gradient, is written
    # above a zero pad row, so its neighbour sum copies nothing
    hw = _padded(rows, w.data.shape[1], np.result_type(h.data, w.data))
    np.dot(h.data, w.data, out=hw[:rows])
    pre = nb._sum_padded(hw)
    _check_finite(pre, "gcn_conv")
    data = np.maximum(pre, 0.0, out=pre)

    def backward(out):
        g = _padded(rows, out.data.shape[1], out.data.dtype)
        np.multiply(out.grad, out.data > 0.0, out=g[:rows])
        g = nb._sum_padded(g)
        if h.requires_grad:
            _accum(h, np.dot(g, w.data.T))
        _accum(w, np.dot(h.data.T, g))

    return _node(data, (h, w), backward, "gcn_conv")


def neighbor_attention(q: Tensor, p: Tensor, nb: Neighbors,
                       scale: float) -> Tensor:
    """Row i sums tanh(scale * q[i] . p[j]) * p[j] over its neighbours j,
    shape (N, d).

    The neighbour rows of `p` are gathered once, for the scores and the
    weighted sum alike, and the backward pass reuses them.  `scale` is at
    most 1 in magnitude, as 1/sqrt(width) is.
    """
    gathered = nb.gather(p.data)
    scores = np.einsum("nd,nkd->nk", q.data, gathered)
    # the tanh below maps +-inf to +-1.  Scaling by at most 1 and tanh
    # keep finite scores finite.
    _check_finite(scores, "neighbor_attention")
    alpha = np.tanh(scores * scale)
    data = np.einsum("nk,nkd->nd", alpha, gathered)

    def backward(out):
        g = out.grad
        g_scores = np.einsum("nd,nkd->nk", g, gathered) \
            * (1.0 - alpha * alpha) * scale
        _accum(q, np.einsum("nk,nkd->nd", g_scores, gathered))
        _accum(p, np.einsum("nk,nkd->nd", nb.transpose(alpha), nb.gather(g))
               + np.einsum("nk,nkd->nd", nb.transpose(g_scores),
                           nb.gather(q.data)))

    return _node(data, (q, p), backward, "neighbor_attention")


def segment_sum(a: Tensor, seg: Segments) -> Tensor:
    """Sum of each segment's rows: (N,) -> (B,) or (N, d) -> (B, d)."""
    if a.ndim == 0 or a.data.shape[0] != seg.num_rows:
        raise ShapeError(f"segment_sum: {a.shape} over {seg.num_rows} rows")
    data = np.add.reduceat(a.data, seg.starts, axis=0)

    def backward(out):
        _accum(a, out.grad[seg.ids])

    return _node(data, (a,), backward, "segment_sum")


def attention_pool(h: Tensor, v: Tensor, seg: Segments,
                   scale: float) -> Tensor:
    """Attention-weighted row sum of each segment of `h`, shape (B, d).

    Row i scores scale * h[i] . v; within each segment the softmax of the
    scores, times the segment's row count, weights the rows, so uniform
    scores give the plain segment sum.  Only the (N,) weights are kept
    for the backward pass, not the weighted (N, d) rows.
    """
    if h.ndim != 2 or h.data.shape[0] != seg.num_rows or v.ndim != 1:
        raise ShapeError(f"attention_pool: {h.shape} and {v.shape} over "
                         f"{seg.num_rows} rows")
    scores = np.dot(h.data, v.data) * scale
    # exp maps -inf to 0, and the scores are no other op's result
    _check_finite(scores, "attention_pool")
    # subtracting each segment's max keeps exp from overflowing
    e = np.exp(scores - np.maximum.reduceat(scores, seg.starts)[seg.ids])
    s = e / np.add.reduceat(e, seg.starts)[seg.ids]
    size = seg.sizes[seg.ids].astype(scores.dtype)
    weights = s * size
    data = np.add.reduceat(weights[:, None] * h.data, seg.starts, axis=0)

    def backward(out):
        g_rows = out.grad[seg.ids]
        g_s = (g_rows * h.data).sum(axis=1) * size
        g_scores = s * (g_s - np.add.reduceat(g_s * s, seg.starts)[seg.ids]) \
            * scale
        _accum(h, g_rows * weights[:, None] + np.outer(g_scores, v.data))
        _accum(v, np.dot(h.data.T, g_scores))

    return _node(data, (h, v), backward, "attention_pool")


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

    Each interior gradient is dropped once its node's closure has passed
    it on to the parents, so afterwards only leaves hold a ``.grad``; the
    graph itself stays, and a second call on the same loss runs the same
    pass again.  Leaf gradients accumulate until their owner zeroes them.
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
            node.grad = None
