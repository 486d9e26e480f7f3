"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Every operation the network needs is a node in a dynamically built tape;
``Tensor.backward()`` walks the tape in reverse topological order and
accumulates exact gradients into ``Tensor.grad``. Reductions use numpy's
deterministic ordering, so repeated runs are bit-identical.

``backward()`` consumes the tape as it walks: once an interior node has
passed its gradient to its parents, the node drops its ``grad``, its
parents and its backward closure, so only the leaves (tensors built
without parents) keep gradients. Calling ``backward()`` a second time on
the same graph is therefore not supported.

A node's backward hands each parent either a dense gradient of the
parent's shape or a row contribution ``(rows, values)``, meaning
``grad[rows] += values`` for a slice or an array of distinct row indices;
``slice_rows``, ``gather_rows`` and ``edge_affine`` hand back rows, so a
block that reads a few rows of a large tensor costs time in its rows only.
No backward hands two parents the same buffer or views of one buffer:
``__add__`` gives its second parent a copy, ``concat`` a contiguous copy
per part; ``checkpoint`` seeds its rerun's outputs with disjoint views of
its own gradient, which it reads no more. So a tensor's first dense
gradient becomes its ``grad`` as it is, no other tensor holds any of it,
and later contributions are added into it in place. ``T`` hands a
contiguous copy of its gradient's transpose, not a view, so a leaf read
first through a transpose still gets a row-major ``grad``.

``checkpoint(fn, inputs)`` records all of ``fn`` as one tape node: the
forward runs under ``no_grad()``, and the backward runs ``fn`` again with
the tape on over the same input tensors and walks that short tape at once,
down to the inputs and no further. The live tape then holds only what the
checkpoints keep (their inputs and outputs) plus the parts left outside
them. The rerun's contributions land straight in the inputs' gradients,
added in place as in the outer walk, so many checkpoints over the rows of
one large input write their rows into one gradient of its size, not one
full-size gradient each.

``rms_norm_leaky_relu`` scales each row by its root mean square and takes
no row mean, so it is a layer norm only of rows that are already centred
(each row's mean is zero). That is its callers' contract: ``model``
centres each MLP's first-layer weight and bias over their output columns,
so the pre-activation arrives centred. Column sums of a backward (the
bias gradients) are products with a row of ones.

Inside ``with no_grad():`` new tensors record no parents and no backward
closure, so the same model code runs without a tape and each intermediate
is freed as soon as the code drops it; ``checkpoint`` then only calls
``fn``. The blocks nest, and each restores the previous mode on exit, also
when an exception leaves it. The mode is one flag for the whole process,
not one per thread.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

Array = np.ndarray

LAYER_NORM_EPS = 1e-5  # added to each row's mean square in ``rms_norm_leaky_relu``


def _as_array(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


_taping = True


@contextmanager
def _taping_mode(on: bool):
    global _taping
    previous, _taping = _taping, on
    try:
        yield
    finally:
        _taping = previous


def no_grad():
    """Build no tape inside the block: new tensors keep only their data."""
    return _taping_mode(False)


def _accumulate(tensor: Tensor, contribution) -> None:
    """Add one dense or row contribution into ``tensor.grad``.

    A first dense contribution becomes ``grad``; no other tensor holds it,
    so later contributions are added into it in place.
    """
    if isinstance(contribution, tuple):
        rows, values = contribution
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)
        tensor.grad[rows] += values
    elif tensor.grad is None:
        tensor.grad = contribution
    else:
        tensor.grad += contribution


def _backprop(outputs, grads, inputs=()) -> None:
    """Seed each output with its gradient and walk the tape back.

    The walk stops at ``inputs``: they gather their contributions in
    ``grad`` but are neither expanded nor consumed. Every other interior
    node reached is consumed: it ends with no ``grad``, no parents and no
    backward closure. Leaves keep their gradients.
    """
    order: list[Tensor] = []
    seen: set[int] = {id(t) for t in inputs}
    stack: list[tuple[Tensor, bool]] = [(out, False) for out in outputs]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for out, grad in zip(outputs, grads):
        _accumulate(out, grad)
    while order:
        node = order.pop()
        if not node._parents:
            continue  # a leaf keeps its gradient
        if node._backward is not None and node.grad is not None:
            for parent, contribution in zip(node._parents, node._backward(node.grad)):
                if contribution is not None:
                    _accumulate(parent, contribution)
        node.grad, node._parents, node._backward = None, (), None


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad: Array | None = None
        if not _taping:
            parents, backward = (), None
        self._parents: tuple[Tensor, ...] = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar. The tape is consumed: interior nodes end
        with no ``grad``, no parents and no backward closure.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        _backprop((self,), (np.ones_like(self.data),))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data + other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape),
                       _unbroadcast(g, other.data.shape).copy()),
        )

    def __sub__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data - other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape),
                       _unbroadcast(-g, other.data.shape)),
        )

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data * other.data,
            (self, other),
            lambda g: (_unbroadcast(g * other.data, self.data.shape),
                       _unbroadcast(g * self.data, other.data.shape)),
        )

    def __truediv__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data / other.data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.data.shape),
                _unbroadcast(-g * self.data / (other.data * other.data),
                             other.data.shape),
            ),
        )

    def __matmul__(self, other):
        """Matrix product of two 2-D operands; any other shape raises
        ValueError, because the backward pass assumes matrices."""
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul takes 2-D operands, got shapes {self.data.shape} "
                f"and {other.data.shape}"
            )
        return Tensor(
            self.data @ other.data,
            (self, other),
            lambda g: (g @ other.data.T, self.data.T @ g),
        )

    # -- shape and reductions ----------------------------------------------

    @property
    def T(self):
        return Tensor(self.data.T, (self,), lambda g: (np.ascontiguousarray(g.T),))

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.data.shape).copy(),)

        return Tensor(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -----------------------------------------

    def sigmoid(self):
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(self.data))),
            np.exp(-np.abs(self.data)) / (1.0 + np.exp(-np.abs(self.data))),
        )
        return Tensor(out_data, (self,), lambda g: (g * out_data * (1.0 - out_data),))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _column_sums(g: Array) -> Array:
    """``g.sum(axis=0)`` as a product with a row of ones, which BLAS runs
    faster than numpy's reduction over many short rows."""
    return np.ones(len(g)) @ g


def affine(x: Tensor | Array, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for row-major inputs; bias has shape (out,).

    ``x`` may be an array: a constant, which gets no gradient.
    """
    constant = not isinstance(x, Tensor)
    data = _as_array(x) if constant else x.data
    out_data = data @ weight.data
    out_data += bias.data
    if constant:
        return Tensor(out_data, (weight, bias), lambda g: (data.T @ g, _column_sums(g)))
    return Tensor(
        out_data,
        (x, weight, bias),
        lambda g: (g @ weight.data.T, data.T @ g, _column_sums(g)),
    )


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(part.copy() for part in np.split(g, offsets[1:-1], axis=axis))

    return Tensor(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of ``x``: a view forward, a row contribution back."""
    return Tensor(x.data[start:stop], (x,), lambda g: ((slice(start, stop), g),))


def _row_sums(index: np.ndarray, count: int, g: Array):
    """The row contribution of ``x[index]`` to an ``x`` of ``count`` rows.

    Sums the gradient of each distinct row in index order with one
    ``bincount`` and hands back only those rows.
    """
    rows, inverse = np.unique(index % count, return_inverse=True)
    width = math.prod(g.shape[1:])
    flat = (inverse[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=g.ravel(), minlength=rows.size * width)
    return rows, sums.reshape((rows.size,) + g.shape[1:])


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index; repeated rows accumulate gradient."""
    index = np.asarray(index, dtype=np.intp)
    return Tensor(np.take(x.data, index, axis=0), (x,),
                  lambda g: (_row_sums(index, len(x.data), g),))


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """Repeat each row ``k`` times in place: output row ``i*k + s`` is row i."""
    n, d = x.data.shape
    return Tensor(
        np.repeat(x.data, k, axis=0),
        (x,),
        lambda g: (g.reshape(n, k, d).sum(axis=1),),
    )


def group_mean(x: Tensor, k: int) -> Tensor:
    """Average runs of ``k`` rows: output row i is the mean of rows ``i*k + s``."""
    rows, d = x.data.shape
    return Tensor(
        x.data.reshape(rows // k, k, d).mean(axis=1),
        (x,),
        lambda g: (np.repeat(g / k, k, axis=0),),
    )


def row_norm(x: Tensor) -> Tensor:
    """Per-row Euclidean norm, shape (n, 1); zero rows get zero gradient."""
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))

    def backward(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        return (g * x.data / safe,)

    return Tensor(norms, (x,), backward)


def edge_affine(
    features: Array,
    x: Tensor,
    weight: Tensor,
    src: Tensor,
    dst: Tensor,
    index: np.ndarray,
) -> Tensor:
    """``[features, x] @ weight + src[r // k] + dst[index[r]]`` per row r.

    With ``k = rows / len(src)``, each ``src`` row is added to a run of
    ``k`` output rows through a broadcast ``(len(src), k, out)`` view, and
    each ``dst`` row to the rows that index it; a bias enters through
    ``src``, once per source row. ``features`` is a constant and gets no
    gradient; that of ``x`` reads only the rows of ``weight`` after the
    features' rows.
    """
    width = features.shape[1]
    index = np.asarray(index, dtype=np.intp)
    joined = np.concatenate([features, x.data], axis=1)
    out = joined @ weight.data
    blocks = len(src.data)
    grouped = out.reshape(blocks, -1, out.shape[1])
    grouped += src.data[:, None, :]
    out += np.take(dst.data, index, axis=0)

    def backward(g):
        return (
            g @ weight.data[width:].T,
            joined.T @ g,
            g.reshape(grouped.shape).sum(axis=1),
            _row_sums(index, len(dst.data), g),
        )

    return Tensor(out, (x, weight, src, dst), backward)


def rms_norm_leaky_relu(x: Tensor, gain: Tensor, bias: Tensor, slope: float) -> Tensor:
    """``max(y, slope * y)`` of ``y = x / sqrt(mean(x^2) + eps) * gain + bias``
    per row, for 0 <= slope < 1 and ``eps = LAYER_NORM_EPS``.

    The op takes no row means. On rows whose mean is zero it is the layer
    norm, whose first step subtracts the row mean; the caller keeps that
    contract by centring the rows it feeds in, e.g. through a weight and
    bias centred over their output columns (``model`` centres every MLP's
    first layer so). The value and the gradient are exact for any ``x``.
    The mean square is a row-wise dot product, with no squared copy; the
    scale, gain, bias and activation are written into one output, and an
    output is positive exactly where ``y`` is, so the backward reads its
    1-or-slope factors off the output. The backward reads ``x`` and the
    row scales, not a stored normalised copy.
    """
    data = x.data
    d = data.shape[1]
    var = np.einsum("ij,ij->i", data, data)[:, None]
    var *= 1.0 / d
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    out = data * inv
    out *= gain.data
    out += bias.data
    np.maximum(out, out * slope, out=out)

    def backward(g):
        # g_y = g * (1 or slope); with xhat = x * inv and g_xhat = g_y * gain,
        # gx = inv * (g_xhat - xhat * mean(g_xhat * xhat)), the mean over
        # the feature axis, and xhat * mean(g_xhat * xhat) =
        # x * inv^2 * ((g_y * x) @ gain) / d
        g_y = (out > 0).astype(np.float64)
        np.maximum(g_y, slope, out=g_y)
        g_y *= g
        g_times_x = g_y * data
        gain_grad = inv.ravel() @ g_times_x
        bias_grad = _column_sums(g_y)
        scale = g_times_x @ (gain.data[:, None] / d)
        scale *= inv * inv
        np.multiply(data, scale, out=g_times_x)
        g_y *= gain.data
        g_y -= g_times_x
        g_y *= inv
        return (g_y, gain_grad, bias_grad)

    return Tensor(out, (x, gain, bias), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; the max shift is constant so gradients stay exact."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, (x,), backward)


def checkpoint(fn, inputs):
    """``fn(*inputs)`` recorded as one tape node whose tape is rebuilt on demand.

    ``fn`` takes Tensors and returns a tuple of Tensors; what else it reads
    enters as a constant. The forward keeps no tape inside ``fn``. The
    backward runs ``fn`` again with the tape on over the same input
    tensors, seeds the outputs' gradients into that tape and walks it down
    to the inputs, so every dense or row contribution lands straight in an
    input's ``grad``; the node itself hands its parents nothing. Each
    output is a view of one packed array the node holds. Under
    ``no_grad()`` this is ``fn(*inputs)``.
    """
    if not _taping:
        return fn(*inputs)
    inputs = tuple(inputs)
    with no_grad():
        outputs = fn(*inputs)
    shapes = [out.data.shape for out in outputs]
    offsets = np.cumsum([0] + [out.data.size for out in outputs])
    segments = list(zip(offsets[:-1], offsets[1:]))
    packed = np.concatenate([out.data.ravel() for out in outputs])

    def backward(g):
        with _taping_mode(True):
            again = fn(*inputs)
        _backprop(again,
                  [g[a:b].reshape(shape) for (a, b), shape in zip(segments, shapes)],
                  inputs)
        return (None,) * len(inputs)

    node = Tensor(packed, inputs, backward)

    def view(a, b, shape):
        return Tensor(packed[a:b].reshape(shape), (node,),
                      lambda g: ((slice(a, b), g.ravel()),))

    return tuple(view(a, b, shape) for (a, b), shape in zip(segments, shapes))
