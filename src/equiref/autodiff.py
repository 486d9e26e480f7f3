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
``slice_rows``, ``gather_rows`` and ``edge_block`` hand back rows, so a
block that reads a few rows of a large tensor costs time in its rows only.
No backward hands two parents the same buffer or views of one buffer:
``__add__`` gives its second parent a copy, ``concat`` a contiguous copy
per part; an op with several outputs (``checkpoint``, ``edge_block``) is
one node whose outputs view one packed array, and its backward gets their
gradients as disjoint views of its own, which it reads no more. So a
tensor's first dense gradient becomes its ``grad`` as it is, no other
tensor holds any of it, and later contributions are added into it in
place. ``T`` hands a contiguous copy of its gradient's transpose, not a
view, so a leaf read first through a transpose still gets a row-major
``grad``.

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

``edge_block`` is the whole per-edge work of one block of nodes in an
equivariant layer: the message MLP's first layer and norm, the coordinate
gate and the radial update, down to each node's coordinate shift and mean
hidden message. It is one tape node with a backward derived by hand, and
its norms run the kernels of ``rms_norm_leaky_relu``.

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


def _row_plan(index: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows that ``index`` reads of ``count`` rows, in order,
    and each entry's place among them: how to sum a gradient by rows."""
    return np.unique(index % count, return_inverse=True)


def _summed_rows(plan, g: Array):
    """The row contribution of ``x[index]`` with gradient ``g``, for
    ``plan = _row_plan(index, len(x))``: each distinct row's gradient summed
    in index order with one ``bincount``, handed back for those rows only."""
    rows, inverse = plan
    width = math.prod(g.shape[1:])
    flat = (inverse[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=g.ravel(), minlength=rows.size * width)
    return rows, sums.reshape((rows.size,) + g.shape[1:])


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index; repeated rows accumulate gradient."""
    index = np.asarray(index, dtype=np.intp)
    return Tensor(np.take(x.data, index, axis=0), (x,),
                  lambda g: (_summed_rows(_row_plan(index, len(x.data)), g),))


def _rms_norm_leaky_relu(x: Array, gain: Array, bias: Array, slope: float,
                         scratch: Array) -> tuple[Array, Array]:
    """The output of ``rms_norm_leaky_relu`` on arrays and its row scales
    ``1 / sqrt(mean(x^2) + eps)``, shape (rows, 1).

    The mean square is a row-wise dot product, with no squared copy; the
    scale, gain, bias and activation are written into one output.
    ``scratch``, an array of ``x``'s shape, is overwritten: the activation
    writes ``slope * y`` there, not into an array of its own.
    """
    var = np.einsum("ij,ij->i", x, x)[:, None]
    var *= 1.0 / x.shape[1]
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    out = x * inv
    out *= gain
    out += bias
    np.multiply(out, slope, out=scratch)
    np.maximum(out, scratch, out=out)
    return out, inv


def _rms_norm_leaky_relu_backward(g, x: Array, inv: Array, out: Array, gain: Array,
                                  slope: float) -> tuple[Array, Array, Array]:
    """The gradients of ``x``, the gain and the bias of
    ``out, inv = _rms_norm_leaky_relu(x, gain, bias, slope, ...)``.

    ``g``, the output's gradient, is an array, which is only read, or a
    pair ``(column, row)`` of shapes (rows,) and (d,) that stands for
    their outer product, as the gradient of a one-column layer
    ``out @ w + b`` is ``g_out * w`` per row: then no array of that product
    is formed, and the gain and bias gradients are products with the
    column. An output is positive exactly where ``y`` is, so the
    activation's 1-or-slope factors are read off the output; the backward
    reads ``x`` and the row scales, not a stored normalised copy.
    """
    # With q = g_y / (column row^T), g_y = g * (1 or slope), xhat = x * inv
    # and g_xhat = g_y * gain: gx = inv * (g_xhat - xhat * mean(g_xhat *
    # xhat)), the mean over the feature axis, and xhat * mean(g_xhat *
    # xhat) = x * inv^3 * column * ((q * x) @ (row * gain)) / d
    q = (out > 0).astype(np.float64)
    np.maximum(q, slope, out=q)
    if isinstance(g, tuple):
        column, row = g
    else:
        q *= g
        column, row = np.ones(len(q)), np.ones(q.shape[1])
    inv = inv.ravel()
    q_times_x = q * x
    column_inv = column * inv
    gain_grad = row * (column_inv @ q_times_x)
    bias_grad = row * (column @ q)
    row_gain = row * gain
    scale = q_times_x @ row_gain
    scale *= column_inv * inv * inv * (1.0 / x.shape[1])
    np.multiply(x, scale[:, None], out=q_times_x)
    q *= row_gain
    q *= column_inv[:, None]
    q -= q_times_x
    return q, gain_grad, bias_grad


def rms_norm_leaky_relu(x: Tensor, gain: Tensor, bias: Tensor, slope: float) -> Tensor:
    """``max(y, slope * y)`` of ``y = x / sqrt(mean(x^2) + eps) * gain + bias``
    per row, for 0 <= slope < 1 and ``eps = LAYER_NORM_EPS``.

    The op takes no row means. On rows whose mean is zero it is the layer
    norm, whose first step subtracts the row mean; the caller keeps that
    contract by centring the rows it feeds in, e.g. through a weight and
    bias centred over their output columns (``model`` centres every MLP's
    first layer so). The value and the gradient are exact for any ``x``.
    Its kernels are ``_rms_norm_leaky_relu`` and its backward, which
    ``edge_block`` runs too.
    """
    out, inv = _rms_norm_leaky_relu(x.data, gain.data, bias.data, slope,
                                    np.empty_like(x.data))
    return Tensor(out, (x, gain, bias), lambda g: _rms_norm_leaky_relu_backward(
        g, x.data, inv, out, gain.data, slope))


def edge_block(
    features: Array,
    x: Tensor,
    h_src: Tensor,
    h_dst: Tensor,
    neighbors: np.ndarray,
    start: int,
    message: tuple[Tensor, Tensor, Tensor],
    gate: tuple[Tensor, Tensor, Tensor, Tensor, Tensor, Tensor],
    slope: float,
    radial_constant: float,
) -> tuple[Tensor, Tensor]:
    """The coordinate shift (B, 3) and mean hidden message (B, d) of the
    B = ``len(neighbors)`` nodes from ``start``: one edge block of an
    equivariant layer, as one tape node with a hand-derived backward.

    Edge row ``r = i*k + s`` carries the message from ``j = neighbors[i, s]``
    to node ``start + i``. With ``diff = x[start + i] - x[j]`` and its
    squared length ``q``, ``message = (weight, gain, bias)`` and
    ``gate = (w1, b1, gain, bias, w2, b2)``, and ``norm`` the
    ``rms_norm_leaky_relu`` of a gain and bias at ``slope``:

        hidden = norm([features, q] @ weight + h_src[start + i] + h_dst[j])
        coef   = norm(hidden @ w1 + b1) @ w2 + b2          (one column)
        shift[i]       = mean over s of diff / (sqrt(q) + radial_constant) * coef
        mean_hidden[i] = mean over s of hidden

    ``features`` holds the block's edge rows and is a constant; ``h_src``
    carries the message bias. The forward is bit for bit that of the same
    composition of small tape ops (its means are numpy's axis means). Each
    squared length is computed once, and the radial vector is built from
    it; the gathered ``h_dst`` rows, once added in, are the norms' scratch.
    The backward hands ``x`` (a parent twice) the block's rows and its
    neighbour rows, ``h_src`` the block's rows and ``h_dst`` the neighbour
    rows, the neighbour rows summed through one ``_row_plan``; its sums
    over a node's k edge rows are products with a vector of ones, and the
    gate's one-column ``w2`` goes back through a broadcast. Both outputs
    are views of one ``_packed`` node; under ``no_grad()`` the same code
    runs and keeps none of its edge rows.
    """
    weight, message_gain, message_bias = message
    w1, b1, gate_gain, gate_bias, w2, b2 = gate
    blocks, k = neighbors.shape
    stop = start + blocks
    index = neighbors.ravel()
    diff = np.take(x.data, index, axis=0)
    grouped = diff.reshape(blocks, k, 3)
    np.subtract(x.data[start:stop, None, :], grouped, out=grouped)
    sqdist = (diff * diff).sum(axis=1)
    joined = np.concatenate([features, sqdist[:, None]], axis=1)
    pre = joined @ weight.data
    by_node = pre.reshape(blocks, k, -1)
    by_node += h_src.data[start:stop, None, :]
    scratch = np.take(h_dst.data, index, axis=0)
    pre += scratch
    # ``saved`` holds what the backward reads, and only with the tape on:
    # without it each array of edge rows is dropped after its last use
    hidden, message_inv = _rms_norm_leaky_relu(pre, message_gain.data, message_bias.data,
                                               slope, scratch)
    saved = [pre, message_inv, hidden] if _taping else []
    del pre
    mean_hidden = hidden.reshape(blocks, k, -1).mean(axis=1)
    gate_pre = hidden @ w1.data
    gate_pre += b1.data
    del hidden
    gate_hidden, gate_inv = _rms_norm_leaky_relu(gate_pre, gate_gain.data, gate_bias.data,
                                                 slope, scratch)
    saved += [gate_pre, gate_inv, gate_hidden] if _taping else []
    del gate_pre, scratch
    coef = gate_hidden @ w2.data
    coef += b2.data
    del gate_hidden
    length = np.sqrt(sqdist)
    denom = length + radial_constant
    radial = diff / denom[:, None]
    shift = (radial * coef).reshape(blocks, k, 3).mean(axis=1)

    def backward(g_shift, g_mean):
        pre, message_inv, hidden, gate_pre, gate_inv, gate_hidden = saved
        saved.clear()
        g_shift = g_shift / k
        g_coef = np.einsum("bsj,bj->bs", radial.reshape(blocks, k, 3), g_shift).ravel()
        g_radial = (coef.reshape(blocks, k, 1) * g_shift[:, None, :]).reshape(-1, 3)
        g_w2 = (g_coef @ gate_hidden)[:, None]
        g_gate_pre, g_gate_gain, g_gate_bias = _rms_norm_leaky_relu_backward(
            (g_coef, w2.data.ravel()), gate_pre, gate_inv, gate_hidden, gate_gain.data, slope)
        del gate_pre, gate_hidden
        g_w1, g_b1 = hidden.T @ g_gate_pre, _column_sums(g_gate_pre)
        g_hidden = g_gate_pre @ w1.data.T
        del g_gate_pre
        by_node = g_hidden.reshape(blocks, k, -1)
        by_node += g_mean[:, None, :] / k
        g_pre, g_message_gain, g_message_bias = _rms_norm_leaky_relu_backward(
            g_hidden, pre, message_inv, hidden, message_gain.data, slope)
        del pre, hidden, g_hidden
        # diff reaches the output through q and through the radial vector
        # diff / (|diff| + c); a zero-length edge's |diff| term is zero
        g_sqdist = g_pre @ weight.data[-1]
        g_diff = g_radial / denom[:, None]
        dot = np.einsum("ij,ij->i", g_radial, diff)
        dot /= denom * denom * np.where(length > 0.0, length, 1.0)
        g_sqdist *= 2.0
        g_sqdist -= dot
        g_diff += g_sqdist[:, None] * diff
        plan = _row_plan(index, len(x.data))
        rows, g_neighbors = _summed_rows(plan, g_diff)
        np.negative(g_neighbors, out=g_neighbors)
        ones = np.ones(k)
        return (
            (slice(start, stop), ones @ g_diff.reshape(blocks, k, 3)),
            (rows, g_neighbors),
            (slice(start, stop), ones @ g_pre.reshape(blocks, k, -1)),
            _summed_rows(plan, g_pre),
            joined.T @ g_pre,
            g_message_gain,
            g_message_bias,
            g_w1,
            g_b1,
            g_gate_gain,
            g_gate_bias,
            g_w2,
            g_coef.sum(keepdims=True),
        )

    return _packed((shift, mean_hidden),
                   (x, x, h_src, h_dst, weight, message_gain, message_bias, *gate),
                   backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; the max shift is constant so gradients stay exact."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, (x,), backward)


def _packed(outputs: tuple[Array, ...], parents, backward) -> tuple[Tensor, ...]:
    """Several outputs of one tape node, each a tensor that views it.

    The node holds ``outputs`` raveled into one packed array; each output
    tensor views its segment and hands the node its gradient as a row
    contribution. The node's backward calls ``backward`` with the outputs'
    gradients, disjoint views of the node's own gradient, and hands the
    parents what it returns.
    """
    shapes = [out.shape for out in outputs]
    offsets = np.cumsum([0] + [out.size for out in outputs])
    segments = list(zip(offsets[:-1], offsets[1:]))
    packed = np.concatenate([out.ravel() for out in outputs])
    node = Tensor(packed, tuple(parents), lambda g: backward(
        *(g[a:b].reshape(shape) for (a, b), shape in zip(segments, shapes))))

    def view(a, b, shape):
        return Tensor(packed[a:b].reshape(shape), (node,),
                      lambda g: ((slice(a, b), g.ravel()),))

    return tuple(view(a, b, shape) for (a, b), shape in zip(segments, shapes))


def checkpoint(fn, inputs):
    """``fn(*inputs)`` recorded as one tape node whose tape is rebuilt on demand.

    ``fn`` takes Tensors and returns a tuple of Tensors; what else it reads
    enters as a constant. The forward keeps no tape inside ``fn``. The
    backward runs ``fn`` again with the tape on over the same input
    tensors, seeds the outputs' gradients into that tape and walks it down
    to the inputs, so every dense or row contribution lands straight in an
    input's ``grad``; the node itself hands its parents nothing. The
    outputs are ``_packed`` views of one node. Under ``no_grad()`` this is
    ``fn(*inputs)``.
    """
    if not _taping:
        return fn(*inputs)
    inputs = tuple(inputs)
    with no_grad():
        outputs = fn(*inputs)

    def backward(*grads):
        with _taping_mode(True):
            again = fn(*inputs)
        _backprop(again, grads, inputs)
        return (None,) * len(inputs)

    return _packed(tuple(out.data for out in outputs), inputs, backward)
