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

Inside ``with no_grad():`` new tensors record no parents and no backward
closure, so the same model code runs without a tape and each intermediate
is freed as soon as the code drops it. The blocks nest, and each restores
the previous mode on exit, also when an exception leaves it. The mode is
one flag for the whole process, not one per thread.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

Array = np.ndarray


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
def no_grad():
    """Build no tape inside the block: new tensors keep only their data."""
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


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
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if not node._parents:
                continue  # a leaf keeps its gradient
            if node._backward is not None and node.grad is not None:
                for parent, contribution in zip(node._parents,
                                                node._backward(node.grad)):
                    if contribution is None:
                        continue
                    if parent.grad is None:
                        parent.grad = contribution
                    else:
                        parent.grad = parent.grad + contribution
            node.grad, node._parents, node._backward = None, (), None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(
            self.data + other.data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape),
                       _unbroadcast(g, other.data.shape)),
        )
        return out

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: (-g,))

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

    __rmul__ = __mul__

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

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent
        return Tensor(
            out_data,
            (self,),
            lambda g: (g * exponent * self.data ** (exponent - 1),),
        )

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor(
            self.data @ other.data,
            (self, other),
            lambda g: (g @ other.data.T, self.data.T @ g),
        )

    # -- shape and reductions ----------------------------------------------

    @property
    def T(self):
        return Tensor(self.data.T, (self,), lambda g: (g.T,))

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

    def leaky_relu(self, slope: float):
        mask = self.data > 0
        scale = np.where(mask, 1.0, slope)
        return Tensor(self.data * scale, (self,), lambda g: (g * scale,))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for row-major inputs; bias has shape (out,)."""
    out_data = x.data @ weight.data + bias.data
    return Tensor(
        out_data,
        (x, weight, bias),
        lambda g: (g @ weight.data.T, x.data.T @ g, g.sum(axis=0)),
    )


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(np.split(g, offsets[1:-1], axis=axis))  # views of g

    return Tensor(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of ``x``: a view forward, a zero-padded gradient back."""

    def backward(g):
        out = np.zeros_like(x.data)
        out[start:stop] = g
        return (out,)

    return Tensor(x.data[start:stop], (x,), backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index; repeated rows accumulate gradient."""
    index = np.asarray(index, dtype=np.intp)

    def backward(g):
        out = np.zeros_like(x.data)
        np.add.at(out, index, g)
        return (out,)

    return Tensor(x.data[index], (x,), backward)


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Feature-wise normalization per row with learnable gain and offset."""
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        g_xhat = g * gain.data
        # both mean terms are over the feature axis
        gx = inv * (
            g_xhat
            - g_xhat.mean(axis=1, keepdims=True)
            - xhat * (g_xhat * xhat).mean(axis=1, keepdims=True)
        )
        return (gx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return Tensor(out_data, (x, gain, bias), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax; the max shift is constant so gradients stay exact."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, (x,), backward)
