"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest

from equiref.autodiff import (
    LAYER_NORM_EPS,
    Tensor,
    affine,
    checkpoint,
    concat,
    edge_block,
    gather_rows,
    no_grad,
    rms_norm_leaky_relu,
    slice_rows,
    softmax_rows,
)
from equiref.model import LEAKY_SLOPE, NORM_CONSTANT
from equiref.train import clip_gradients

from conftest import traced_peak
from oracles import edge_affine, group_mean, repeat_rows, row_norm, taped_edge_block


def finite_difference(fn, arrays, which, step=1e-6):
    """Central-difference gradient of scalar fn w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[which])
    flat = grad.reshape(-1)
    target = base[which].reshape(-1)
    for i in range(target.size):
        orig = target[i]
        target[i] = orig + step
        up = fn(*base)
        target[i] = orig - step
        down = fn(*base)
        target[i] = orig
        flat[i] = (up - down) / (2 * step)
    return grad


def check_op(build, arrays, rel=1e-6):
    """Compare analytic gradients of scalar build(*tensors) against FD."""
    tensors = [Tensor(a) for a in arrays]
    out = build(*tensors)
    out.backward()

    def scalar_fn(*values):
        return float(build(*[Tensor(v) for v in values]).data)

    for k, t in enumerate(tensors):
        fd = finite_difference(scalar_fn, arrays, k)
        denom = np.abs(fd) + np.abs(t.grad) + 1e-8
        assert np.max(np.abs(fd - t.grad) / denom) < rel, f"operand {k}"


def squared(t):
    return t * t


def cubed(t):
    return t * t * t


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_add_mul_broadcast(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    check_op(lambda x, y: ((x + y) * (x - y)).sum(), [a, b])


def test_div(rng):
    a = rng.normal(size=(3, 3)) + 3.0
    b = rng.normal(size=(3, 3)) + 3.0
    check_op(lambda x, y: squared(x / y).sum(), [a, b])


def test_matmul_transpose(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 2))
    check_op(lambda x, y: (x @ y).sum() + (y.T @ x.T).sum(), [a, b])


@pytest.mark.parametrize("left, right", [
    ((5,), (5, 2)), ((4, 5), (5,)), ((5,), (5,)), ((3, 4, 5), (5, 2)),
    ((4, 5), (2, 5, 3)),
])
def test_matmul_rejects_operands_that_are_not_matrices(left, right):
    with pytest.raises(ValueError, match="2-D operands"):
        Tensor(np.ones(left)) @ Tensor(np.ones(right))


def test_affine(rng):
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    check_op(lambda t, u, v: squared(affine(t, u, v)).sum(), [x, w, b])


def test_reductions(rng):
    a = rng.normal(size=(5, 4))
    check_op(lambda x: x.mean(axis=1).sum() + x.sum(axis=0, keepdims=True).sum(), [a])


def test_elementwise_chain(rng):
    a = rng.normal(size=(4, 4))
    check_op(lambda x: (x.sigmoid() * x).sum(), [a])


def test_concat(rng):
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))
    check_op(lambda x, y: squared(concat([x, y], axis=1)).sum(), [a, b])
    c = rng.normal(size=(2, 4))
    check_op(lambda x, y: cubed(concat([x, y], axis=0)).sum(), [b, c])


def test_slice_rows(rng):
    a = rng.normal(size=(5, 3))
    weights = Tensor(rng.normal(size=(2, 3)))
    np.testing.assert_array_equal(slice_rows(Tensor(a), 1, 3).data, a[1:3])
    check_op(lambda x: (squared(slice_rows(x, 1, 3)) * weights).sum(), [a])
    x = Tensor(a)
    (slice_rows(x, 3, 5) * 2.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0] * 3] * 3 + [[2.0] * 3] * 2)


def test_gather_rows_accumulates(rng):
    a = rng.normal(size=(4, 3))
    idx = np.array([0, 2, 2, 3, 0, 0])
    check_op(lambda x: squared(gather_rows(x, idx)).sum(), [a])
    # a negative index names the same row as its positive form
    check_op(lambda x: squared(gather_rows(x, [3, -1, 0, -4])).sum(), [a])


def test_repeat_rows(rng):
    a = rng.normal(size=(3, 2))
    weights = Tensor(rng.normal(size=(12, 2)))
    out = repeat_rows(Tensor(a), 4)
    np.testing.assert_array_equal(out.data, a[[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]])
    check_op(lambda x: (squared(repeat_rows(x, 4)) * weights).sum(), [a])


def test_group_mean(rng):
    a = rng.normal(size=(6, 3))
    out = group_mean(Tensor(a), 2)
    for i in range(3):
        np.testing.assert_allclose(out.data[i], a[2 * i:2 * i + 2].mean(axis=0))
    np.testing.assert_array_equal(group_mean(repeat_rows(Tensor(a), 4), 4).data, a)
    check_op(lambda x: squared(group_mean(x, 2)).sum(), [a])


def test_row_norm(rng):
    a = rng.normal(size=(5, 3)) + 2.0
    check_op(lambda x: row_norm(x).sum(), [a])


def test_row_norm_zero_row_safe():
    a = np.zeros((2, 3))
    a[1] = [3.0, 4.0, 0.0]
    out = row_norm(Tensor(a))
    np.testing.assert_allclose(out.data.ravel(), [0.0, 5.0])
    t = Tensor(a)
    row_norm(t).sum().backward()
    assert np.all(np.isfinite(t.grad))
    np.testing.assert_allclose(t.grad[0], 0.0)


def centred(x):
    """``x`` with each row's mean taken out: the norm op's input contract."""
    return x - x.mean(axis=1, keepdims=True)


def layer_norm_reference(x, gain, bias, slope):
    centred = x - x.mean(axis=1, keepdims=True)
    scale = np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    y = centred / scale * gain + bias
    return np.maximum(y, slope * y)


def test_layer_norm_leaky_relu(rng):
    x = centred(rng.normal(size=(5, 6)))
    g = rng.normal(size=(6,)) + 1.0
    b = rng.normal(size=(6,))

    def build(t, u, v):
        # the linear term keeps every gradient entry away from 0: the cube
        # alone gives a column of small outputs a gradient near 0
        out = rms_norm_leaky_relu(t, u, v, 0.01)
        return cubed(out).sum() + out.sum()

    check_op(build, [x, g, b], rel=1e-5)


def test_layer_norm_leaky_relu_slope(rng):
    # a linear read-out sees the activation's two slopes; the bias keeps
    # every pre-activation away from the kink
    x = centred(rng.normal(size=(5, 5)))
    g = np.ones(5)
    b = np.where(rng.random(5) < 0.5, -3.0, 3.0)
    out = rms_norm_leaky_relu(Tensor(x), Tensor(g), Tensor(b), 0.2).data
    np.testing.assert_allclose(out, layer_norm_reference(x, g, b, 0.2), rtol=1e-12)
    assert (out < 0).any() and (out > 0).any()
    check_op(lambda t, u, v: (rms_norm_leaky_relu(t, u, v, 0.01) * 3.0).sum(),
             [x, g, b])


def test_layer_norm_leaky_relu_same_without_tape(rng):
    # the op runs the same kernel with and without the tape; the values
    # are the same bits
    x, g, b = centred(rng.normal(size=(7, 6))), rng.normal(size=6), rng.normal(size=6)
    taped = rms_norm_leaky_relu(Tensor(x), Tensor(g), Tensor(b), 0.01).data
    with no_grad():
        untaped = rms_norm_leaky_relu(Tensor(x), Tensor(g), Tensor(b), 0.01).data
    np.testing.assert_array_equal(untaped, taped)


def edge_affine_reference(features, x, weight, src, dst, index):
    k = len(index) // len(src)
    joined = np.concatenate([features, x], axis=1)
    return joined @ weight + np.repeat(src, k, axis=0) + dst[index]


def test_edge_affine(rng):
    # 3 source rows of k = 4 edge rows each; the destination rows repeat
    features = rng.normal(size=(12, 3))
    x, w = rng.normal(size=(12, 1)), rng.normal(size=(4, 5))
    src, dst = rng.normal(size=(3, 5)), rng.normal(size=(6, 5))
    index = rng.integers(0, 6, size=12)
    out = edge_affine(features, *map(Tensor, (x, w, src, dst)), index)
    np.testing.assert_allclose(
        out.data, edge_affine_reference(features, x, w, src, dst, index), rtol=1e-12)
    check_op(lambda *t: squared(edge_affine(features, *t, index)).sum(),
             [x, w, src, dst])


def test_edge_affine_differentiates_no_constant(rng):
    # the features enter as an array and are no parent of the output: the
    # backward reads only the weight rows after theirs
    features = rng.normal(size=(6, 4))
    leaves = [Tensor(rng.normal(size=shape))
              for shape in ((6, 1), (5, 3), (2, 3), (4, 3))]
    out = edge_affine(features, *leaves, [0, 1, 1, 3, 2, 0])
    assert out._parents == tuple(leaves)
    g = rng.normal(size=out.shape)
    contributions = out._backward(g)
    np.testing.assert_array_equal(contributions[0], g @ leaves[1].data[4:].T)
    (out * Tensor(g)).sum().backward()
    assert all(leaf.grad is not None for leaf in leaves)


EDGE_BLOCK_NAMES = ("x", "h_src", "h_dst", "msg_mlp.w1_edge", "msg_mlp.ln_gain",
                    "msg_mlp.ln_bias", "coord_mlp.w1", "coord_mlp.b1", "coord_mlp.ln_gain",
                    "coord_mlp.ln_bias", "coord_mlp.w2", "coord_mlp.b2")


def edge_block_case(rng, n=13, k=4, d=5, width=3):
    """Arrays for one edge block over ``n`` nodes with ``k`` neighbours each,
    in ``EDGE_BLOCK_NAMES`` order, the edge features and the neighbours.
    A node's neighbours repeat rows and may include the node itself."""
    shapes = [(n, 3), (n, d), (n, d), (width + 1, d), (d,), (d,), (d, d), (d,), (d,), (d,),
              (d, 1), (1,)]
    arrays = [rng.normal(size=shape) for shape in shapes]
    arrays[0] *= 3.0
    arrays[4] += 1.0  # gains away from zero
    arrays[8] += 1.0
    return arrays, rng.normal(size=(n * k, width)), rng.integers(0, n, size=(n, k))


def edge_block_of(features, neighbors, start, stop, *tensors):
    """``autodiff.edge_block`` on nodes ``start:stop``, its tensors in
    ``EDGE_BLOCK_NAMES`` order."""
    k = neighbors.shape[1]
    x, h_src, h_dst, weight, *rest = tensors
    return edge_block(features[start * k:stop * k], x, h_src, h_dst, neighbors[start:stop],
                      start, (weight, *rest[:2]), tuple(rest[2:]), LEAKY_SLOPE, NORM_CONSTANT)


def test_edge_block_gradients(rng):
    # a ragged block: nodes 3 to 7 of 13, whose neighbours repeat rows
    arrays, features, neighbors = edge_block_case(rng)
    w_shift, w_mean = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 5)))

    def build(*tensors):
        shift, mean = edge_block_of(features, neighbors, 3, 8, *tensors)
        return (shift * w_shift).sum() + (mean * w_mean).sum()

    # as for the norm op: central differences of this loss carry about
    # 1e-10 of noise, about 1e-6 of its smallest gradient entries
    check_op(build, arrays, rel=1e-5)


def test_edge_block_matches_taped_composition(rng):
    # the values are the same bits as the composition of small tape ops;
    # every gradient is within 1e-12 of its largest entry
    arrays, features, neighbors = edge_block_case(rng, n=40, k=6, d=8)
    weights = rng.normal(size=(9, 3)), rng.normal(size=(9, 8))
    results = []
    for block in (edge_block_of, lambda f, nb, a, b, *t: taped_edge_block(
            dict(zip(EDGE_BLOCK_NAMES, t)), f, nb, a, b)):
        tensors = [Tensor(a) for a in arrays]
        shift, mean = block(features, neighbors, 30, 39, *tensors)
        ((shift * Tensor(weights[0])).sum() + (mean * Tensor(weights[1])).sum()).backward()
        results.append((shift.data, mean.data, [t.grad for t in tensors]))
    (shift, mean, grads), (shift_ref, mean_ref, grads_ref) = results
    np.testing.assert_array_equal(shift, shift_ref)
    np.testing.assert_array_equal(mean, mean_ref)
    for name, grad, ref in zip(EDGE_BLOCK_NAMES, grads, grads_ref):
        np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)


def test_edge_block_zero_length_edge_is_finite(rng):
    # coincident atoms make a zero-length edge: its radial vector is zero,
    # and the gradients stay finite, as those of the taped composition
    arrays, features, neighbors = edge_block_case(rng)
    arrays[0][5] = arrays[0][4]
    neighbors[4, 1] = 5
    neighbors[5, 0] = 5  # a node its own neighbour
    tensors = [Tensor(a) for a in arrays]
    shift, mean = edge_block_of(features, neighbors, 4, 6, *tensors)
    (shift.sum() + mean.sum()).backward()
    assert np.all(np.isfinite(shift.data))
    assert all(np.all(np.isfinite(t.grad)) for t in tensors)
    reference = [Tensor(a) for a in arrays]
    shift_ref, mean_ref = taped_edge_block(dict(zip(EDGE_BLOCK_NAMES, reference)), features,
                                           neighbors, 4, 6)
    (shift_ref.sum() + mean_ref.sum()).backward()
    np.testing.assert_array_equal(shift.data, shift_ref.data)
    for t, ref in zip(tensors, reference):
        np.testing.assert_allclose(t.grad, ref.grad, rtol=0, atol=1e-12 * np.abs(ref.grad).max())


def test_edge_block_same_without_tape(rng):
    # one code path: without the tape the outputs are the same bits and
    # keep no node
    arrays, features, neighbors = edge_block_case(rng)
    taped = edge_block_of(features, neighbors, 2, 9, *map(Tensor, arrays))
    with no_grad():
        untaped = edge_block_of(features, neighbors, 2, 9, *map(Tensor, arrays))
    for out, ref in zip(untaped, taped):
        np.testing.assert_array_equal(out.data, ref.data)
        assert out._parents == ()
    node, = {out._parents[0] for out in taped}
    assert len(node._parents) == len(arrays) + 1  # x is a parent twice


def test_softmax_rows(rng):
    a = rng.normal(size=(4, 5)) * 3.0
    w = rng.normal(size=(4, 5))
    weights = Tensor(w)
    check_op(lambda x: (softmax_rows(x) * weights).sum(), [a], rel=1e-5)
    rows = softmax_rows(Tensor(a)).data
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_shared_subexpression_accumulates(rng):
    a = rng.normal(size=(3, 3))
    check_op(lambda x: ((x @ x) + x * x).sum(), [a])


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (t * 2).backward()


def test_deterministic_backward(rng):
    a = rng.normal(size=(8, 4))
    idx = rng.integers(0, 8, size=20)

    def run():
        t = Tensor(a)
        out = group_mean(squared(repeat_rows(gather_rows(t, idx), 3)), 4).sum()
        out.backward()
        return t.grad.copy()

    g1, g2 = run(), run()
    np.testing.assert_array_equal(g1, g2)


def test_no_grad_nests_and_restores_on_error():
    a = Tensor(np.ones(3))
    with no_grad():
        with no_grad():
            assert (a * 2)._parents == ()
        assert (a * 2)._parents == ()  # the inner exit keeps the outer mode
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert (a * 2)._parents == ()
    assert (a * 2)._parents[0] is a
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    taped = a * 2
    assert taped._parents[0] is a and taped._backward is not None


def test_backward_consumes_the_tape(rng):
    a = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)))
    hidden = a @ w
    activated = hidden.sigmoid()
    out = (activated * hidden).sum()
    out.backward()
    for node in (hidden, activated, out):
        assert node.grad is None
        assert node._parents == () and node._backward is None
    s = activated.data
    expected = s + hidden.data * s * (1 - s)
    np.testing.assert_allclose(w.grad, a.data.T @ expected, rtol=1e-12)
    np.testing.assert_allclose(a.grad, expected @ w.data.T, rtol=1e-12)


def _two_outputs(x, y, w):
    hidden = affine(x, w, y.sum(axis=0)).sigmoid()
    return (rms_norm_leaky_relu(hidden, y.sum(axis=0), y.mean(axis=0), 0.01),
            gather_rows(hidden * x, [2, 0, 2]))


def test_affine_of_an_array_is_constant(rng):
    a = rng.normal(size=(5, 3))
    w, b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=2))
    out = affine(a, w, b)
    assert out._parents == (w, b)
    (out * out).sum().backward()
    x, w_taped, b_taped = Tensor(a), Tensor(w.data), Tensor(b.data)
    taped = affine(x, w_taped, b_taped)
    (taped * taped).sum().backward()
    np.testing.assert_array_equal(out.data, taped.data)
    np.testing.assert_array_equal(w.grad, w_taped.grad)
    np.testing.assert_array_equal(b.grad, b_taped.grad)


def test_checkpoint_matches_the_unwrapped_function(rng):
    a = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 3))
    weights = [rng.normal(size=(4, 3)), rng.normal(size=(3, 3))]

    def grads(wrap):
        # ``x`` enters twice, as the model's first layer passes ``f_emb``
        x, w_leaf = Tensor(a), Tensor(w)
        first, second = wrap(_two_outputs, (x, x, w_leaf))
        ((first * Tensor(weights[0])).sum() + (second * Tensor(weights[1])).sum()).backward()
        return x.grad, w_leaf.grad

    plain = grads(lambda fn, inputs: fn(*inputs))
    for got, want in zip(grads(checkpoint), plain):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_checkpoint_gradients(rng):
    a = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 4))
    check_op(lambda x, y: squared(checkpoint(lambda s, t: ((s @ t).sigmoid(),), (x, y))[0]).sum(),
             [a, w])
    check_op(lambda x, y: sum((squared(out).sum() for out in checkpoint(
        lambda s, t: (slice_rows(s, 1, 4) @ t, s * 3.0), (x, y))), Tensor(0.0)), [a, w])


def test_checkpoint_backward_tapes_its_rerun_under_no_grad(rng):
    a = rng.normal(size=(4, 3))
    x = Tensor(a)
    (out,) = checkpoint(lambda t: ((t * t).sum(),), (x,))
    with no_grad():
        out.backward()
    np.testing.assert_array_equal(x.grad, 2 * a)


def test_checkpoint_under_no_grad_calls_fn(rng):
    a = Tensor(rng.normal(size=(3, 2)))
    calls = []

    def fn(x):
        calls.append(x)
        return x * 2.0, x.sum()

    with no_grad():
        first, second = checkpoint(fn, (a,))
    assert calls == [a]
    np.testing.assert_array_equal(first.data, a.data * 2.0)
    assert first._parents == () and second._parents == ()


def test_checkpoints_over_rows_add_no_full_size_gradient_each(rng):
    # each checkpoint reads a few rows of one large input, as the model's
    # edge blocks read the coordinates and the per-node message products:
    # its rerun writes those rows straight into the input's gradient, so
    # the backward pass allocates one array of the input's size, not one
    # per checkpoint
    n, d, rows = 40_000, 8, 1_000
    data = rng.normal(size=(n, d))
    weights = rng.normal(size=(rows, d))
    index = rng.integers(n, size=(n // rows, rows))

    def block(t, start):
        return (squared(slice_rows(t, start, start + rows)) + gather_rows(t, index[start // rows]),)

    def loss(wrap, x):
        return sum(((wrap(lambda t, start=start: block(t, start), (x,))[0] * Tensor(weights)).sum()
                    for start in range(0, n, rows)), Tensor(0.0))

    x = Tensor(data)
    out = loss(checkpoint, x)
    peak = traced_peak(out.backward)
    assert peak < 1.5 * data.nbytes
    plain = Tensor(data)
    loss(lambda fn, inputs: fn(*inputs), plain).backward()
    np.testing.assert_allclose(x.grad, plain.grad, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("rows", [
    lambda t: slice_rows(t, 1, 3),
    lambda t: gather_rows(t, [3, 1, 1, 0]),
    lambda t: checkpoint(lambda s: (gather_rows(s, [3, 1, 1, 0]),), (t,))[0],
], ids=["slice_rows", "gather_rows", "checkpoint"])
@pytest.mark.parametrize("shared_by", ["add", "concat"])
@pytest.mark.parametrize("row_term_first", [True, False])
def test_row_contribution_never_writes_a_shared_gradient(rng, rows, shared_by,
                                                         row_term_first):
    # ``a``'s gradient comes from ``__add__`` or ``concat``, and a row
    # contribution is added into it in place: had either op handed ``a`` a
    # buffer it also handed to ``b`` or ``d``, the write would change theirs.
    # A checkpoint's rerun writes its rows into ``a``'s gradient from a walk
    # of its own
    a0, b0, d0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(8, 3))
    w = Tensor(rng.normal(size=(4, 3) if shared_by == "add" else (8, 3)))

    def loss(a, b, *d):
        joined = a + b if shared_by == "add" else concat([a, b], axis=0) + d[0]
        shared = (joined * w).sum()
        row_term = squared(rows(a)).sum()
        return row_term + shared if row_term_first else shared + row_term

    arrays = [a0, b0] if shared_by == "add" else [a0, b0, d0]
    leaves = [Tensor(value) for value in arrays]
    loss(*leaves).backward()
    if shared_by == "add":
        np.testing.assert_array_equal(leaves[1].grad, w.data)
    else:
        np.testing.assert_array_equal(leaves[1].grad, w.data[4:])
        np.testing.assert_array_equal(leaves[2].grad, w.data)
    check_op(loss, arrays)


def test_summed_leaves_get_their_own_gradient_buffers(rng):
    # ``clip_gradients`` scales each gradient in place: one buffer held by
    # both leaves would be scaled twice
    a, b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 2)))
    w = rng.normal(size=(3, 2))
    ((a + b) * Tensor(w)).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    grads = {"a": a.grad, "b": b.grad}
    norm = clip_gradients(grads, 1.0)
    np.testing.assert_allclose(norm, np.sqrt(2.0) * np.linalg.norm(w), rtol=1e-12)
    for grad in grads.values():
        np.testing.assert_allclose(grad, w / norm, rtol=1e-12)


def _two_parent_ops():
    rng = np.random.default_rng(11)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape))

    x, y = leaf(4, 3), leaf(4, 3)
    return {
        "add": x + y,
        "add_itself": x + x,
        "add_broadcast": x + leaf(3),
        "add_to_broadcast": leaf(1, 3) + x,
        "sub": x - y,
        "mul": x * y,
        "div": x / (y * y + 1.0),
        "matmul": x @ leaf(3, 2),
        "affine": affine(x, leaf(3, 2), leaf(2)),
        "affine_constant": affine(x.data, leaf(3, 2), leaf(2)),
        "concat_columns": concat([x, y, leaf(4, 1)], axis=1),
        "concat_rows": concat([x, y], axis=0),
        "edge_affine": edge_affine(rng.normal(size=(4, 2)), leaf(4, 1), leaf(3, 5),
                                   leaf(2, 5), leaf(3, 5), [0, 2, 2, 1]),
        "layer_norm_leaky_relu": rms_norm_leaky_relu(x, leaf(3), leaf(3), 0.01),
        "edge_block": edge_block(rng.normal(size=(4, 2)), leaf(4, 3), leaf(4, 5), leaf(4, 5),
                                 np.array([[0, 2], [3, 3]]), 1, (leaf(3, 5), leaf(5), leaf(5)),
                                 (leaf(5, 5), leaf(5), leaf(5), leaf(5), leaf(5, 1), leaf(1)),
                                 0.01, 1.0)[0]._parents[0],
    }


def _buffer(array):
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("op", list(_two_parent_ops()))
def test_no_backward_hands_one_buffer_to_two_parents(op):
    # a parent adopts its first dense gradient and adds later ones into it
    # in place, so two parents must never hold memory in common; nor views
    # of one buffer, which would keep all of it alive while either lives
    out = _two_parent_ops()[op]
    contributions = out._backward(np.ones_like(out.data))
    arrays = [c[1] if isinstance(c, tuple) else c for c in contributions if c is not None]
    assert len(arrays) == len(out._parents) >= 2
    for i, first in enumerate(arrays):
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)
            assert _buffer(first) is not _buffer(second)
