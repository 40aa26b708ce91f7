"""Gradient-core tests: every primitive against central finite
differences, DAG accumulation semantics, which nodes get a gradient,
shape policing, determinism."""

import numpy as np
import pytest

from swarmflow import autodiff as ad

EPS = 1e-5
RTOL = 1e-4


def fd_gradient(f, x, eps=EPS):
    """Central finite differences of scalar f at array x, elementwise."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def assert_close_grad(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = (err > RTOL * scale) & (err > 1e-8)
    assert not np.any(bad), (
        f"gradient mismatch: analytic {analytic[bad]}, numeric {numeric[bad]}")


def check_op(build, *shapes, seed):
    """FD-check d(weighted sum of op output)/d(each input)."""
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(-2.0, 2.0, s) for s in shapes]
    probe = build(*[ad.wrap(x) for x in inputs])
    weights = rng.standard_normal(probe.shape)

    def scalar(args):
        out = build(*[ad.wrap(a) for a in args])
        return float(ad.reduce_sum(ad.mul(out, weights)).value)

    nodes = [ad.Node(x.copy()) for x in inputs]  # leaves that want a grad
    loss = ad.reduce_sum(ad.mul(build(*nodes), weights))
    ad.backward(loss)
    for k, node in enumerate(nodes):
        assert node.grad is not None and node.grad.shape == node.shape
        def f(x, k=k):
            args = [a.copy() for a in inputs]
            args[k] = x
            return scalar(args)
        assert_close_grad(node.grad, fd_gradient(f, inputs[k]))


def test_elementwise_binary_gradients():
    for seed, op in enumerate([ad.add, ad.sub, ad.mul]):
        check_op(op, (4, 3), (4, 3), seed=seed)
        check_op(op, (4, 3), (3,), seed=10 + seed)   # leading broadcast
        check_op(op, (), (4, 3), seed=20 + seed)     # scalar operand
        check_op(op, (2, 4, 3), (4, 3), seed=30 + seed)


def test_matmul_gradients():
    check_op(ad.matmul, (4, 5), (5, 3), seed=1)
    check_op(ad.matmul, (5,), (5, 3), seed=2)   # vector @ matrix


def test_dense_gradients():
    check_op(lambda x, w, b: ad.dense(x, w, b), (4, 5), (5, 3), (3,), seed=3)
    check_op(lambda x, w, b: ad.dense(x, w, b, act=True),
             (5,), (5, 3), (3,), seed=4)
    check_op(lambda x, w, b, i: ad.dense(x, w, b, i, act=True),
             (4, 5), (5, 3), (3,), (3,), seed=5)
    check_op(lambda x, w, b, i: ad.dense(x, w, b, i),
             (4, 5), (5, 3), (4, 3), (3,), seed=6)   # per-row bias


def test_dense_max_gradients():
    check_op(ad.dense_max, (6, 5), (5, 3), (3,), seed=66)
    check_op(ad.dense_max, (1, 4), (4, 2), (2,), seed=67)  # one row


def test_unary_gradients():
    for seed, op in enumerate([ad.sigmoid, ad.tanh, ad.exp, ad.neg]):
        check_op(op, (6, 2), seed=40 + seed)


def test_reduction_gradients():
    check_op(ad.reduce_sum, (4, 3), seed=60)
    check_op(ad.reduce_sum, (5,), seed=61)


def test_shape_op_gradients():
    check_op(lambda a, b: ad.concat([a, b]), (3, 2), (4, 2), seed=70)
    check_op(lambda a, b, c: ad.concat([a, b, c]), (3,), (1,), (2,), seed=71)


def test_sum_of_squares_gradient_exact():
    x = ad.Node(np.array([1.0, 2.0, 3.0]))
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    assert np.array_equal(x.grad, np.array([2.0, 4.0, 6.0]))


def test_shared_subexpression_accumulates():
    # y = x*x used twice: d/dx sum(y + y) = 4x
    x = ad.Node(np.array([1.5, -2.0, 0.5]))
    y = ad.mul(x, x)
    ad.backward(ad.reduce_sum(y + y))
    assert np.allclose(x.grad, 4.0 * x.value, rtol=0, atol=0)


def test_diamond_dag_accumulates():
    # z = x + x, w = z * z: dw/dx = 8x
    x = ad.Node(np.array(3.0))
    z = x + x
    ad.backward(ad.mul(z, z))
    assert x.grad == pytest.approx(24.0, abs=0)


def test_grads_accumulate_across_backward_calls():
    x = ad.Node(np.array([1.0, 2.0]))
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    first = x.grad.copy()
    ad.backward(ad.reduce_sum(ad.mul(x, 3.0)))
    assert np.array_equal(x.grad, first + 3.0)


def test_leaf_accumulation_never_writes_into_another_nodes_gradient():
    # add hands its one gradient array to both parents, so a's two
    # contributions are b.grad itself: the first is copied, the second
    # added into that copy
    a = ad.Node(np.array([1.0, -2.0, 3.0]))
    w = np.array([0.5, 4.0, -1.5])
    b = a + a
    ad.backward(ad.reduce_sum(ad.mul(b, w)))
    assert np.array_equal(b.grad, w)
    assert np.array_equal(a.grad, 2.0 * b.grad)
    assert not np.shares_memory(a.grad, b.grad)
    # a gradient set by the caller is added into in place
    buffer = np.ones(3)
    a.grad = buffer
    ad.backward(ad.reduce_sum(ad.mul(a + a, w)))
    assert a.grad is buffer and np.array_equal(buffer, 1.0 + 2.0 * w)


def test_non_scalar_loss_raises():
    x = ad.wrap(np.ones((3,)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.backward(ad.mul(x, 2.0))


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(ad.wrap(np.ones(3)), ad.wrap(np.ones(4)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.mul(ad.wrap(np.ones((2, 3))), ad.wrap(np.ones((3, 2))))
    # numpy would broadcast a middle size-1 dim; this tape must not
    with pytest.raises(ad.ShapeMismatchError):
        ad.add(ad.wrap(np.ones((2, 1, 3))), ad.wrap(np.ones((2, 4, 3))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.wrap(np.ones((2, 3))), ad.wrap(np.ones((2, 3))))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.wrap(np.ones((2, 2, 2))), ad.wrap(np.ones((2, 2))))
    # matrix @ vector and vector @ vector are no network's form
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.wrap(np.ones((2, 3))), ad.wrap(np.ones(3)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(ad.wrap(np.ones(3)), ad.wrap(np.ones(3)))


def test_dense_shape_mismatch_raises():
    x, w, b = np.ones((4, 5)), np.ones((5, 3)), np.ones(3)
    bad_calls = [
        (np.ones((2, 4, 5)), w, b, None),    # x must be 1-D or 2-D
        (x, np.ones(5), b, None),            # w must be 2-D
        (x, np.ones((4, 3)), b, None),       # inner dimensions
        (x, w, np.ones(4), None),            # bias not a suffix
        (np.ones(5), w, np.ones((4, 3)), None),  # bias wider than output
        (x, w, b, np.ones(2)),               # inject not a suffix
        (x, w, b, np.ones((1, 3))),          # no middle/size-1 broadcast
    ]
    for args in bad_calls:
        with pytest.raises(ad.ShapeMismatchError, match="^dense: "):
            ad.dense(*args[:3], inject=args[3])


def test_max_ties_route_to_lowest_index():
    # the pooled layer's maxima over rows 1 and 2 tie; row 1 takes them
    x = ad.Node(np.array([[1.0], [3.0], [3.0]]))
    w = ad.Node(np.array([[1.0, 2.0]]))
    b = ad.Node(np.zeros(2))
    ad.backward(ad.reduce_sum(ad.dense_max(x, w, b)))
    top = np.tanh(np.array([[1.0, 2.0], [3.0, 6.0], [3.0, 6.0]]))[1]
    d = 1.0 - top * top  # the tanh derivative at each pooled maximum
    assert np.array_equal(x.grad, np.array([[0.0], [d[0] + 2.0 * d[1]],
                                            [0.0]]))
    assert np.array_equal(w.grad, 3.0 * d[None, :])


def test_broadcast_backward_shapes():
    a = ad.Node(np.ones((5, 4)))
    b = ad.Node(np.ones(4))
    c = ad.Node(np.array(2.0))
    ad.backward(ad.reduce_sum(ad.mul(ad.add(a, b), c)))
    assert a.grad.shape == (5, 4)
    assert b.grad.shape == (4,)
    assert np.array_equal(b.grad, np.full(4, 10.0))  # summed over rows
    assert c.grad.shape == ()
    assert c.grad == pytest.approx(40.0, abs=0)


def test_deterministic_bitwise_repeat():
    def run():
        rng = np.random.default_rng(99)
        x = ad.Node(rng.standard_normal((8, 5)))
        w = ad.Node(rng.standard_normal((5, 4)))
        h = ad.tanh(ad.matmul(x, w))
        loss = ad.reduce_sum(ad.mul(h, h))
        ad.backward(loss)
        return loss.value.copy(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# no-record mode

def test_no_record_nodes_keep_no_tape():
    x = ad.Node(np.arange(6.0).reshape(2, 3))
    w = ad.Node(np.ones((3, 2)))
    recorded = ad.tanh(ad.matmul(x, w))
    with ad.no_record():
        free = ad.tanh(ad.matmul(x, w))
        loss = ad.reduce_sum(ad.concat([free, ad.neg(free)]))
    assert np.array_equal(free.value, recorded.value)
    assert recorded._parents and recorded._vjps
    assert free._parents == () and free._vjps == ()
    assert loss._parents == () and loss._vjps == ()
    assert recorded.needs_grad and not free.needs_grad
    ad.backward(loss)  # nothing to walk: only the loss itself gets a grad
    assert loss.grad == 1.0 and x.grad is None and w.grad is None


def test_no_record_restores_the_mode_after_errors_and_nesting():
    def records():
        a = ad.Node(1.0)
        return bool((a + a)._parents)

    assert records()
    with ad.no_record():
        with ad.no_record():
            assert not records()
        assert not records()  # the inner block restores "off", not "on"
    assert records()
    with pytest.raises(ad.ShapeMismatchError):
        with ad.no_record():
            ad.add(np.zeros(2), np.zeros(3))
    assert records()
    with pytest.raises(RuntimeError):
        with ad.no_record():
            with ad.no_record():
                raise RuntimeError("inner")
    assert records()


# ---------------------------------------------------------------------------
# the fused layer against the chain it replaces

def _chain(x, w, b, inject=None, act=False):
    h = ad.matmul(x, w)
    if inject is not None:
        h = h + inject
    h = h + b
    return ad.tanh(h) if act else h


def _layer_run(layer, x_shape, inject, act, seed):
    """Outputs, loss and every leaf's gradient, through ``layer``, of a
    loss in which ``x`` feeds two layers and a product and ``ctx`` feeds
    both layers' inject terms, so both sum several contributions."""
    rng = np.random.default_rng(seed)
    n, h = x_shape[-1], 7
    x = ad.Node(rng.standard_normal(x_shape))
    ws = [ad.Node(rng.standard_normal((n, h))) for _ in range(2)]
    bs = [ad.Node(rng.standard_normal(h)) for _ in range(2)]
    ctx = ad.Node(rng.standard_normal(5))
    gate = ad.Node(rng.standard_normal((5, h)))
    outs = []
    for w, b in zip(ws, bs):
        extra = ad.matmul(ctx, gate) if inject else None
        outs.append(layer(x, w, b, extra, act))
    probe = rng.standard_normal(outs[0].shape)
    loss = (ad.reduce_sum(ad.mul(ad.mul(outs[0], outs[1]), probe))
            + ad.reduce_sum(ad.mul(outs[1], outs[1]))
            + ad.reduce_sum(ad.mul(x, 0.25)))
    ad.backward(loss)
    leaves = [x, *ws, *bs] + ([ctx, gate] if inject else [])
    return [o.value for o in outs] + [loss.value] + [n.grad for n in leaves]


@pytest.mark.parametrize("x_shape", [(6,), (9, 6)])
@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("act", [False, True])
def test_dense_is_bitwise_the_unfused_chain(x_shape, inject, act):
    fused = _layer_run(ad.dense, x_shape, inject, act, seed=80)
    chain = _layer_run(_chain, x_shape, inject, act, seed=80)
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_dense_is_one_node():
    rng = np.random.default_rng(81)
    x, w, b, i = (ad.Node(rng.standard_normal(s))
                  for s in [(4, 3), (3, 2), (2,), (2,)])
    out = ad.dense(x, w, b, i, act=True)
    assert out.op == "dense"
    assert out._parents == (x, w, i, b)
    assert ad.dense(x, w, b)._parents == (x, w, b)


def test_dense_under_no_record_keeps_no_parents():
    rng = np.random.default_rng(82)
    x, w, b, i = (ad.Node(rng.standard_normal(s))
                  for s in [(4, 3), (3, 2), (2,), (2,)])
    recorded = ad.dense(x, w, b, i, act=True)
    with ad.no_record():
        free = ad.dense(x, w, b, i, act=True)
    assert np.array_equal(free.value, recorded.value)
    assert free._parents == () and free._vjps == ()
    ad.backward(ad.reduce_sum(free))
    assert all(n.grad is None for n in (x, w, b, i))


# ---------------------------------------------------------------------------
# which nodes get a gradient

def test_only_nodes_that_need_a_gradient_get_one():
    c = ad.wrap(np.array([1.0, -2.0]))           # constant leaf
    x = ad.Node(np.array([0.5, 3.0]))            # gradient leaf
    cc = ad.mul(c, c)                            # built from constants only
    y = ad.mul(x, cc)
    assert not c.needs_grad and not cc.needs_grad
    assert x.needs_grad and y.needs_grad
    assert cc._parents == () and cc._vjps == ()  # no tape behind constants
    assert y._parents == (x, cc)
    loss = ad.reduce_sum(y)
    ad.backward(loss)
    assert np.array_equal(x.grad, cc.value)
    assert c.grad is None and cc.grad is None
    assert loss.grad == 1.0 and np.array_equal(y.grad, np.ones(2))


def test_dense_with_a_constant_input_gives_the_same_weight_gradients():
    rng = np.random.default_rng(83)
    xv, wv, bv, iv = (rng.standard_normal(s)
                      for s in [(6, 4), (4, 3), (3,), (3,)])

    def run(x):
        w, b, i = ad.Node(wv), ad.Node(bv), ad.Node(iv)
        out = ad.dense(x, w, b, i, act=True)
        ad.backward(ad.reduce_sum(ad.mul(out, out)))
        return [w.grad, b.grad, i.grad]

    const = ad.wrap(xv)
    for a, b in zip(run(const), run(ad.Node(xv))):
        assert a.tobytes() == b.tobytes()
    assert const.grad is None


def _maxpool(a):
    """The max-pool over rows as its own node, ties to the first row."""
    idx = np.argmax(a.value, axis=0)
    cols = np.arange(a.shape[1])

    def vjp(g):
        z = np.zeros(a.shape)
        z[idx, cols] = g
        return z

    return ad.Node(a.value[idx, cols], (a,), (vjp,), "maxpool")


def test_dense_max_is_bitwise_dense_then_a_max_pool():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    # few distinct values make tied maxima common; +-30 saturates tanh,
    # and zero upstream gradients give zero products of either sign
    values = st.sampled_from([-30.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 30.0])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 5),
                      st.data())
    def check(m, n, h, data):
        xv = data.draw(hnp.arrays(np.float64, (m, n), elements=values))
        wv = data.draw(hnp.arrays(np.float64, (n, h), elements=values))
        bv = data.draw(hnp.arrays(np.float64, (h,), elements=values))
        probe = data.draw(hnp.arrays(np.float64, (h,), elements=values))

        def run(layer):
            x, w, b = ad.Node(xv), ad.Node(wv), ad.Node(bv)
            out = layer(x, w, b)
            ad.backward(ad.reduce_sum(ad.mul(out, probe)))
            return [out.value, x.grad, w.grad, b.grad]

        fused = run(ad.dense_max)
        chain = run(lambda x, w, b: _maxpool(ad.dense(x, w, b, act=True)))
        for a, b in zip(fused, chain):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    check()


def _zero_filled_input_grad(gv, idx, w, m):
    """The input gradient as ``dense`` forms it: the zero-filled unpooled
    gradient times ``w.T``."""
    gp = np.zeros((m, len(idx)))
    gp[idx, np.arange(len(idx))] = gv
    return gp @ w.T


def _argmax_rows(kind, rng, m=512, h=256):
    """The argmax row of each of ``h`` columns, in patterns where rows
    win 0, 1 or many columns."""
    if kind == "uniform":  # ~46 rows win several columns
        return rng.integers(0, m, h)
    if kind == "distinct":  # every winning row wins one column
        return rng.permutation(m)[:h]
    if kind == "one-row":
        return np.full(h, rng.integers(m))
    # few rows win several columns each and the rest one column each: a
    # product over those rows alone would be small enough for BLAS to take
    # another kernel than the full product's
    few = int(kind.split("-")[1])
    idx = rng.permutation(m)[:h]
    idx[:4 * few] = np.repeat(idx[:few], 4)
    return rng.permutation(idx)


@pytest.mark.parametrize("kind", ["uniform", "distinct", "one-row", "few-1",
                                  "few-2", "few-5", "few-9", "few-12"])
def test_pooled_input_grad_is_bitwise_the_zero_filled_product(kind):
    # fixture-size layers, (512, 128) @ (128, 256), reach BLAS's blocked
    # kernels, which the small shapes of the test above never do
    rng = np.random.default_rng(sum(map(ord, kind)))
    w = rng.standard_normal((128, 256))
    w[:, :8] = 0.0  # zero products of either sign
    w[:3, 8:16] = -0.0
    for _ in range(5):
        idx = _argmax_rows(kind, rng)
        gv = rng.standard_normal(256)
        gv[::17] = -0.0  # a saturated tanh passes on a zero gradient
        gv[1::29] = 0.0
        got = ad._pooled_input_grad(gv, idx, w, 512)
        want = _zero_filled_input_grad(gv, idx, w, 512)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, saturated", [(512, False), (512, True),
                                          (1, False), (1, True)])
def test_dense_max_at_fixture_size_is_bitwise_dense_then_a_max_pool(
        m, saturated):
    # repeated input rows tie their maxima; large weights saturate tanh,
    # small ones keep it near its linear range
    rng = np.random.default_rng(m + saturated)
    xv = rng.standard_normal((m, 128))
    if m > 1:
        xv[m // 2:] = xv[rng.integers(0, m // 2, m - m // 2)]
    wv = rng.standard_normal((128, 256)) * (8.0 if saturated else 0.1)
    bv = rng.standard_normal(256)
    probe = rng.standard_normal(256)

    def run(layer):
        x, w, b = ad.Node(xv), ad.Node(wv), ad.Node(bv)
        out = layer(x, w, b)
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        return [out.value, x.grad, w.grad, b.grad]

    fused = run(ad.dense_max)
    chain = run(lambda x, w, b: _maxpool(ad.dense(x, w, b, act=True)))
    for a, b in zip(fused, chain):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_dense_max_shape_mismatch_raises():
    x, w, b = np.ones((4, 5)), np.ones((5, 3)), np.ones(3)
    for args in [(np.ones(5), w, b), (x, np.ones((4, 3)), b),
                 (x, w, np.ones((4, 3))), (x, w, np.ones(2))]:
        with pytest.raises(ad.ShapeMismatchError, match="^dense_max: "):
            ad.dense_max(*args)
