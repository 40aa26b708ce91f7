"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Node`` wraps a numpy array together with its gradient slot and the
local backward rules that produced it.  Every forward call appends to an
implicit tape (the DAG of ``Node`` objects); ``backward`` walks that tape
once in reverse topological order and *accumulates* vector-Jacobian
products into ``.grad``, so shared subexpressions receive the sum of all
downstream contributions.

Only nodes that need a gradient get one.  Each node's ``needs_grad`` is
fixed when it is built: a parameter or a ``Node(x)`` leaf needs one, a
``wrap()`` constant does not, and an op node needs one if any of its
parents does.  A node that needs none keeps no parents or backward
rules, and ``backward`` neither walks nor feeds it, so no VJP into a
constant (an input cloud, a mask) is ever computed.  Constants and the
nodes built from constants alone are closed under parents, so leaving
them out keeps the order in which every other node is visited, and
every gradient's bits.

Broadcasting is deliberately restricted: for elementwise binary ops one
operand's shape must be a suffix of the other's (leading batch dimensions
only).  Anything fancier is a shape error, not a silent numpy broadcast.

``dense`` is a whole network layer, ``x @ w (+ inject) + b`` with an
optional ``tanh``, as one node with one hand-written backward rule.  It
runs the arithmetic of the unfused ``matmul``/``add``/``tanh`` chain in
the same order, so its value and gradients are bitwise equal to that
chain's.  It is one node where the chain has up to four, and its forward
pass works in place on its one output array.

``dense_max`` is an encoder's last layer and its max-pool over the
points as one node.  Its pooled gradient reaches one row per column, so
it forms the weight, bias and input gradients from those rows alone,
with the bits of the full products over the zero-filled gradient.

Inside ``with no_record():`` the same ops run on the same arrays, so
values are bitwise equal, but no new node needs a gradient, so none
keeps parents or backward rules: each intermediate is freed as soon as
the caller drops it, and ``backward`` sees nothing to walk.  Sampling
evaluates the networks this way; training never does.  The flag is
process-global, not per thread: the worker threads of a sampling step
(``sampling._split_field``) build their nodes while the calling thread
holds it off, and so read it as off.

All arithmetic is float64, so results are bitwise reproducible for a
fixed sequence of operations.  A sampling step splits the field
network's rows across threads, but each row's arithmetic is the same for
every chunk count.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import expit

__all__ = [
    "Node", "ShapeMismatchError", "wrap", "backward", "no_record",
    "add", "sub", "mul", "neg", "matmul", "dense", "sigmoid", "tanh",
    "exp", "reduce_sum", "dense_max", "concat",
]


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform under leading-dim-only broadcasting."""


_recording = True


@contextmanager
def no_record():
    """Build nodes that need no gradient, so keep no parents or backward
    rules, until the block exits; the previous mode comes back on exit,
    also after an exception and when blocks nest."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Node:
    """One tape entry: a float64 array plus backward bookkeeping.

    ``vjps`` is either one function per parent, each mapping the node's
    gradient to that parent's contribution, or a single function that
    returns every parent's contribution at once, in parent order (for a
    fused node whose parents share intermediate terms).

    ``needs_grad`` says whether ``backward`` gives the node a gradient
    (see the module docstring); a node that needs none drops its parents
    and ``vjps``.

    Treat ``value`` as immutable once the node exists; downstream nodes
    capture it by reference.  (The optimizer writes parameter values in
    place, but only once ``backward`` is done with the tape.)  An op
    node's ``grad`` is read-only: it may share its array with another
    node's, since ``backward`` stores a first contribution as is and adds
    later ones out of place.  A parentless node owns its ``grad``, a copy
    of its first contribution or a view of a caller's buffer, and
    ``backward`` adds into it in place.
    """

    __slots__ = ("value", "grad", "op", "needs_grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=(), op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.op = op
        parents = tuple(parents)
        self.needs_grad = _recording and (
            any(p.needs_grad for p in parents) if parents else op != "const")
        if self.needs_grad and parents:
            self._parents = parents
            self._vjps = vjps if callable(vjps) else tuple(vjps)
        else:
            self._parents = self._vjps = ()

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    # Operator sugar; mixed operands are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def wrap(x) -> Node:
    """Return ``x`` unchanged if it is a Node, else a constant leaf."""
    if isinstance(x, Node):
        return x
    return Node(x, op="const")


def _check_suffix(sa, sb, op):
    """Shapes conform iff one is a suffix of the other (leading dims only)."""
    k = min(len(sa), len(sb))
    if k and sa[len(sa) - k:] != sb[len(sb) - k:]:
        raise ShapeMismatchError(
            f"{op}: shapes {sa} and {sb} do not conform "
            f"(broadcasting allowed over leading dimensions only)")


def _unbroadcast(g, shape):
    """Sum ``g`` down over the leading dims that were broadcast."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# elementwise binary ops

def add(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    _check_suffix(a.shape, b.shape, "add")
    return Node(a.value + b.value, (a, b),
                (lambda g: _unbroadcast(g, a.shape),
                 lambda g: _unbroadcast(g, b.shape)), "add")


def sub(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    _check_suffix(a.shape, b.shape, "sub")
    return Node(a.value - b.value, (a, b),
                (lambda g: _unbroadcast(g, a.shape),
                 lambda g: _unbroadcast(-g, b.shape)), "sub")


def mul(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    _check_suffix(a.shape, b.shape, "mul")
    return Node(a.value * b.value, (a, b),
                (lambda g: _unbroadcast(g * b.value, a.shape),
                 lambda g: _unbroadcast(g * a.value, b.shape)), "mul")


def neg(a) -> Node:
    a = wrap(a)
    return Node(-a.value, (a,), (lambda g: -g,), "neg")


# ---------------------------------------------------------------------------
# matrix product: a matrix or a vector times a matrix, (M, n) @ (n, h) or
# (n,) @ (n, h), the only forms the networks use

def _check_matmul(sa, sb, op):
    if len(sa) not in (1, 2) or len(sb) != 2:
        raise ShapeMismatchError(
            f"{op}: expected a 1-D/2-D operand times a 2-D one, got "
            f"{sa} @ {sb}")
    if sa[-1] != sb[0]:
        raise ShapeMismatchError(
            f"{op}: inner dimensions disagree, {sa} @ {sb}")


def matmul(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    av, bv = a.value, b.value
    _check_matmul(av.shape, bv.shape, "matmul")
    if av.ndim == 1:
        vjps = (lambda g: bv @ g, lambda g: np.outer(av, g))
    else:
        vjps = (lambda g: g @ bv.T, lambda g: av.T @ g)
    return Node(av @ bv, (a, b), vjps, "matmul")


def dense(x, w, b, inject=None, act=False) -> Node:
    """One layer as one node: ``x @ w (+ inject) + b``, then ``tanh`` if
    ``act``.

    ``x @ w`` takes the forms of ``matmul``; ``b`` and ``inject`` must
    have a suffix of the output's shape.  The forward pass adds ``inject``
    and then ``b`` in place on the product, and the backward pass forms
    ``g * (1 - tanh**2)`` and its sums over the batch rows once for all
    parents, so value and gradients are bitwise those of
    ``tanh(matmul(x, w) + inject + b)``.  The parents are ``(x, w,
    inject, b)``: ``backward`` then walks the tape in the chain's order,
    and contributions to shared nodes are summed in the same order.  A
    constant ``x`` (an input cloud) costs no ``g @ w.T`` product.
    """
    x, w, b = wrap(x), wrap(w), wrap(b)
    xv, wv = x.value, w.value
    _check_matmul(xv.shape, wv.shape, "dense")
    out = xv @ wv
    inject = None if inject is None else wrap(inject)
    addends = (b,) if inject is None else (inject, b)
    for a in addends:
        if a.shape != out.shape[out.ndim - a.ndim:]:
            raise ShapeMismatchError(
                f"dense: addend shape {a.shape} is not a suffix of the "
                f"output shape {out.shape}")
        out += a.value
    if act:
        np.tanh(out, out=out)

    def vjp(g):
        if act:  # gp = g * (1 - out * out), in one buffer
            gp = np.multiply(out, out)
            np.subtract(1.0, gp, out=gp)
            gp *= g
        else:
            gp = g
        if xv.ndim == 1:
            grads = [wv @ gp if x.needs_grad else None, np.outer(xv, gp)]
        else:
            grads = [gp @ wv.T if x.needs_grad else None, xv.T @ gp]
        gb = _unbroadcast(gp, b.shape)
        if inject is not None:
            grads.append(gb if inject.shape == b.shape
                         else _unbroadcast(gp, inject.shape))
        grads.append(gb)
        return grads

    return Node(out, (x, w) + addends, vjp, "dense")


# Fewest output entries of the product ``_pooled_input_grad`` runs.
# OpenBLAS 0.3.31 (Haswell kernels) rounds a product of up to about 1200
# entries (fewer for a long inner dimension) through another kernel than
# the blocked one a full layer's product takes, so its rows differ in the
# last bit; zero rows pad the product past that.
_MIN_ENTRIES = 2048


def _pooled_input_grad(gv, idx, w, m):
    """``gp @ w.T`` for the ``(m, h)`` gradient ``gp`` that holds
    ``gv[j]`` at ``(idx[j], j)`` and zeros elsewhere, bit for bit, for a
    ``(n, h)`` ``w``, without the full product.

    A row of ``gp`` that holds no non-zero gives +0.  A row that holds
    one, ``gv[j]``, gives ``gv[j] * w[:, j] + 0.0``: one product among
    exact zeros, with the sign a sum of zeros has.  The rows that hold
    several keep their BLAS product, run on those rows alone, padded with
    zero rows to ``_MIN_ENTRIES`` outputs (or to all ``m`` rows): a row of
    a product takes the same operations whatever other rows are in it,
    as long as the product runs on the same kernel.
    """
    wins = np.bincount(idx, minlength=m)
    gx = np.zeros((m, w.shape[0]))
    one = wins[idx] == 1
    single = gv[one, None] * w.T[one]
    single += 0.0
    gx[idx[one]] = single
    many = np.flatnonzero(~one)
    if many.size:
        rows = np.flatnonzero(wins > 1)
        size = max(rows.size, min(m, -(-_MIN_ENTRIES // w.shape[0])))
        gp = np.zeros((size, len(idx)))
        gp[np.searchsorted(rows, idx[many]), many] = gv[many]
        gx[rows] = (gp @ w.T)[:rows.size]
    return gx


def dense_max(x, w, b, act=False) -> Node:
    """A layer and a max-pool over its rows as one node: the column
    maxima of ``dense(x, w, b, act=act)`` for an ``(M, n)`` ``x`` and an
    ``(h,)`` ``b``.  Ties take the first row, as ``np.argmax`` does.

    The forward pass runs ``dense``'s operations and then picks the
    maxima, so the value is bitwise that of ``dense`` followed by a
    max-pool.  The upstream gradient ``gp`` of the unpooled layer has
    one non-zero entry per column, in the argmax row, so each column of
    ``x.T @ gp`` and of ``gp``'s row sum is one product plus exact
    zeros: the weight and bias gradients are formed from the argmax rows
    alone, ``x[idx].T * gv`` and ``gv``, with the same bits (``+ 0.0``
    gives a zero the sign a sum of zeros has).  The input gradient
    ``gp @ w.T`` is built from the argmax rows too, see
    ``_pooled_input_grad``.
    """
    x, w, b = wrap(x), wrap(w), wrap(b)
    xv, wv = x.value, w.value
    _check_matmul(xv.shape, wv.shape, "dense_max")
    if xv.ndim != 2 or b.shape != wv.shape[1:]:
        raise ShapeMismatchError(
            f"dense_max: expected (M, n) @ (n, h) + (h,), got "
            f"{xv.shape} @ {wv.shape} + {b.shape}")
    out = xv @ wv
    out += b.value
    if act:
        np.tanh(out, out=out)
    shape = out.shape
    idx = np.argmax(out, axis=0)
    cols = np.arange(shape[1])
    pooled = out[idx, cols]

    def vjp(g):
        gv = g * (1.0 - pooled * pooled) if act else g
        gx = None
        if x.needs_grad:
            gx = _pooled_input_grad(gv, idx, wv, shape[0])
        gw = xv[idx].T * gv
        gw += 0.0
        return [gx, gw, gv + 0.0]

    return Node(pooled, (x, w, b), vjp, "dense_max")


# ---------------------------------------------------------------------------
# elementwise unary ops

def sigmoid(a) -> Node:
    a = wrap(a)
    s = expit(a.value)  # numerically stable on both tails
    return Node(s, (a,), (lambda g: g * s * (1.0 - s),), "sigmoid")


def tanh(a) -> Node:
    a = wrap(a)
    t = np.tanh(a.value)
    return Node(t, (a,), (lambda g: g * (1.0 - t * t),), "tanh")


def exp(a) -> Node:
    a = wrap(a)
    e = np.exp(a.value)
    return Node(e, (a,), (lambda g: g * e,), "exp")


# ---------------------------------------------------------------------------
# reductions

def reduce_sum(a, axis=None) -> Node:
    a = wrap(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), a.shape).copy()

    return Node(a.value.sum(axis=axis), (a,), (vjp,), "sum")


# ---------------------------------------------------------------------------
# shape ops

def concat(nodes, axis=0) -> Node:
    nodes = [wrap(n) for n in nodes]
    if not nodes:
        raise ValueError("concat: need at least one operand")
    sizes = [n.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * nodes[i].ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    value = np.concatenate([n.value for n in nodes], axis=axis)
    return Node(value, tuple(nodes),
                tuple(make_vjp(i) for i in range(len(nodes))), "concat")


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` for every tape ancestor
    of ``loss`` that needs a gradient, and for ``loss`` itself.

    Parameters, ``Node(x)`` leaves and the nodes built from them get a
    gradient; constants and nodes built under ``no_record`` never do, nor
    is any VJP into them computed.  ``loss`` must be scalar (shape
    ``()``).  Existing ``.grad`` arrays are added to, torch-style;
    callers zero parameter grads between steps.
    """
    if loss.value.shape != ():
        raise ShapeMismatchError(
            f"backward requires a scalar loss, got shape {loss.value.shape}")

    # Iterative post-order DFS over the nodes that need a gradient:
    # parents are appended before consumers, so the reversed list visits
    # every consumer before the node it feeds.  A parentless node (a
    # parameter, a ``Node(x)`` leaf) feeds nothing, so it is left off
    # the list: it still gets its contributions, in the same order, and
    # every other node keeps its place.
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._parents and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.float64(1.0) if loss.grad is None else loss.grad + 1.0
    for node in reversed(topo):
        g, parents, vjps = node.grad, node._parents, node._vjps
        contributions = (vjps(g) if callable(vjps) else
                         [vjp(g) if parent.needs_grad else None
                          for parent, vjp in zip(parents, vjps)])
        for parent, c in zip(parents, contributions):
            if not parent.needs_grad:
                continue
            if parent.grad is None:
                parent.grad = c if parent._parents else np.array(c)
            elif parent._parents:
                parent.grad = parent.grad + c
            else:
                parent.grad += c
