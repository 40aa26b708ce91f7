"""Trainable components: per-point velocity field, point-set encoder, and
an invertible coupling-layer prior over the shape latent.

All three are built on the local autodiff tape (`swarmflow.autodiff`) and
keep their weights in ``params``, a dict of named parameter nodes.  Every
layer is one ``autodiff.dense`` node, product, inject, bias and ``tanh``
in one forward and one backward rule: a field block with its gated
context term, an encoder layer or head, and each layer of a coupling
MLP.  The encoder's last per-point layer and its max-pool over the
points are one ``autodiff.dense_max`` node, whose gradients are taken
from the argmax rows alone.  A coupling layer's update and its
log-det term are one node each.

``ModelSet`` joins the three dicts under prefixed names and alone knows
the parameter layout: it keeps every weight in one flat float64 buffer,
``values``, and their gradients in another, ``grads``, and points each
parameter node's ``value`` and ``grad`` at shaped views of them, to be
written through (``node.value[...] = x``) and never rebound.  The
optimizer works on the flat buffers only; the checkpoint code reads
named tensors from ``state_dict``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node

__all__ = [
    "ModelConfig", "ModelSet", "Checkpoint",
    "GatedContextualNet", "PointSetEncoder", "CouplingBijector",
    "BijectorNumericsError", "time_embedding", "kl_divergence",
    "build_models", "models_from_checkpoint",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _params(arrays: dict) -> dict:
    """One parameter node per named initial array, in the dict's order."""
    return {name: Node(np.array(value, dtype=np.float64), op="param")
            for name, value in arrays.items()}


def _init_matrix(rng, fan_in, fan_out):
    return rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)


def _init_context_matrix(rng, latent_dim, fan_out, latent_scale=0.1):
    """Context-to-hidden weights with a time-dominated start.

    The context vector concatenates a 3-dim time embedding with the
    latent code.  Plain fan-in scaling would let the latent rows swamp
    the time rows by sheer count (and, early in training, the latent is
    mostly posterior sampling noise), so the time rows get full scale
    while the latent rows start small: the untrained field is effectively
    unconditional in the latent, and that pathway grows only as gradients
    ask for it.  Initial output variance stays ~1 for any latent size.
    """
    w = np.empty((3 + latent_dim, fan_out))
    w[:3] = rng.standard_normal((3, fan_out)) / math.sqrt(3.0)
    w[3:] = rng.standard_normal((latent_dim, fan_out)) * (
        latent_scale / math.sqrt(latent_dim))
    return w


def time_embedding(t: float) -> np.ndarray:
    """3-vector (t, sin 2pi t, cos 2pi t) of a time t in [0, 1]."""
    return np.array([t, math.sin(2.0 * math.pi * t), math.cos(2.0 * math.pi * t)])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


# what a settings field must be, as its error words it -> the test
_RULES = {
    "a positive int": lambda v: _is_int(v) and v > 0,
    "a non-negative int": lambda v: _is_int(v) and v >= 0,
    "a finite number": _finite_number,
    "finite and positive": lambda v: _finite_number(v) and v > 0.0,
}


def _require(settings, rule: str, *names) -> None:
    """Raise ``ValueError`` on the first of the fields ``names`` of
    ``settings`` whose value fails ``_RULES[rule]``."""
    for name in names:
        value = getattr(settings, name)
        if not _RULES[rule](value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def _require_finite(value, what: str) -> None:
    """Raise ``ValueError`` unless every number of ``value`` is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{what} holds NaN or inf")


def _open_new(path, mode="w", **kw):
    """``open(path, mode, **kw)`` on a new file: an existing ``path`` is
    unlinked first, never truncated.  On ext4 (``auto_da_alloc``) closing
    a truncated, rewritten file waits until its new blocks reach the
    disk; a new file does not.  A symlink or hard-linked target is thus
    replaced, not written through."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, **kw)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by training and checkpoints."""

    latent_dim: int = 256
    field_hidden: int = 128
    field_blocks: int = 6
    encoder_widths: tuple = (64, 128, 256)
    coupling_layers: int = 14
    coupling_hidden: int = 64

    def __post_init__(self):
        _require(self, "a positive int", "latent_dim", "field_hidden",
                 "field_blocks", "coupling_layers", "coupling_hidden")
        if not (isinstance(self.encoder_widths, tuple) and self.encoder_widths
                and all(map(_RULES["a positive int"], self.encoder_widths))):
            raise ValueError("encoder_widths must be a non-empty tuple of "
                             f"positive ints, got {self.encoder_widths!r}")
        if self.latent_dim < 2:
            raise ValueError("latent_dim must be >= 2")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["encoder_widths"] = tuple(d["encoder_widths"])
        return cls(**d)


class GatedContextualNet:
    """Per-point velocity network conditioned on time and the shape latent.

    Each block computes  h' = h W_h + sigmoid(ctx W_g) * (ctx W_c) + b
    where ctx is the concatenated time embedding and latent vector; a tanh
    between blocks supplies the nonlinearity in the point coordinates.
    Weights are shared across points, so the field is equivariant to point
    reordering by construction.  The final block is zero-initialized (an
    untrained network outputs the zero field) and the context weights
    start time-dominated (see ``_init_context_matrix``).
    """

    def __init__(self, latent_dim: int, hidden: int = 128, blocks: int = 6,
                 *, rng):
        self.latent_dim = latent_dim
        self.blocks = blocks
        self.ctx_dim = 3 + latent_dim
        p = {}
        dims = [3] + [hidden] * (blocks - 1) + [3]
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            last = i == blocks - 1
            p[f"b{i}.w"] = np.zeros((din, dout)) if last \
                else _init_matrix(rng, din, dout)
            p[f"b{i}.gate_w"] = np.zeros((self.ctx_dim, dout)) if last \
                else _init_context_matrix(rng, latent_dim, dout)
            p[f"b{i}.ctx_w"] = np.zeros((self.ctx_dim, dout)) if last \
                else _init_context_matrix(rng, latent_dim, dout)
            p[f"b{i}.bias"] = np.zeros(dout)
        self.params = _params(p)

    def __call__(self, points, t: float, z) -> Node:
        """Velocity for every point of an (M, 3) cloud; returns (M, 3)."""
        injects = self.injections(t, z)
        h = ad.wrap(points)
        if h.ndim != 2 or h.shape[1] != 3:
            raise ad.ShapeMismatchError(f"points must be (M, 3), got {h.shape}")
        return self.run_blocks(h, injects, range(self.blocks))

    def injections(self, t: float, z) -> list:
        """The context term ``sigmoid(ctx W_g) * (ctx W_c)`` of every
        block, one ``(dout,)`` node each: the part of the network that
        depends on ``(t, z)`` alone, shared by all points."""
        z = ad.wrap(z)
        if z.shape != (self.latent_dim,):
            raise ad.ShapeMismatchError(
                f"latent has shape {z.shape}, expected ({self.latent_dim},)")
        ctx = ad.concat([ad.wrap(time_embedding(t)), z])
        p = self.params
        return [ad.mul(ad.sigmoid(ad.matmul(ctx, p[f"b{i}.gate_w"])),
                       ad.matmul(ctx, p[f"b{i}.ctx_w"]))
                for i in range(self.blocks)]

    def run_blocks(self, h, injects, blocks: range) -> Node:
        """The ``dense`` blocks ``blocks`` (a range of block indices)
        applied to the rows of ``h``, with ``injects`` from
        ``injections``; every block but the network's last ends in a
        ``tanh``.  No row reads another, so this is the part of the
        network that can be split by rows (see ``sampling``)."""
        p, h = self.params, ad.wrap(h)
        for i in blocks:
            h = ad.dense(h, p[f"b{i}.w"], p[f"b{i}.bias"], injects[i],
                         act=i < self.blocks - 1)
        return h


class PointSetEncoder:
    """Permutation-invariant encoder: shared per-point MLP, max-pool, then
    linear heads for the posterior mean and log-variance.  The MLP's last
    layer and the max-pool are one ``autodiff.dense_max`` node.

    Invariance is structural (pooling over the point axis), so reordering
    the input rows gives bitwise-identical outputs.
    """

    def __init__(self, latent_dim: int, widths=(64, 128, 256), *, rng):
        self.latent_dim = latent_dim
        self.widths = tuple(widths)
        p = {}
        dims = [3] + list(self.widths)
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            p[f"l{i}.w"] = _init_matrix(rng, din, dout)
            p[f"l{i}.bias"] = np.zeros(dout)
        # zero-initialized heads: untrained posterior is N(0, I)
        for head in ("mu", "logvar"):
            p[f"{head}.w"] = np.zeros((dims[-1], latent_dim))
            p[f"{head}.bias"] = np.zeros(latent_dim)
        self.params = _params(p)

    def __call__(self, points):
        """Posterior parameters (mu, logvar), each a (latent_dim,) node."""
        h = ad.wrap(points)
        if h.ndim != 2 or h.shape[1] != 3 or h.shape[0] == 0:
            raise ad.ShapeMismatchError(
                f"points must be (M, 3) with M >= 1, got {h.shape}")
        p = self.params
        last = len(self.widths) - 1
        for i in range(last):
            h = ad.dense(h, p[f"l{i}.w"], p[f"l{i}.bias"], act=True)
        pooled = ad.dense_max(h, p[f"l{last}.w"], p[f"l{last}.bias"])
        mu = ad.dense(pooled, p["mu.w"], p["mu.bias"])
        logvar = ad.dense(pooled, p["logvar.w"], p["logvar.bias"])
        return mu, logvar

    def encode(self, points, rng):
        """Reparameterized posterior draw: returns (z, mu, logvar) nodes."""
        mu, logvar = self(points)
        eps = rng.standard_normal(self.latent_dim)
        z = mu + ad.mul(ad.exp(ad.mul(logvar, 0.5)), eps)
        return z, mu, logvar


class BijectorNumericsError(FloatingPointError):
    """Non-finite intermediate inside the coupling bijector."""


def _coupling_update(held: Node, vec: Node, s: Node, t: Node,
                     moved_mask, inverse: bool) -> Node:
    """A coupling layer's update as one node: ``held + (vec * exp(s) + t)
    * moved_mask``, or ``held + (vec - t) * exp(-s) * moved_mask`` when
    ``inverse``.

    It runs the operations of the unfused ``mul``/``exp``/``add`` chain
    in that chain's order, and its backward rule forms the chain's VJPs,
    so value and gradients are bitwise the chain's.  The parents are
    listed so that ``backward`` reaches ``s`` and ``t`` in the chain's
    order too: ``t`` first going forward, ``s`` first when inverting.
    """
    v, sv, tv = vec.value, s.value, t.value
    if inverse:
        d = v - tv
        e = np.exp(-sv)
        out = held.value + d * e * moved_mask

        def vjp(g):
            gp = g * moved_mask
            gd = gp * e
            return [g, gd, -gd, -(gp * d * e)]

        return Node(out, (held, vec, t, s), vjp, "coupling")
    e = np.exp(sv)
    out = held.value + (v * e + tv) * moved_mask

    def vjp(g):
        gq = g * moved_mask
        return [g, gq * e, gq * v * e, gq]

    return Node(out, (held, vec, s, t), vjp, "coupling")


def _logdet_update(logdet: Node, s: Node, moved_mask, inverse: bool) -> Node:
    """``logdet + sum(s * moved_mask)`` as one node, with ``-`` when
    ``inverse``; value and gradients are bitwise those of the
    ``mul``/``reduce_sum``/``add`` chain, whose parent order it keeps."""
    term = (s.value * moved_mask).sum()
    out = logdet.value - term if inverse else logdet.value + term

    def vjp(g):
        return [g, (-g if inverse else g) * moved_mask]

    return Node(out, (logdet, s), vjp, "coupling_logdet")


class CouplingBijector:
    """Stack of affine coupling layers mapping N(0, I) noise to the latent.

    Layers alternate between transforming the odd-indexed and even-indexed
    coordinates; the scale output is tanh-squashed and multiplied by a
    learnable factor, which bounds |log-scale| and keeps exp() tame.  With
    zero-initialized coupling nets the whole map starts as the identity.
    Each layer's update and its log-det term are one tape node each.
    """

    def __init__(self, dim: int, n_layers: int = 14, hidden: int = 64, *,
                 rng):
        if dim < 2:
            raise ValueError("coupling bijector needs dim >= 2")
        self.dim = dim
        self.n_layers = n_layers
        p = {}
        self.masks = []  # (pass-through mask, its complement) per layer
        for i in range(n_layers):
            mask = np.zeros(dim)
            mask[i % 2::2] = 1.0  # 1 = pass-through coordinate
            self.masks.append((mask, 1.0 - mask))
            for net in ("scale", "shift"):
                p[f"c{i}.{net}.w0"] = _init_matrix(rng, dim, hidden)
                p[f"c{i}.{net}.b0"] = np.zeros(hidden)
                p[f"c{i}.{net}.w1"] = np.zeros((hidden, dim))
                p[f"c{i}.{net}.b1"] = np.zeros(dim)
            p[f"c{i}.s_factor"] = np.array(1.0)
        self.params = _params(p)

    def _coupling(self, i: int, passthrough: Node):
        """Scale/shift nodes for layer ``i`` given the pass-through half."""
        p = self.params

        def mlp(net, act):
            h = ad.dense(passthrough, p[f"c{i}.{net}.w0"], p[f"c{i}.{net}.b0"],
                         act=True)
            return ad.dense(h, p[f"c{i}.{net}.w1"], p[f"c{i}.{net}.b1"],
                            act=act)

        s = ad.mul(p[f"c{i}.s_factor"], mlp("scale", act=True))
        return s, mlp("shift", act=False)

    def _layer(self, i: int, vec: Node, logdet: Node, inverse: bool):
        """Coupling layer ``i`` applied to ``vec``, or undone if
        ``inverse``: the new vector, and ``logdet`` plus the layer's
        log-det term."""
        mask, moved_mask = self.masks[i]
        held = ad.mul(vec, mask)
        s, t = self._coupling(i, held)
        vec = _coupling_update(held, vec, s, t, moved_mask, inverse)
        if not np.all(np.isfinite(vec.value)):
            raise BijectorNumericsError(
                f"non-finite intermediate after coupling layer {i}")
        return vec, _logdet_update(logdet, s, moved_mask, inverse)

    def _input(self, x) -> Node:
        vec = ad.wrap(x)
        if vec.shape != (self.dim,):
            raise ad.ShapeMismatchError(
                f"bijector input has shape {vec.shape}, expected ({self.dim},)")
        return vec

    def forward(self, w):
        """Noise -> latent.  Returns (z, log|det dz/dw|) as nodes."""
        vec, logdet = self._input(w), ad.wrap(0.0)
        for i in range(self.n_layers):
            vec, logdet = self._layer(i, vec, logdet, inverse=False)
        return vec, logdet

    def inverse(self, z):
        """Latent -> noise.  Returns (w, log|det dw/dz|) as nodes."""
        vec, logdet = self._input(z), ad.wrap(0.0)
        for i in reversed(range(self.n_layers)):
            vec, logdet = self._layer(i, vec, logdet, inverse=True)
        return vec, logdet


def kl_divergence(mu: Node, logvar: Node, z: Node,
                  bijector: CouplingBijector) -> Node:
    """Single-sample KL estimate  log q(z | cloud) - log prior(z).

    The prior density is evaluated through the bijector's inverse via the
    change-of-variables identity; ``z`` must be the reparameterized draw
    from N(mu, diag(exp(logvar))) so the estimate is differentiable
    through all three inputs.
    """
    delta = z - mu
    log_posterior = ad.reduce_sum(
        ad.mul(logvar + _LOG_2PI + ad.mul(ad.mul(delta, delta),
                                          ad.exp(ad.neg(logvar))), -0.5))
    w, logdet_inv = bijector.inverse(z)
    log_prior = ad.reduce_sum(ad.mul(ad.mul(w, w) + _LOG_2PI, -0.5)) + logdet_inv
    return log_posterior - log_prior


@dataclass
class ModelSet:
    """The three networks trained jointly, over one flat parameter buffer.

    ``values`` holds every parameter in ``named_parameters()`` order and
    each parameter node's ``value`` is a shaped view of it, so the
    optimizer updates all networks by writing into ``values``.  Each
    node's ``grad`` is likewise a view of ``grads``, which ``backward``
    adds into in place and the optimizer then uses as scratch.  Write
    through the views; a rebound one no longer reaches its buffer until
    ``load_state_dict`` points it back.  The prefixed ``(name, node)``
    list is built once, with the set, so a network's ``params`` must not
    change after the set is built.
    """

    config: ModelConfig
    field_net: GatedContextualNet
    encoder: PointSetEncoder
    bijector: CouplingBijector

    def __post_init__(self):
        self._named = [(prefix + name, node)
                       for prefix, net in (("field.", self.field_net),
                                           ("encoder.", self.encoder),
                                           ("bijector.", self.bijector))
                       for name, node in net.params.items()]
        self.values = np.concatenate(
            [node.value.ravel() for _, node in self._named])
        self.grads = np.zeros_like(self.values)
        self._point_views()

    def named_parameters(self):
        """``(prefixed name, node)`` of every parameter, in buffer order."""
        return iter(self._named)

    def _views(self, flat):
        """(name, node, shaped view of ``flat``) for each parameter."""
        start = 0
        for name, node in self.named_parameters():
            stop = start + node.value.size
            yield name, node, flat[start:stop].reshape(node.value.shape)
            start = stop

    def _point_views(self) -> None:
        """Point every node's ``value`` and ``grad`` at its buffer views."""
        for _, node, view in self._views(self.values):
            node.value = view
        for _, node, view in self._views(self.grads):
            node.grad = view

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def state_dict(self) -> dict:
        """Named, shaped copies of the parameters, in buffer order."""
        return {name: view.copy() for name, _, view in self._views(self.values)}

    def load_state_dict(self, state: dict) -> None:
        extra = sorted(set(state).difference(
            name for name, _ in self.named_parameters()))
        if extra:
            raise ValueError(f"unknown parameter {extra[0]!r} in state dict")
        for name, node, view in self._views(self.values):
            if name not in state:
                raise ValueError(f"missing parameter {name!r} in state dict")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != view.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {arr.shape} != {view.shape}")
            view[...] = arr
        self._point_views()


def build_models(config: ModelConfig, rng) -> ModelSet:
    """Fresh ModelSet with deterministic initialization from ``rng``."""
    field_net = GatedContextualNet(config.latent_dim, config.field_hidden,
                                   config.field_blocks, rng=rng)
    encoder = PointSetEncoder(config.latent_dim, config.encoder_widths, rng=rng)
    bijector = CouplingBijector(config.latent_dim, config.coupling_layers,
                                config.coupling_hidden, rng=rng)
    return ModelSet(config, field_net, encoder, bijector)


@dataclass
class Checkpoint:
    """Everything needed to sample: weights and the configuration that
    produced them."""

    algorithm: str  # "flow" or "diffusion"
    model_config: ModelConfig
    train_config: dict
    params: dict = field(default_factory=dict)
    # not in the file and set by nothing here: they stay, at their defaults
    # on trained and loaded checkpoints alike, only because perfbench's
    # checkpoint digest still reads them
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)
    opt_step: int = 0
    step_count: int = 0
    final_loss: float = float("nan")


def models_from_checkpoint(ckpt: Checkpoint) -> ModelSet:
    models = build_models(ckpt.model_config, np.random.default_rng(0))
    models.load_state_dict(ckpt.params)
    return models
