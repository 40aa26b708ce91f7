"""Network-level tests: architecture contracts (equivariance, invariance,
identity-at-init), bijector round trips against a dense-Jacobian oracle,
and the KL estimator against the closed-form Gaussian value."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from swarmflow import autodiff as ad
from swarmflow import sampling
from swarmflow.diffusion import DiffusionSchedule, ddpm_train_loss
from swarmflow.flowmatch import Adam, cfm_loss
from swarmflow.navigation import NavConfig
from swarmflow.sampling import SampleConfig
from swarmflow.models import (BijectorNumericsError, CouplingBijector,
                              GatedContextualNet, ModelConfig,
                              PointSetEncoder, build_models, kl_divergence,
                              time_embedding)


def perturbed_bijector(dim, n_layers=4, hidden=8, seed=7, amount=0.3):
    """Bijector with randomized (non-identity) coupling weights."""
    rng = np.random.default_rng(seed)
    bij = CouplingBijector(dim, n_layers=n_layers, hidden=hidden, rng=rng)
    for _, node in bij.params.items():
        node.value = np.asarray(
            node.value + amount * rng.standard_normal(node.value.shape))
    return bij


def nudge_param(node, i, delta):
    """Return a copy of the param value with flat entry ``i`` shifted.

    Swapping the whole array avoids 0-d view pitfalls (numpy returns
    immutable scalars from 0-d arithmetic).
    """
    arr = np.array(node.value, dtype=np.float64).reshape(-1).copy()
    arr[i] += delta
    return arr.reshape(np.shape(node.value))


# ---------------------------------------------------------------------------
# time embedding

def test_time_embedding_values():
    assert np.allclose(time_embedding(0.0), [0.0, 0.0, 1.0])
    emb = time_embedding(0.25)
    assert emb[0] == 0.25
    assert emb[1] == pytest.approx(1.0, abs=1e-15)
    assert emb[2] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# velocity field network

def test_field_net_output_shape_and_zero_init():
    rng = np.random.default_rng(0)
    net = GatedContextualNet(latent_dim=8, hidden=16, blocks=3, rng=rng)
    x = rng.standard_normal((10, 3))
    z = rng.standard_normal(8)
    out = net(x, 0.5, z)
    assert out.shape == (10, 3)
    # final block is zero-initialized: untrained field is identically zero
    assert np.array_equal(out.value, np.zeros((10, 3)))


def test_field_net_latent_dim_mismatch_raises():
    net = GatedContextualNet(latent_dim=8, hidden=16, blocks=3,
                             rng=np.random.default_rng(0))
    with pytest.raises(ad.ShapeMismatchError):
        net(np.zeros((4, 3)), 0.5, np.zeros(9))
    with pytest.raises(ad.ShapeMismatchError):
        net(np.zeros((4, 2)), 0.5, np.zeros(8))


def test_field_net_permutation_equivariance():
    rng = np.random.default_rng(3)
    net = GatedContextualNet(latent_dim=6, hidden=16, blocks=3, rng=rng)
    for _, node in net.params.items():  # make the last block non-zero too
        node.value = node.value + 0.1 * rng.standard_normal(node.value.shape)
    x = rng.standard_normal((20, 3))
    z = rng.standard_normal(6)
    perm = rng.permutation(20)
    out = net(x, 0.3, z).value
    out_perm = net(x[perm], 0.3, z).value
    assert np.array_equal(out[perm], out_perm)


def test_field_net_per_point_independence(monkeypatch):
    # evaluating a subset of rows gives the same rows as the full batch,
    # bit for bit
    rng = np.random.default_rng(4)
    net = GatedContextualNet(latent_dim=6, hidden=16, blocks=3, rng=rng)
    for _, node in net.params.items():
        node.value = node.value + 0.1 * rng.standard_normal(node.value.shape)
    x = rng.standard_normal((12, 3))
    z = rng.standard_normal(6)
    full = net(x, 0.7, z).value
    part = net(x[3:7], 0.7, z).value
    assert np.array_equal(full[3:7], part)
    # the fixture's hidden blocks (hidden 128) at every cut the sampler's
    # row split makes: each chunk gives the rows of the full activations
    net = GatedContextualNet(latent_dim=16, hidden=128, blocks=6, rng=rng)
    for _, node in net.params.items():
        node.value = node.value + 0.1 * rng.standard_normal(node.value.shape)
    z = rng.standard_normal(16)
    hidden = range(net.blocks - 1)
    for rows in (128, 300, 512, 1000, 2700, 4096, 5001):
        x = rng.standard_normal((rows, 3))
        injects = net.injections(0.4, z)
        full = net.run_blocks(x, injects, hidden).value
        assert full.shape == (rows, 128)
        for cpus in (2, 3, 4, 8):
            monkeypatch.setattr(sampling, "_split_cpus", lambda: cpus)
            for a, b in sampling._row_spans(rows):
                part = net.run_blocks(x[a:b], injects, hidden).value
                assert np.array_equal(part, full[a:b]), (rows, cpus, a, b)
    # the two parts run in turn are the whole network
    x = rng.standard_normal((40, 3))
    injects = net.injections(0.4, z)
    assert np.array_equal(
        net.run_blocks(net.run_blocks(x, injects, hidden), injects,
                       range(net.blocks - 1, net.blocks)).value,
        net(x, 0.4, z).value)


# ---------------------------------------------------------------------------
# point-set encoder

def test_encoder_shapes_and_standard_normal_init():
    rng = np.random.default_rng(1)
    enc = PointSetEncoder(latent_dim=8, widths=(8, 16), rng=rng)
    mu, logvar = enc(rng.standard_normal((30, 3)))
    assert mu.shape == (8,) and logvar.shape == (8,)
    # zero-initialized heads: untrained posterior is exactly N(0, I)
    assert np.array_equal(mu.value, np.zeros(8))
    assert np.array_equal(logvar.value, np.zeros(8))


def test_encoder_permutation_invariance_exact():
    rng = np.random.default_rng(2)
    enc = PointSetEncoder(latent_dim=8, widths=(8, 16), rng=rng)
    for _, node in enc.params.items():
        node.value = node.value + 0.2 * rng.standard_normal(node.value.shape)
    x = rng.standard_normal((40, 3))
    perm = rng.permutation(40)
    mu1, lv1 = enc(x)
    mu2, lv2 = enc(x[perm])
    assert np.array_equal(mu1.value, mu2.value)
    assert np.array_equal(lv1.value, lv2.value)


def test_encoder_empty_cloud_raises():
    enc = PointSetEncoder(latent_dim=4, widths=(8,),
                          rng=np.random.default_rng(0))
    with pytest.raises(ad.ShapeMismatchError):
        enc(np.zeros((0, 3)))


def test_encode_reparameterization_formula():
    rng = np.random.default_rng(5)
    enc = PointSetEncoder(latent_dim=6, widths=(8, 8), rng=rng)
    for _, node in enc.params.items():
        node.value = node.value + 0.2 * rng.standard_normal(node.value.shape)
    x = rng.standard_normal((10, 3))
    z, mu, logvar = enc.encode(x, np.random.default_rng(123))
    eps = np.random.default_rng(123).standard_normal(6)
    assert np.array_equal(z.value,
                          mu.value + np.exp(0.5 * logvar.value) * eps)


# ---------------------------------------------------------------------------
# coupling bijector

def test_bijector_identity_at_init():
    bij = CouplingBijector(6, n_layers=4, hidden=8,
                           rng=np.random.default_rng(0))
    w = np.random.default_rng(1).standard_normal(6)
    z, logdet = bij.forward(w)
    assert np.array_equal(z.value, w)
    assert logdet.value == 0.0


def test_bijector_roundtrip_100_vectors():
    bij = perturbed_bijector(8)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        w = rng.standard_normal(8)
        z, logdet_f = bij.forward(w)
        back, logdet_i = bij.inverse(z.value)
        worst = max(worst, float(np.max(np.abs(back.value - w))))
        # determinants of a map and its inverse cancel
        assert logdet_f.value + logdet_i.value == pytest.approx(0.0, abs=1e-10)
    assert worst < 1e-6


def test_bijector_logdet_matches_dense_jacobian():
    bij = perturbed_bijector(4, n_layers=4, hidden=8, seed=3)
    rng = np.random.default_rng(21)
    eps = 1e-6
    for _ in range(5):
        w = rng.standard_normal(4)
        jac = np.zeros((4, 4))
        for j in range(4):
            delta = np.zeros(4)
            delta[j] = eps
            hi, _ = bij.forward(w + delta)
            lo, _ = bij.forward(w - delta)
            jac[:, j] = (hi.value - lo.value) / (2.0 * eps)
        sign, ref = np.linalg.slogdet(jac)
        assert sign > 0
        _, logdet = bij.forward(w)
        assert abs(logdet.value - ref) <= 1e-4 * max(1.0, abs(ref))


def test_bijector_input_shape_raises():
    bij = CouplingBijector(6, n_layers=2, hidden=4,
                           rng=np.random.default_rng(0))
    with pytest.raises(ad.ShapeMismatchError):
        bij.forward(np.zeros(5))
    with pytest.raises(ValueError):
        CouplingBijector(1, rng=np.random.default_rng(0))


def test_bijector_nonfinite_intermediate_names_layer():
    bij = perturbed_bijector(6, n_layers=3)
    bij.params["c1.s_factor"].value = np.array(1e4)  # exp overflow in layer 1
    w = 10.0 * np.ones(6)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BijectorNumericsError, match="layer 1"):
        bij.forward(w)


def _chain_layers(bij, vec, inverse):
    """The coupling layers as the unfused chain of tape ops that
    ``CouplingBijector`` ran before each update and each log-det term
    became one node."""
    logdet = ad.wrap(0.0)
    for i in reversed(range(bij.n_layers)) if inverse else range(bij.n_layers):
        mask, moved_mask = bij.masks[i]
        held = ad.mul(vec, mask)
        s, t = bij._coupling(i, held)
        if inverse:
            moved = ad.mul(ad.mul(vec - t, ad.exp(ad.neg(s))), moved_mask)
            logdet = logdet - ad.reduce_sum(ad.mul(s, moved_mask))
        else:
            moved = ad.mul(ad.mul(vec, ad.exp(s)) + t, moved_mask)
            logdet = logdet + ad.reduce_sum(ad.mul(s, moved_mask))
        vec = held + moved
    return vec, logdet


class _ChainBijector:
    def __init__(self, bij):
        self.bij = bij

    def inverse(self, z):
        return _chain_layers(self.bij, z, inverse=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bijector_layers_are_bitwise_the_unfused_chain(seed):
    bij = perturbed_bijector(6, n_layers=4, hidden=8, seed=seed)
    rng = np.random.default_rng(100 + seed)
    w0, probe = rng.standard_normal(6), rng.standard_normal(6)
    mu0, logvar0, eps = (rng.standard_normal(6) for _ in range(3))

    def grads(*leaves):
        out = [leaf.grad for leaf in leaves]
        out += [p.grad for _, p in bij.params.items()]
        for _, p in bij.params.items():
            p.grad = None
        return out

    def forward_run(layers):
        # the input feeds the layers and one more term, so its gradient
        # sums several contributions
        w = ad.Node(w0)
        z, logdet = layers(w)
        loss = (ad.reduce_sum(ad.mul(z, probe)) + logdet
                + ad.reduce_sum(ad.mul(w, w)))
        ad.backward(loss)
        return [z.value, logdet.value, loss.value] + grads(w)

    def kl_run(prior):
        mu, logvar = ad.Node(mu0), ad.Node(logvar0)
        z = mu + ad.mul(ad.exp(ad.mul(logvar, 0.5)), eps)
        kl = kl_divergence(mu, logvar, z, prior)
        ad.backward(kl)
        return [kl.value] + grads(mu, logvar)

    runs = [(forward_run(bij.forward),
             forward_run(lambda w: _chain_layers(bij, w, inverse=False))),
            (kl_run(bij), kl_run(_ChainBijector(bij)))]
    for fused, chain in runs:
        assert len(fused) == len(chain)
        for a, b in zip(fused, chain):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bijector_parameter_gradients_fd():
    bij = perturbed_bijector(6, n_layers=2, seed=9)
    w = np.random.default_rng(13).standard_normal(6)
    weights = np.random.default_rng(14).standard_normal(6)

    def loss_value():
        z, logdet = bij.forward(w)
        return ad.reduce_sum(ad.mul(z, weights)) + logdet

    node = loss_value()
    for _, p in bij.params.items():
        p.grad = None
    ad.backward(node)
    rng = np.random.default_rng(15)
    for name, p in bij.params.items():
        size = np.size(p.value)
        gflat = np.reshape(p.grad, -1)
        picks = rng.choice(size, size=min(2, size), replace=False)
        original = p.value
        for i in picks:
            p.value = nudge_param(p, i, +1e-5)
            hi = float(loss_value().value)
            p.value = original
            p.value = nudge_param(p, i, -1e-5)
            lo = float(loss_value().value)
            p.value = original
            fd = (hi - lo) / 2e-5
            an = gflat[i]
            err = abs(an - fd)
            assert err <= 1e-4 * max(abs(an), abs(fd)) or err <= 1e-8, \
                f"{name}[{i}]: analytic {an}, fd {fd}"


# ---------------------------------------------------------------------------
# KL estimator

def closed_form_kl(mu, logvar):
    """KL(N(mu, diag(exp(logvar))) || N(0, I))."""
    var = np.exp(logvar)
    return 0.5 * float(np.sum(mu * mu + var - logvar - 1.0))


def test_kl_zero_when_posterior_is_prior():
    bij = CouplingBijector(6, n_layers=2, hidden=4,
                           rng=np.random.default_rng(0))
    rng = np.random.default_rng(33)
    for _ in range(10):
        z = ad.wrap(rng.standard_normal(6))
        kl = kl_divergence(ad.wrap(np.zeros(6)), ad.wrap(np.zeros(6)), z, bij)
        assert kl.value == 0.0


def test_kl_montecarlo_matches_closed_form():
    # identity bijector: prior is exactly N(0, I), so the Monte-Carlo mean
    # of the single-sample estimator must approach the Gaussian closed form
    dim = 4
    bij = CouplingBijector(dim, n_layers=2, hidden=4,
                           rng=np.random.default_rng(0))
    mu = np.array([0.5, -0.3, 0.8, 0.1])
    logvar = np.array([0.2, -0.4, 0.1, -0.1])
    expected = closed_form_kl(mu, logvar)
    sigma = np.exp(0.5 * logvar)
    n = 100_000
    # one draw of every z is the same stream as n draws of dim values
    zs = mu + sigma * np.random.default_rng(77).standard_normal((n, dim))
    total = 0.0
    with ad.no_record():
        for z in zs:
            total += float(kl_divergence(ad.wrap(mu), ad.wrap(logvar),
                                         ad.wrap(z), bij).value)
    estimate = total / n
    assert abs(estimate - expected) <= 0.01 * abs(expected), \
        f"MC {estimate} vs closed form {expected}"


def test_kl_gradient_through_reparameterization():
    # gradient w.r.t. mu of E[KL] at the sample should match FD on the
    # same fixed noise draw
    dim = 4
    bij = perturbed_bijector(dim, n_layers=2, seed=5)
    eps = np.random.default_rng(6).standard_normal(dim)
    logvar = np.zeros(dim)

    def kl_at(mu_arr):
        mu = ad.wrap(mu_arr)
        z = mu + ad.wrap(eps)
        return kl_divergence(mu, ad.wrap(logvar), z, bij)

    mu0 = np.array([0.3, -0.2, 0.5, 0.0])
    mu = ad.Node(mu0)  # a leaf that wants its gradient
    z = mu + ad.wrap(eps)
    kl = kl_divergence(mu, ad.wrap(logvar), z, bij)
    ad.backward(kl)
    for i in range(dim):
        d = np.zeros(dim)
        d[i] = 1e-5
        fd = (float(kl_at(mu0 + d).value) - float(kl_at(mu0 - d).value)) / 2e-5
        an = mu.grad[i]
        assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# model set

TINY = ModelConfig(latent_dim=8, field_hidden=16, field_blocks=3,
                   encoder_widths=(8, 16), coupling_layers=4,
                   coupling_hidden=8)


def test_build_models_and_named_parameters():
    models = build_models(TINY, np.random.default_rng(0))
    names = [n for n, _ in models.named_parameters()]
    assert len(names) == len(set(names))
    assert any(n.startswith("field.") for n in names)
    assert any(n.startswith("encoder.") for n in names)
    assert any(n.startswith("bijector.") for n in names)
    state = models.state_dict()
    models2 = build_models(TINY, np.random.default_rng(99))
    models2.load_state_dict(state)
    for (_, a), (_, b) in zip(models.named_parameters(),
                              models2.named_parameters()):
        assert np.array_equal(a.value, b.value)


def test_model_set_zero_grad_and_count():
    models = build_models(TINY, np.random.default_rng(1))
    nodes = [node for _, node in models.named_parameters()]
    # field 416 + 624 + 117, encoder 32 + 144 + 2 * 136,
    # bijector 4 layers * (2 nets * 144 + 1 s_factor)
    assert models.values.size == models.grads.size == 1157 + 448 + 1156
    assert not np.any(models.grads)
    loss = ad.reduce_sum(ad.mul(nodes[0], nodes[0]))
    for node in nodes[1:]:
        loss = loss + ad.reduce_sum(ad.mul(node, node))
    ad.backward(loss)
    # d/dx sum(x * x) = x + x, added straight into the flat buffer
    assert np.array_equal(models.grads, 2.0 * models.values)
    models.zero_grad()
    assert not np.any(models.grads)
    _assert_buffer_views(models)


def _assert_buffer_views(models):
    """Every parameter value and gradient is the slice of ``models.values``
    and ``models.grads`` at its offset."""
    start = 0
    for name, node in models.named_parameters():
        stop = start + node.value.size
        for arr, flat in ((node.value, models.values),
                          (node.grad, models.grads)):
            assert arr.shape == node.shape, name
            assert arr.ctypes.data == flat[start:].ctypes.data, name
            assert np.array_equal(arr.ravel(), flat[start:stop]), name
        start = stop
    assert start == models.values.size == models.grads.size


def test_model_set_state_roundtrip():
    models = build_models(TINY, np.random.default_rng(2))
    _assert_buffer_views(models)
    state = models.state_dict()
    assert state["bijector.c0.s_factor"].shape == ()  # 0-d tensors stay 0-d
    # a training step writes through the views
    loss, _ = cfm_loss(models, np.random.default_rng(3)
                       .standard_normal((8, 3)), np.random.default_rng(4))
    models.zero_grad()
    ad.backward(loss)
    Adam(models.values.size).step(models.values, models.grads, 0.1)
    assert not np.array_equal(models.values, np.concatenate(
        [arr.ravel() for arr in state.values()]))
    _assert_buffer_views(models)
    # state_dict: the layout's key order and shapes, as copies
    models.values[:] = np.arange(float(models.values.size))
    parts = models.state_dict()
    assert list(parts) == list(state)
    for name, arr in parts.items():
        assert arr.shape == state[name].shape, name
        assert not np.shares_memory(arr, models.values), name
    assert np.array_equal(np.concatenate([a.ravel() for a in parts.values()]),
                          models.values)
    # load_state_dict writes into the buffer and re-points rebound nodes
    for _, node in models.named_parameters():
        node.value, node.grad = np.zeros(node.value.shape), None
    models.load_state_dict(state)
    _assert_buffer_views(models)
    for name, node in models.named_parameters():
        assert node.value.shape == state[name].shape
        assert np.array_equal(node.value, state[name]), name
        assert not np.shares_memory(node.value, state[name])  # a copy
    missing = dict(state)
    del missing["encoder.mu.bias"]
    with pytest.raises(ValueError,
                       match="missing parameter 'encoder.mu.bias'"):
        models.load_state_dict(missing)
    with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
        models.load_state_dict(dict(state, bogus=np.zeros(2)))
    wrong = dict(state, **{"field.b0.w": np.zeros(4)})
    with pytest.raises(ValueError, match="field.b0.w"):
        models.load_state_dict(wrong)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(latent_dim=1)
    for name, bad in [("latent_dim", 4.0), ("field_hidden", True),
                      ("field_blocks", 0), ("coupling_layers", "2"),
                      ("coupling_hidden", -3), ("encoder_widths", ()),
                      ("encoder_widths", [8, 16]),
                      ("encoder_widths", (8, 0)),
                      ("encoder_widths", (8, False))]:
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: bad})
    cfg = ModelConfig(latent_dim=8, encoder_widths=(8, 16))
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


@pytest.mark.parametrize("cls, settings, message", [
    (ModelConfig, {"field_blocks": 0},
     "field_blocks must be a positive int, got 0"),
    (SampleConfig, {"num_agents": 4, "seed": -1},
     "seed must be a non-negative int, got -1"),
    (NavConfig, {"kappa": 0.06, "dt": "0.1"},
     "dt must be finite and positive, got '0.1'"),
    (DiffusionSchedule, {"beta_end": None},
     "beta_end must be a finite number, got None"),
], ids=["ModelConfig", "SampleConfig", "NavConfig", "DiffusionSchedule"])
def test_settings_classes_word_their_errors_alike(cls, settings, message):
    with pytest.raises(ValueError) as info:
        cls(**settings)
    assert str(info.value) == message


def test_networks_give_equal_bits_without_a_tape():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(2, 6), st.integers(1, 12),
                      st.integers(1, 4), st.integers(1, 4),
                      st.integers(1, 6), st.integers(1, 16),
                      st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def check(latent, hidden, blocks, layers, coupling_hidden, points, t,
              seed):
        rng = np.random.default_rng(seed)
        models = build_models(ModelConfig(
            latent_dim=latent, field_hidden=hidden, field_blocks=blocks,
            encoder_widths=(4,), coupling_layers=layers,
            coupling_hidden=coupling_hidden), rng)
        # leave the zero-initialised blocks and identity couplings behind
        models.values += 0.3 * rng.standard_normal(models.values.shape)
        x = rng.standard_normal((points, 3))
        w = rng.standard_normal(latent)

        def run():
            z, logdet = models.bijector.forward(w)
            v = models.field_net(x, t, z)
            return z.value, logdet.value, v.value

        taped = run()
        with ad.no_record():
            free = run()
        for a, b in zip(taped, free):
            assert np.array_equal(a, b)

    check()


# ---------------------------------------------------------------------------
# which tape nodes get a gradient

def _tape(loss):
    """Every node ``loss`` reaches through parents, itself included."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_fixture_size_backward_feeds_parameters_and_no_constant():
    rng = np.random.default_rng(30)
    models = build_models(ModelConfig(latent_dim=16), rng)
    x0 = rng.standard_normal((512, 3))
    loss, _ = cfm_loss(models, x0, rng)
    models.zero_grad()
    ad.backward(loss)
    tape = _tape(loss)
    consts = [node for node in tape if node.op == "const"]
    assert len(consts) > 20  # clouds, masks, scalars, the time embedding
    assert all(node.grad is None for node in consts)
    assert all(node.grad is not None for node in tape if node.needs_grad)
    for name, node in models.named_parameters():
        assert node.grad is not None and node.grad.shape == node.shape, name


def _full_backward(loss):
    """The walk ``backward`` made before it skipped constants: every tape
    node, constants too, in reverse post-order, fed every VJP."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if id(p) not in seen)
    loss.grad = np.float64(1.0)
    for node in reversed(topo):
        g, vjps = node.grad, node._vjps
        contributions = (vjps(g) if callable(vjps)
                         else [vjp(g) for vjp in vjps])
        for parent, c in zip(node._parents, contributions):
            if c is not None:  # a fused rule skips a constant's product
                parent.grad = c if parent.grad is None else parent.grad + c


@pytest.mark.parametrize("algorithm", ["flow", "diffusion"])
def test_backward_gives_the_full_walks_parameter_gradients(algorithm):
    rng = np.random.default_rng(31)
    models = build_models(TINY, rng)
    opt = Adam(models.values.size)
    params = [node for _, node in models.named_parameters()]
    x0 = rng.standard_normal((24, 3))
    sched = DiffusionSchedule()

    def loss(r):
        if algorithm == "flow":
            return cfm_loss(models, x0, r)[0]
        return ddpm_train_loss(models, sched, x0, r)[0]

    for _ in range(3):
        replay = np.random.default_rng(0)
        replay.bit_generator.state = rng.bit_generator.state
        models.zero_grad()
        ad.backward(loss(rng))
        pruned = models.grads.copy()
        # the oracle stores each first contribution as is, off the buffer
        for node in params:
            node.grad = None
        _full_backward(loss(replay))
        full = np.concatenate([np.ravel(node.grad) for node in params])
        models.load_state_dict(models.state_dict())  # points the views back
        _assert_buffer_views(models)
        # adding into zeros turns a -0.0 first contribution into +0.0
        assert pruned.tobytes() == (full + 0.0).tobytes()
        opt.step(models.values, models.grads, 1e-2)
