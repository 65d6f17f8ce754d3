import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import grad, loss, pack_mlp, step_size_bound
from fedunlearn import models
from fedunlearn.errors import DimensionMismatchError
from fedunlearn.models import (
    ModelKind,
    ModelSpec,
    Regime,
    RegimeConstants,
    accuracy,
    as_params,
    data_loss,
    norms,
    regime_constants,
    stacked_grad,
    stacked_loss,
    stacked_loss_and_grad,
)

# one client's rows, features (n, d) and targets (n,), and its stack of one
IDENTITY_DATA = np.eye(2), np.array([1.0, 1.0])
IDENTITY_STACK = np.eye(2)[None], np.array([[1.0, 1.0]])
RIDGE_ID = ModelSpec(ModelKind.RIDGE, (2,), 0.1)
LOGISTIC_ID = ModelSpec(ModelKind.LOGISTIC, (2,), 0.0)


def finite_vec(d, scale=3.0):
    return hnp.arrays(np.float64, d, elements=st.floats(-scale, scale, allow_nan=False))


# ---------------------------------------------------------------------------
# hand-computed losses and gradients
# ---------------------------------------------------------------------------


def test_ridge_identity_loss_and_grad_at_zero():
    theta = np.zeros(2)
    assert loss(RIDGE_ID, *IDENTITY_DATA, theta) == 0.5
    np.testing.assert_array_equal(grad(RIDGE_ID, *IDENTITY_DATA, theta), [-0.5, -0.5])


def test_ridge_exact_fit_unregularised():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 4))
    theta_true = rng.standard_normal(4)
    y = X @ theta_true
    spec = ModelSpec(ModelKind.RIDGE, (4,))
    assert loss(spec, X, y, theta_true) == pytest.approx(0.0, abs=1e-28)
    np.testing.assert_allclose(grad(spec, X, y, theta_true), np.zeros(4), atol=1e-13)


def test_ridge_grad_at_exact_fit_is_pure_l2():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((9, 3))
    theta_true = rng.standard_normal(3)
    spec = ModelSpec(ModelKind.RIDGE, (3,), 0.25)
    np.testing.assert_allclose(grad(spec, X, X @ theta_true, theta_true), 0.25 * theta_true, atol=1e-13)


def test_logistic_loss_at_zero_is_log_two():
    theta = np.zeros(2)
    assert loss(LOGISTIC_ID, *IDENTITY_DATA, theta) == pytest.approx(math.log(2.0), rel=1e-15)
    np.testing.assert_allclose(grad(LOGISTIC_ID, *IDENTITY_DATA, theta), [-0.25, -0.25], atol=1e-16)


def test_logistic_extreme_logits_stay_finite():
    spec = ModelSpec(ModelKind.LOGISTIC, (2,))
    theta = np.array([500.0, -500.0])
    assert math.isfinite(loss(spec, *IDENTITY_DATA, theta))
    assert np.all(np.isfinite(grad(spec, *IDENTITY_DATA, theta)))


def test_data_loss_drops_the_regulariser():
    theta = np.array([0.7, -0.2])
    full = loss(RIDGE_ID, *IDENTITY_DATA, theta)
    bare = data_loss(RIDGE_ID, *IDENTITY_DATA, theta)
    assert full == pytest.approx(bare + 0.5 * 0.1 * float(theta @ theta), rel=1e-15)


def test_mlp_forward_by_hand():
    spec = ModelSpec(ModelKind.TINY_MLP, (1, 1, 1))
    theta = pack_mlp(spec, [(np.array([[0.7]]), np.array([0.1])),
                            (np.array([[2.0]]), np.array([0.5]))])
    pred = 2.0 * math.tanh(0.7 * 0.3 + 0.1) + 0.5
    assert data_loss(spec, np.array([[0.3]]), np.array([0.0]), theta) == pytest.approx(0.5 * pred**2, rel=1e-15)


def central_difference(spec, X, y, theta):
    h = 1e-6 * (1.0 + float(np.linalg.norm(theta)))
    out = np.empty_like(theta)
    for j in range(theta.shape[0]):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        out[j] = (loss(spec, X, y, up) - loss(spec, X, y, down)) / (2.0 * h)
    return out


@pytest.mark.parametrize(
    "kind,dims,l2",
    [
        (ModelKind.RIDGE, (5,), 0.0),
        (ModelKind.RIDGE, (5,), 0.3),
        (ModelKind.LOGISTIC, (5,), 0.0),
        (ModelKind.LOGISTIC, (5,), 0.05),
        (ModelKind.TINY_MLP, (5, 4, 1), 0.0),
        (ModelKind.TINY_MLP, (5, 3, 2, 1), 0.1),
    ],
)
def test_gradient_matches_finite_differences(kind, dims, l2):
    spec = ModelSpec(kind, dims, l2)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((16, 5))
    if kind is ModelKind.LOGISTIC:
        y = (rng.random(16) < 0.5).astype(np.float64)
    else:
        y = rng.standard_normal(16)
    for _ in range(100):
        theta = 0.8 * rng.standard_normal(spec.param_count)
        got = grad(spec, X, y, theta)
        want = central_difference(spec, X, y, theta)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def unstacked_loss_and_grad(spec, X, y, theta):
    """The one-client formulas the stacked kernel replaced, as 2-D products."""
    n = X.shape[0]
    if spec.kind is ModelKind.RIDGE:
        residual = X @ theta - y
        value = 0.5 * float(np.mean(residual**2))
        g = X.T @ residual / n
    elif spec.kind is ModelKind.LOGISTIC:
        z = X @ theta
        value = float(np.mean(np.logaddexp(0.0, z) - y * z))
        g = X.T @ (0.5 * (1.0 + np.tanh(0.5 * z)) - y) / n
    else:
        layers, offset = [], 0
        for fan_in, fan_out in zip(spec.dims, spec.dims[1:]):
            w = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            layers.append((w, theta[offset : offset + fan_out]))
            offset += fan_out
        activations = [X]
        for w, b in layers[:-1]:
            activations.append(np.tanh(activations[-1] @ w + b))
        pred = (activations[-1] @ layers[-1][0] + layers[-1][1])[:, 0]
        value = 0.5 * float(np.mean((pred - y) ** 2))
        delta = ((pred - y) / n)[:, None]
        grads = []
        for level in range(len(layers) - 1, -1, -1):
            grads.append((activations[level].T @ delta, delta.sum(axis=0)))
            if level > 0:
                delta = (delta @ layers[level][0].T) * (1.0 - activations[level] ** 2)
        g = pack_mlp(spec, grads[::-1])
    return float(value + 0.5 * spec.l2 * float(theta @ theta)), g + spec.l2 * theta


@pytest.mark.parametrize(
    "kind,dims",
    [
        (ModelKind.RIDGE, (5,)),
        (ModelKind.LOGISTIC, (5,)),
        (ModelKind.TINY_MLP, (5, 4, 1)),
        (ModelKind.TINY_MLP, (5, 3, 2, 1)),
    ],
)
def test_kernel_matches_the_unstacked_formulas_bitwise(kind, dims):
    spec = ModelSpec(kind, dims, 0.07)
    rng = np.random.default_rng(12)
    for n in (1, 7, 33, 130):
        X = rng.standard_normal((4, n, 5))
        y = rng.standard_normal((4, n))
        thetas = 0.8 * rng.standard_normal((4, spec.param_count))
        stacked_values = stacked_loss(spec, X, y, thetas)
        stacked_grads = stacked_grad(spec, X, y, thetas)
        for i in range(4):
            value, g = unstacked_loss_and_grad(spec, X[i], y[i], thetas[i])
            assert loss(spec, X[i], y[i], thetas[i]) == value
            assert grad(spec, X[i], y[i], thetas[i]).tobytes() == g.tobytes()
            assert np.float64(value).tobytes() == stacked_values[i].tobytes()
            assert stacked_grads[i].tobytes() == g.tobytes()
        assert norms(thetas).tolist() == [float(np.linalg.norm(t)) for t in thetas]


@pytest.mark.parametrize(
    "kind,dims",
    [
        (ModelKind.RIDGE, (5,)),
        (ModelKind.RIDGE, (40,)),  # d > n for every n below
        (ModelKind.LOGISTIC, (5,)),
        (ModelKind.TINY_MLP, (5, 4, 1)),
        (ModelKind.TINY_MLP, (5, 3, 2, 1)),
    ],
)
def test_one_forward_pass_at_a_shared_theta_equals_the_row_kernels_bitwise(kind, dims):
    """stacked_loss_and_grad at one theta (p,) against stacked_loss and
    stacked_grad at that theta repeated to one row per client."""
    spec = ModelSpec(kind, dims, 0.07)
    rng = np.random.default_rng(13)
    for n in (1, 7, 33):
        X = rng.standard_normal((4, n, dims[0]))
        y = rng.standard_normal((4, n))
        theta = 0.8 * rng.standard_normal(spec.param_count)
        rows = np.repeat(theta[None], 4, axis=0)
        value, gradient = stacked_loss_and_grad(spec, X, y, theta)
        assert value.tobytes() == stacked_loss(spec, X, y, rows).tobytes() == stacked_loss(spec, X, y, theta).tobytes()
        assert gradient.tobytes() == stacked_grad(spec, X, y, rows).tobytes() == stacked_grad(spec, X, y, theta).tobytes()
        assert gradient.shape == (4, spec.param_count)


def test_logistic_terms_stay_within_two_ulp_of_logaddexp():
    # one one-feature sample per client and theta = 1: each client's loss is
    # the per-sample term at z = its feature
    spec = ModelSpec(ModelKind.LOGISTIC, (1,), 0.0)
    z = np.concatenate([np.linspace(-745.0, 745.0, 100_001), [0.0, 1e-300, -1e-300]])
    for label in (0.0, 1.0):
        y = np.full(len(z), label)
        got = stacked_loss(spec, z[:, None, None], y[:, None], np.ones(1))
        want = np.logaddexp(0.0, z) - y * z
        # where y = 1 the reference cancels z against the softplus, so its
        # rounding is that of the larger part: count ulps of that part
        scale = np.maximum(np.abs(want), np.abs(y * z))
        assert (np.abs(got - want) <= 2 * np.spacing(scale)).all()
    big = np.array([-1e4, 1e4])
    with np.errstate(over="raise", invalid="raise"):
        for label, want in ((0.0, [0.0, 1e4]), (1.0, [1e4, 0.0])):
            got = stacked_loss(spec, big[:, None, None], np.full((2, 1), label), np.ones(1))
            assert got.tolist() == want


@pytest.mark.parametrize("n,d", [(5, 5), (20, 4), (100, 20), (300, 60)])
@pytest.mark.parametrize("condition", [1.0, 1e4, 1e8])
def test_gram_form_ridge_gradient_stays_near_the_residual_form(n, d, condition):
    spec = ModelSpec(ModelKind.RIDGE, (d,), 0.05)
    rng = np.random.default_rng(n + d)
    X = np.empty((3, n, d))
    for i in range(3):
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        X[i] = np.sqrt(n) * (u * np.logspace(0, -np.log10(condition), d)) @ v.T
    # and one client whose columns share a large offset and span five decades of scale
    X[2] = 100.0 + rng.standard_normal((n, d)) * np.logspace(-3, 2, d)
    y = rng.standard_normal((3, n))
    thetas = rng.standard_normal((3, d))
    # with eta = 1 and one step, theta - (A theta + b) is the Gram-form gradient
    maps, offsets = models.ridge_operators(spec, models.ridge_moments(X, y), n, 1.0, 1)
    got = thetas - ((maps @ thetas[:, :, None])[:, :, 0] + offsets)
    for i in range(3):
        residual_form = X[i].T @ (X[i] @ thetas[i] - y[i]) / n + spec.l2 * thetas[i]
        assert np.linalg.norm(got[i] - residual_form) <= 1e-12 * np.linalg.norm(residual_form)


# ---------------------------------------------------------------------------
# curvature constants
# ---------------------------------------------------------------------------


def per_client_constants(spec, features):
    """regime_constants for ridge and logistic from one Gram matrix and one
    eigvalsh per client, as it was computed before it stacked each shape."""
    lam, n = spec.l2, features.shape[1]
    if spec.kind is ModelKind.RIDGE:
        betas, mus = [], []
        for X in features:
            eigs = np.linalg.eigvalsh(X.T @ X)
            betas.append(max(float(eigs[-1]), 0.0) / n + lam)
            mus.append(max(float(eigs[0]), 0.0) / n + lam)
        beta, mu = max(betas), min(mus)
        if mu > 0:
            return RegimeConstants(Regime.STRONGLY_CONVEX, beta, mu, lam)
        return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)
    beta = max(max(float(np.linalg.eigvalsh(X.T @ X)[-1]), 0.0) / (4.0 * n) for X in features) + lam
    if lam > 0:
        return RegimeConstants(Regime.STRONGLY_CONVEX, beta, lam, lam)
    return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)


@pytest.mark.parametrize("kind", [ModelKind.RIDGE, ModelKind.LOGISTIC])
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("shape", [(40, 100, 20), (12, 100, 20), (100, 20, 5), (6, 3, 5)])
def test_stacked_constants_equal_the_per_client_computation_bitwise(kind, l2, shape):
    clients, samples, features = shape
    rng = np.random.default_rng(clients + samples)
    X = rng.standard_normal((clients, samples, features)) * np.logspace(-1, 1, features)
    y = np.array([rng.standard_normal(samples) for _ in range(clients)])
    spec = ModelSpec(kind, (features,), l2)
    assert regime_constants(spec, X, y) == per_client_constants(spec, X)


def test_ridge_identity_constants():
    constants = regime_constants(RIDGE_ID, *IDENTITY_STACK)
    assert constants.regime is Regime.STRONGLY_CONVEX
    assert constants.beta == pytest.approx(0.6, rel=1e-15)
    assert constants.mu == pytest.approx(0.6, rel=1e-15)
    assert step_size_bound(constants) == pytest.approx(2.0 / 1.2, rel=1e-15)


# one client whose two samples are the same point
RANK_ONE_STACK = np.array([[[1.0, 1.0], [1.0, 1.0]]]), np.array([[1.0, 0.0]])


def test_ridge_rank_deficient_is_convex_without_l2():
    spec = ModelSpec(ModelKind.RIDGE, (2,), 0.0)
    constants = regime_constants(spec, *RANK_ONE_STACK)
    assert constants.regime is Regime.CONVEX
    assert constants.mu == 0.0
    assert constants.beta == pytest.approx(2.0, rel=1e-12)
    assert step_size_bound(constants) == pytest.approx(1.0, rel=1e-12)


def test_ridge_rank_deficient_with_l2_is_strongly_convex():
    spec = ModelSpec(ModelKind.RIDGE, (2,), 0.1)
    constants = regime_constants(spec, *RANK_ONE_STACK)
    assert constants.regime is Regime.STRONGLY_CONVEX
    assert constants.mu == pytest.approx(0.1, rel=1e-12)
    assert constants.beta == pytest.approx(2.1, rel=1e-12)


def test_logistic_constants_quarter_curvature():
    constants = regime_constants(LOGISTIC_ID, *IDENTITY_STACK)
    assert constants.regime is Regime.CONVEX
    assert constants.beta == pytest.approx(0.125, rel=1e-15)
    spec = ModelSpec(ModelKind.LOGISTIC, (2,), 0.1)
    constants = regime_constants(spec, *IDENTITY_STACK)
    assert constants.regime is Regime.STRONGLY_CONVEX
    assert constants.beta == pytest.approx(0.225, rel=1e-15)
    assert constants.mu == pytest.approx(0.1, rel=1e-15)


def test_envelope_takes_worst_client():
    rng = np.random.default_rng(7)
    small = 0.1 * rng.standard_normal((10, 3)), rng.standard_normal(10)
    large = 3.0 * rng.standard_normal((10, 3)), rng.standard_normal(10)
    spec = ModelSpec(ModelKind.RIDGE, (3,), 0.05)
    both = regime_constants(spec, *map(np.array, zip(small, large)))
    alone = regime_constants(spec, large[0][None], large[1][None])
    assert both.beta == pytest.approx(alone.beta, rel=1e-15)
    mu_small = regime_constants(spec, small[0][None], small[1][None]).mu
    assert both.mu == pytest.approx(min(mu_small, alone.mu), rel=1e-15)


def random_clients(rng, clients, samples, features):
    """A stack of random clients, each drawn as its features (samples,
    features) and then its targets (samples,)."""
    X, y = np.empty((clients, samples, features)), np.empty((clients, samples))
    for c in range(clients):
        X[c] = rng.standard_normal((samples, features))
        y[c] = rng.standard_normal(samples)
    return X, y


@settings(max_examples=40, deadline=None)
@given(a=finite_vec(3), b=finite_vec(3))
def test_smoothness_and_strong_convexity_inequalities(a, b):
    rng = np.random.default_rng(19)
    X, y = random_clients(rng, 3, 8, 3)
    spec = ModelSpec(ModelKind.RIDGE, (3,), 0.2)
    constants = regime_constants(spec, X, y)
    gap = np.linalg.norm(a - b)
    for c in range(3):
        diff = grad(spec, X[c], y[c], a) - grad(spec, X[c], y[c], b)
        assert np.linalg.norm(diff) <= constants.beta * gap + 1e-9
        assert float(diff @ (a - b)) >= constants.mu * gap**2 - 1e-9


@settings(max_examples=40, deadline=None)
@given(a=finite_vec(2, 2.0), b=finite_vec(2, 2.0))
def test_logistic_smoothness_inequality(a, b):
    constants = regime_constants(LOGISTIC_ID, *IDENTITY_STACK)
    diff = grad(LOGISTIC_ID, *IDENTITY_DATA, a) - grad(LOGISTIC_ID, *IDENTITY_DATA, b)
    assert np.linalg.norm(diff) <= constants.beta * np.linalg.norm(a - b) + 1e-9


def test_mlp_probe_is_deterministic_and_smooth_regime():
    spec = ModelSpec(ModelKind.TINY_MLP, (3, 4, 1))
    rng = np.random.default_rng(23)
    X, y = random_clients(rng, 2, 12, 3)
    first = regime_constants(spec, X, y)
    second = regime_constants(spec, X, y)
    assert first.regime is Regime.SMOOTH
    assert first.mu == 0.0
    assert first.beta == second.beta
    assert step_size_bound(first) is None


def test_mlp_probe_beta_covers_fresh_draws():
    spec = ModelSpec(ModelKind.TINY_MLP, (3, 4, 1))
    rng = np.random.default_rng(23)
    X, y = random_clients(rng, 2, 12, 3)
    beta = regime_constants(spec, X, y).beta
    fresh = np.random.default_rng(999)
    for _ in range(50):
        theta = 0.5 * fresh.standard_normal(spec.param_count)
        other = theta + 0.2 * fresh.standard_normal(spec.param_count)
        for c in range(2):
            num = np.linalg.norm(grad(spec, X[c], y[c], theta) - grad(spec, X[c], y[c], other))
            den = np.linalg.norm(theta - other)
            assert num <= beta * den + 1e-9


@pytest.mark.parametrize("dims", [(3, 4, 1), (3, 5, 2, 1)])
def test_mlp_probe_beta_equals_a_per_client_reference_loop(dims):
    # the probe stacks the clients: one kernel call per pair
    spec = ModelSpec(ModelKind.TINY_MLP, dims)
    rng = np.random.default_rng(5)
    X, y = random_clients(rng, 5, 12, 3)
    probe = np.random.default_rng(models._PROBE_SEED)
    worst = 0.0
    for _ in range(models._PROBE_PAIRS):
        theta = 0.5 * probe.standard_normal(spec.param_count)
        offset = 0.2 * probe.standard_normal(spec.param_count)
        gap = float(np.linalg.norm(offset))
        for c in range(5):
            diff = grad(spec, X[c], y[c], theta + offset) - grad(spec, X[c], y[c], theta)
            worst = max(worst, float(np.linalg.norm(diff)) / gap)
    assert regime_constants(spec, X, y).beta == models._PROBE_SAFETY * worst


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------


def test_param_count():
    assert ModelSpec(ModelKind.RIDGE, (7,)).param_count == 7
    assert ModelSpec(ModelKind.TINY_MLP, (3, 4, 1)).param_count == 21
    assert ModelSpec(ModelKind.TINY_MLP, (2, 3, 2, 1)).param_count == 9 + 8 + 3


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.RIDGE, (2, 2))
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.TINY_MLP, (3, 1))
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.TINY_MLP, (3, 4, 2))
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.RIDGE, (2,), -0.1)
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.TINY_MLP, (100, 99, 1))


def test_as_params_rejects_matrices():
    with pytest.raises(DimensionMismatchError):
        as_params(np.zeros((2, 2)))
    out = as_params([1, 2, 3])
    assert out.dtype == np.float64


def test_theta_length_checked_against_spec():
    with pytest.raises(DimensionMismatchError):
        loss(RIDGE_ID, *IDENTITY_DATA, np.zeros(3))


def test_regime_constants_validation():
    with pytest.raises(ValueError):
        RegimeConstants(Regime.CONVEX, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        RegimeConstants(Regime.STRONGLY_CONVEX, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RegimeConstants(Regime.STRONGLY_CONVEX, 1.0, 2.0, 0.0)


def test_accuracy_hand_value_and_kind_guard():
    data = np.eye(2), np.array([1.0, 0.0])
    spec = ModelSpec(ModelKind.LOGISTIC, (2,))
    assert accuracy(spec, *data, np.array([4.0, -4.0])) == 1.0
    assert accuracy(spec, *data, np.array([-4.0, 4.0])) == 0.0
    assert accuracy(spec, *data, np.array([4.0, 4.0])) == 0.5
    with pytest.raises(ValueError):
        accuracy(RIDGE_ID, *data, np.zeros(2))
