"""Shared builders for the test suite.

Scenario constants here are frozen; the suite assumes them bit-for-bit.
"""
import math

import numpy as np
import pytest

from fedunlearn import models, runner, unlearn
from fedunlearn.datagen import DataRecipe, generate_data
from fedunlearn.engine import FederationConfig, federation_loss, init_params, kernel_round, local_updates
from fedunlearn.errors import DimensionMismatchError, DivergedTrainingError
from fedunlearn.history import TrainingHistory
from fedunlearn.models import ModelKind, ModelSpec, Regime, regime_constants
from fedunlearn.oracle import empirical_sensitivity
from fedunlearn.sensitivity import SensitivityLedger, client_increments, contraction_factor
from fedunlearn.unlearn import StoppingRule, retrain_until, stopping_criterion

# calibration multiplier at epsilon=1, delta=0.05
SQ = math.sqrt(2.0 * math.log(25.0))


@pytest.fixture(autouse=True)
def no_shared_preparation(monkeypatch):
    """Each test starts with the commands' shared PreparedExperiment entry
    empty, so no test reads one another test prepared."""
    monkeypatch.setattr(runner, "_shared", None)


def exactly(n):
    """Stopping rule that runs exactly n rounds, convergence ignored."""
    return StoppingRule(float("-inf"), 0, n)


def converged_after(n):
    """Stopping rule that runs exactly n rounds and reports convergence."""
    return StoppingRule(float("inf"), n, n)


def make_ridge(clients=3, samples=20, features=4, het=0.5, seed=0, l2=0.1, noise=0.1):
    recipe = DataRecipe(
        clients=clients,
        samples_per_client=samples,
        features=features,
        heterogeneity=het,
        seed=seed,
        noise=noise,
    )
    return ModelSpec(ModelKind.RIDGE, (features,), l2), generate_data(recipe)


def make_logistic(clients=3, samples=20, features=4, het=0.5, seed=0, l2=0.0, noise=0.1):
    recipe = DataRecipe(
        clients=clients,
        samples_per_client=samples,
        features=features,
        heterogeneity=het,
        seed=seed,
        task="classification",
        noise=noise,
    )
    return ModelSpec(ModelKind.LOGISTIC, (features,), l2), generate_data(recipe)


def fed_for(spec, features, targets, *, frac=1.0, local_steps=1, weights=None):
    """Federation of the stack (features, targets) with eta at `frac` of the
    regime's admissible bound.

    Smooth regime has no bound; frac is taken relative to 1/beta there.
    """
    constants = regime_constants(spec, features, targets)
    bound = step_size_bound(constants)
    if bound is None or not np.isfinite(bound):
        bound = 2.0 / constants.beta
    eta = frac * bound
    fed = FederationConfig(features, targets, eta=eta, local_steps=local_steps, weights=weights)
    return fed, constants


def train_world(spec, fed, rounds, *, seed=1, theta0=None, init_mode="normal"):
    """Train `rounds` FedAvg rounds recording history and ledger from scratch.

    Without theta0 the start is init_params(spec, seed, init_mode).
    """
    constants = regime_constants(spec, fed.features, fed.targets)
    contraction = contraction_factor(constants, fed.eta)
    if theta0 is None:
        theta0 = init_params(spec, seed, init_mode)
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(contraction, fed.local_steps, fed.client_count)
    retrain_until(
        spec,
        fed,
        theta0,
        range(fed.client_count),
        exactly(rounds),
        ledger=ledger,
        history=history,
    )
    return theta0, contraction, history, ledger


def oracle_traces(spec, fed, rounds, theta0):
    """Train `rounds` all-client rounds from theta0, then run the oracle on them."""
    _, _, history, ledger = train_world(spec, fed, rounds, theta0=theta0)
    return empirical_sensitivity(fed, spec, history, ledger)


def ridge_opt(features, targets, weights, active, l2):
    """Closed-form minimiser of the weighted ridge objective of the stack
    (features, targets) over `active`.

    Normal equations of sum_i q_i (0.5 ||X_i t - y_i||^2 / n + 0.5 l2 ||t||^2)
    with q renormalised over the active set.  Returns (theta, loss value).
    """
    active = sorted(active)
    q = np.array([weights[i] for i in active], dtype=np.float64)
    q = q / q.sum()
    n, d = features.shape[1:]
    lhs = np.zeros((d, d))
    rhs = np.zeros(d)
    for qi, i in zip(q, active):
        X, y = features[i], targets[i]
        lhs += qi * (X.T @ X / n + l2 * np.eye(d))
        rhs += qi * (X.T @ y / n)
    theta = np.linalg.solve(lhs, rhs)
    spec = ModelSpec(ModelKind.RIDGE, (d,), l2)
    value = sum(qi * loss(spec, features[i], targets[i], theta) for qi, i in zip(q, active))
    return theta, float(value)


def assert_near(got, want, rel=1e-13):
    """||got - want|| <= rel ||want||: a ridge round with d <= n is one affine
    map per client and meets the per-step kernel only to rounding."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want), (got, want)


def two_client_toy():
    """Two one-sample clients in 2-D with an exactly solvable ridge problem,
    as the stack (features (2, 1, 2), targets (2, 1))."""
    return np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([[1.0], [1.0]])


# ---------------------------------------------------------------------------
# independent references the package itself never calls
# ---------------------------------------------------------------------------


def segment_owner(rollbacks, position):
    """Which request's retraining produced `position` once requests with these
    rollback positions have run in order: the latest one whose rollback is at
    or before it, or 0 (training) if none is."""
    return max((u for u, rollback in enumerate(rollbacks, start=1) if rollback <= position), default=0)


def step_size_bound(constants) -> float | None:
    """Largest admissible step size for the regime, or None when unrestricted."""
    if constants.regime is Regime.CONVEX:
        return np.inf if constants.beta == 0 else 2.0 / constants.beta
    if constants.regime is Regime.STRONGLY_CONVEX:
        return 2.0 / (constants.beta + constants.mu)
    return None


def local_update(spec, features, targets, theta, eta, local_steps):
    """Run `local_steps` gradient steps from theta on the loss of one client's
    rows, features (n, d) and targets (n,)."""
    return local_updates(spec, features[None], targets[None], theta, eta, local_steps)[0]


def pack_mlp(spec, layers):
    """Flatten (W, b) pairs into the canonical parameter vector."""
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    theta = np.concatenate(parts)
    if theta.shape[0] != spec.param_count:
        raise DimensionMismatchError("packed layers do not match spec dims")
    return theta


def loss(spec, features, targets, theta):
    """Regularised per-sample-mean loss of theta on one client's rows, a
    stack of one in the kernel: the per-client reference for the engine's
    retained losses."""
    return float(models.stacked_loss(spec, features[None], targets[None], models.as_params(theta)[None])[0])


def grad(spec, features, targets, theta):
    """Gradient of loss on one client's rows, a stack of one in the kernel."""
    return models.stacked_grad(spec, features[None], targets[None], models.as_params(theta)[None])[0]


def client_increments_direct(cohort, client_models, global_after):
    """||aggregate(all) - aggregate(without c)|| for every client c of one
    round of `cohort`, from its client models (active, p) and aggregate.

    The reference `sensitivity.client_increments` is checked against: row r
    of the stacked computation renormalises cohort.weights without client
    active[r], exactly as renormalized_weights does, and aggregates the other
    clients in ascending order (its own term is an exact zero, which leaves
    the running sum alone).
    """
    cohort.increment_scale  # refuses a client carrying the full weight
    active = list(cohort.active)
    m = len(active)
    rest = np.tile(cohort.weights, (m, 1))
    rest[np.arange(m), active] = 0.0
    rest = (rest / rest.sum(axis=1)[:, None])[:, active]
    without = np.add.accumulate(rest[:, :, None] * client_models[None], axis=1)[:, -1]
    out = np.zeros(cohort.weights.shape[0])
    out[active] = models.norms(global_after - without)
    return out


def round_increments(cohort, client_models, global_after):
    """client_increments of one round on its own, as one row."""
    return client_increments(cohort, models.norms(client_models - global_after)[None])[0]


def round_loop(spec, fed, theta0, active, stopping):
    """retrain_until's run as a loop of kernel_round calls, each round's
    client models guarded (norm at most 1e8) and its increments taken on
    their own (round_increments, zero when one client carries the cohort's
    full weight), and each model's loss from federation_loss.

    A run through the kernel equals it bit for bit; an affine run (a cohort
    with an aggregate map) equals it to rounding.  Returns the models
    (rounds + 1, d), the deltas (rounds, clients) and the losses.
    """
    cohort = fed.cohort(active, spec)
    lone = (cohort.active_weights >= 1.0).any()
    theta = np.array(theta0, dtype=np.float64)
    kept, deltas, losses = [theta], [], [federation_loss(cohort, theta)]
    while not stopping_criterion(len(deltas), losses[-1], stopping):
        local, theta = kernel_round(cohort, theta, len(deltas))
        if not (models.norms(local) <= 1e8).all():
            raise DivergedTrainingError("a client model left the norm", round_index=len(deltas))
        deltas.append(np.zeros(fed.client_count) if lone else round_increments(cohort, local, theta))
        kept.append(theta)
        losses.append(federation_loss(cohort, theta))
    return np.array(kept), np.array(deltas).reshape(len(deltas), fed.client_count), losses


def counted_losses(monkeypatch):
    """The (theta, loss) of each retained loss retrain_until evaluates, in order."""
    read, real = [], unlearn.federation_loss_and_grads

    def counted(cohort, theta):
        value, grads = real(cohort, theta)
        read.append((theta.copy(), value))
        return value, grads

    monkeypatch.setattr(unlearn, "federation_loss_and_grads", counted)
    return read


def reference_gd(spec, features, targets, theta0, eta, steps):
    """Plain full-batch gradient descent, written independently of the engine."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    theta = np.array(theta0, dtype=np.float64)
    for _ in range(steps):
        theta = theta - eta * grad(spec, features, targets, theta)
        if not np.all(np.isfinite(theta)):
            raise DivergedTrainingError("reference GD diverged")
    return theta
