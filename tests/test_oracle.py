import numpy as np
import pytest

from conftest import (
    fed_for,
    grad,
    local_update,
    make_logistic,
    make_ridge,
    oracle_gaps,
    reference_gd,
    train_world,
)
from fedunlearn import models
from fedunlearn.datagen import DataRecipe, generate_data
from fedunlearn import oracle, unlearn
from fedunlearn.engine import FederationConfig, diverged, init_params, kernel_round
from fedunlearn.errors import DivergedTrainingError
from fedunlearn.history import TrainingHistory
from fedunlearn.models import ModelKind, ModelSpec, regime_constants
from fedunlearn.oracle import (
    check_bound,
    contraction_slack,
    empirical_sensitivity,
    retrained_sensitivity,
    ridge_sensitivity,
)
from fedunlearn.sensitivity import SensitivityLedger, contraction_factor
from fedunlearn.unlearn import StoppingRule, retrain_until
from conftest import exactly


# ---------------------------------------------------------------------------
# the bound against brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("clients", [3, 5])
def test_bound_holds_for_strongly_convex_ridge(local_steps, clients):
    spec, data = make_ridge(clients=clients, samples=12, features=4, seed=60 + clients, l2=0.1)
    fed, _ = fed_for(spec, *data, frac=1.0, local_steps=local_steps)
    theta0 = init_params(spec, 2)
    alphas, psi = oracle_gaps(spec, fed, 20, theta0)
    assert alphas.shape == psi.shape == (21, clients)
    for client in range(clients):
        report = check_bound(alphas[:, client], psi[:, client], tol=1e-8)
        assert report.passed, (client, report)
        assert report.checked_rounds == 21
        assert report.worst_slack <= 1e-8


@pytest.mark.parametrize("local_steps", [1, 3])
def test_bound_holds_for_convex_logistic(local_steps):
    spec, data = make_logistic(clients=4, samples=12, features=4, seed=70)
    fed, _ = fed_for(spec, *data, frac=0.5, local_steps=local_steps)
    theta0 = init_params(spec, 3)
    alphas, psi = oracle_gaps(spec, fed, 20, theta0)
    for client in range(alphas.shape[1]):
        report = check_bound(alphas[:, client], psi[:, client], tol=1e-8)
        assert report.passed, (client, report)


def test_bound_holds_under_skewed_weights():
    spec, data = make_ridge(clients=4, samples=10, features=3, seed=61, l2=0.1)
    fed = FederationConfig(*data, eta=0.3, local_steps=2, weights=[0.55, 0.25, 0.15, 0.05])
    theta0 = init_params(spec, 5)
    alphas, psi = oracle_gaps(spec, fed, 15, theta0)
    for client in range(alphas.shape[1]):
        report = check_bound(alphas[:, client], psi[:, client], tol=1e-8)
        assert report.passed, (client, report)


def test_smooth_mlp_bound_with_horizon_cap():
    recipe = DataRecipe(clients=3, samples_per_client=10, features=3,
                        heterogeneity=0.4, seed=80, noise=0.1)
    data = generate_data(recipe)
    spec = ModelSpec(ModelKind.TINY_MLP, (3, 4, 1), 0.05)
    constants = regime_constants(spec, *data)
    fed = FederationConfig(*data, eta=0.1 / constants.beta, local_steps=1)
    theta0 = init_params(spec, 4)
    cap = 1e6 * max(1.0, float(np.linalg.norm(theta0)))
    alphas, psi = oracle_gaps(spec, fed, 15, theta0)
    for client in range(alphas.shape[1]):
        report = check_bound(alphas[:, client], psi[:, client], tol=1e-8, psi_cap=cap)
        assert report.passed, (client, report)
        assert report.checked_rounds >= 2


def test_identical_twin_clients_have_zero_sensitivity():
    spec, (X, y) = make_ridge(clients=2, samples=10, features=3, seed=62, l2=0.1)
    fed = FederationConfig(X[[0, 0]], y[[0, 0]], eta=0.3, local_steps=2, weights=[0.5, 0.5])
    _, _, history, ledger = train_world(spec, fed, 12, theta0=init_params(spec, 1))
    # the engine runs the twins' local updates alike bit for bit
    alphas, psis = retrained_sensitivity(fed, spec, history)[:, 0], ledger.psi[:, 0]
    np.testing.assert_array_equal(alphas, np.zeros(13))
    report = check_bound(alphas, psis)
    assert report.passed
    assert report.tightness == 0.0
    # the closed form differs from the engine only in rounding
    closed = ridge_sensitivity(fed, spec, history)[:, 0]
    assert closed.max() < 1e-12
    assert check_bound(closed, psis).passed


def test_strongly_convex_gap_contracts_once_the_target_is_gone():
    spec, data = make_ridge(clients=3, samples=12, features=4, seed=63, l2=0.2)
    fed, constants = fed_for(spec, *data, frac=0.9, local_steps=2)
    decay = contraction_factor(constants, fed.eta) ** fed.local_steps
    theta0 = init_params(spec, 6)
    survivors = [1, 2]
    full = retrain_until(spec, fed, theta0, range(3), exactly(8))
    branch_a = full.final_model
    branch_b = retrain_until(spec, fed, theta0, range(3), exactly(7)).final_model
    # both branches now train on the survivors only; the gap must contract
    gaps = [float(np.linalg.norm(branch_a - branch_b))]
    for _ in range(10):
        branch_a = retrain_until(spec, fed, branch_a, survivors, exactly(1)).final_model
        branch_b = retrain_until(spec, fed, branch_b, survivors, exactly(1)).final_model
        gaps.append(float(np.linalg.norm(branch_a - branch_b)))
    for before, after in zip(gaps, gaps[1:]):
        assert after <= decay * before * (1.0 + 1e-10)


def test_empirical_sensitivity_reads_alpha_from_the_history():
    spec, data = make_ridge(clients=3, samples=12, features=4, seed=64, l2=0.1)
    fed, _ = fed_for(spec, *data, frac=0.9, local_steps=2)
    theta0, _, history, _ = train_world(spec, fed, 6, theta0=init_params(spec, 64))
    retrained = retrained_sensitivity(fed, spec, history)
    closed = empirical_sensitivity(fed, spec, history)
    assert retrained.shape == closed.shape == (7, 3)
    for client, (trace, closed_trace) in enumerate(zip(retrained.T, closed.T)):
        without, by_round = [theta0], [theta0]
        survivors = fed.cohort((c for c in range(3) if c != client), spec)
        maps, offsets = survivors.affine
        for n in range(6):
            # each round of the run without the client is its cohort's aggregate map
            without.append(maps @ without[-1] + offsets)
            by_round.append(kernel_round(survivors, by_round[-1], n)[1])
        want = [float(np.linalg.norm(a - b)) for a, b in zip(history.models, without)]
        np.testing.assert_array_equal(trace, want)
        np.testing.assert_allclose(closed_trace, want, rtol=1e-12, atol=0)
        per_round = [float(np.linalg.norm(a - b)) for a, b in zip(history.models, by_round)]
        np.testing.assert_allclose(trace, per_round, rtol=1e-12, atol=0)


def test_empirical_sensitivity_of_a_logistic_federation_is_the_gap_to_each_run_without_a_client():
    spec, data = make_logistic(clients=4, samples=12, features=3, seed=71)
    fed, _ = fed_for(spec, *data, frac=0.5, local_steps=2)
    theta0, _, history, _ = train_world(spec, fed, 9, theta0=init_params(spec, 71))
    alphas = empirical_sensitivity(fed, spec, history)
    assert alphas.shape == (10, 4)
    for client in range(4):
        without = TrainingHistory(theta0)
        retrain_until(spec, fed, theta0, [c for c in range(4) if c != client], exactly(9), history=without)
        assert without.end_position == 9
        want = [float(np.linalg.norm(a - b)) for a, b in zip(history.models, without.models)]
        assert alphas[:, client].tobytes() == np.array(want).tobytes()


def test_the_oracle_evaluates_no_loss(monkeypatch):
    spec, data = make_ridge(clients=4, samples=12, features=4, seed=65, l2=0.1)
    fed, _ = fed_for(spec, *data, frac=0.9, local_steps=2)
    _, _, history, _ = train_world(spec, fed, 5, theta0=init_params(spec, 65))
    calls, kernel_calls = [], []
    real, real_kernel = unlearn.federation_loss_and_grads, models.stacked_loss

    def counted(cohort, theta):
        calls.append(len(cohort.active))
        return real(cohort, theta)

    def counted_kernel(*args):
        kernel_calls.append(args[1].shape[0])
        return real_kernel(*args)

    monkeypatch.setattr(unlearn, "federation_loss_and_grads", counted)
    monkeypatch.setattr(models, "stacked_loss", counted_kernel)
    for sensitivity in (empirical_sensitivity, retrained_sensitivity):
        alphas = sensitivity(fed, spec, history)
        assert calls == [] and kernel_calls == []
        assert alphas.shape == (6, 4)
    # nor does the fixed-round all-client run it checks; a finite threshold
    # reads the loss from min_rounds on, from the cohort's quadratic form,
    # whose anchor takes one kernel call the first time
    retrain_until(spec, fed, history.models[0], range(4), exactly(5))
    assert calls == [] and kernel_calls == []
    reading = StoppingRule(0.0, 2, 5)
    retrain_until(spec, fed, history.models[0], range(4), reading)
    assert calls == [4] * 3
    assert kernel_calls == [4]
    # a second run on the same federation reads the form built
    retrain_until(spec, fed, history.models[0], range(4), reading)
    assert calls == [4] * 6
    assert kernel_calls == [4]


def test_check_bound_refuses_the_gaps_and_ledger_of_different_runs():
    spec, (X, y) = make_ridge(seed=64)
    fed, _ = fed_for(spec, X, y)
    _, _, history, ledger = train_world(spec, fed, 3)
    _, _, short_history, _ = train_world(spec, fed, 2)
    psi = ledger.psi
    alphas = empirical_sensitivity(fed, spec, history)
    assert alphas.shape == psi.shape
    with pytest.raises(ValueError, match="equal length"):
        check_bound(alphas[:, 0], psi[:-1, 0])
    for sensitivity in (empirical_sensitivity, ridge_sensitivity, retrained_sensitivity):
        short = sensitivity(fed, spec, short_history)
        with pytest.raises(ValueError, match="equal length"):
            check_bound(short[:, 0], psi[:, 0])
    # a federation of other clients has as many columns as it has clients
    other, _ = fed_for(spec, X[:2], y[:2])
    assert empirical_sensitivity(other, spec, history).shape == (4, 2) != psi.shape


# ---------------------------------------------------------------------------
# the closed-form ridge oracle against the engine oracle
# ---------------------------------------------------------------------------


def uneven_ridge(counts, features=4, seed=90, l2=0.1):
    """Ridge clients of one data shape, max(counts) samples each, and the
    uneven weights of clients holding counts[i] samples."""
    spec, data = make_ridge(
        clients=len(counts), samples=max(counts), features=features, seed=seed, l2=l2
    )
    counts = np.array(counts, dtype=np.float64)
    return spec, data, counts / counts.sum()


def assert_same_alphas(closed, retrained):
    assert closed.shape == retrained.shape
    assert (closed[0] == 0.0).all() and (retrained[0] == 0.0).all()
    np.testing.assert_allclose(closed[1:], retrained[1:], rtol=1e-10, atol=0)


@pytest.mark.parametrize("local_steps", [1, 5])
@pytest.mark.parametrize("weights", [None, [0.1, 0.45, 0.05, 0.25, 0.15]])
def test_closed_form_matches_the_engine_oracle(monkeypatch, local_steps, weights):
    # weights None: the uneven weights of clients holding 7, 12, 9, 16 and 5 samples
    spec, data, uneven = uneven_ridge([7, 12, 9, 16, 5])
    weights = uneven if weights is None else weights
    fed, _ = fed_for(spec, *data, frac=0.9, local_steps=local_steps, weights=weights)
    _, _, history, ledger = train_world(spec, fed, 25, theta0=init_params(spec, 91))
    # the closed form takes the operators training built, and builds none
    calls = []
    monkeypatch.setattr(models, "ridge_operators", lambda *args: calls.append(args))
    closed = ridge_sensitivity(fed, spec, history)
    assert calls == []
    assert_same_alphas(closed, retrained_sensitivity(fed, spec, history))
    assert all(check_bound(alphas, psis).passed for alphas, psis in zip(closed.T, ledger.psi.T))


def test_both_oracles_flag_the_same_first_violation_of_a_shrunk_bound():
    spec, data, weights = uneven_ridge([8, 14, 10, 6], seed=92)
    fed, _ = fed_for(spec, *data, frac=0.9, local_steps=3, weights=weights)
    _, contraction, history, ledger = train_world(spec, fed, 20, theta0=init_params(spec, 92))
    # the same increments under a decay far faster than the true contraction
    shrunk = SensitivityLedger(0.2 * contraction, ledger.local_steps, ledger.client_count)
    for row in ledger.deltas:
        shrunk.extend([row])
    closed = [check_bound(a, p) for a, p in zip(ridge_sensitivity(fed, spec, history).T, shrunk.psi.T)]
    retrained = [check_bound(a, p) for a, p in zip(retrained_sensitivity(fed, spec, history).T, shrunk.psi.T)]
    assert not all(report.passed for report in closed)
    for a, b in zip(closed, retrained):
        assert (a.passed, a.first_violation) == (b.passed, b.first_violation)


def test_ridge_wider_than_its_data_retrains_through_the_engine(monkeypatch):
    calls = []
    real = oracle.retrain_until

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "retrain_until", counted)
    # d <= n, so every client has operators: closed form
    spec, data, weights = uneven_ridge([4, 5, 4])
    fed, _ = fed_for(spec, *data, frac=0.9, local_steps=2, weights=weights)
    _, _, history, _ = train_world(spec, fed, 4)
    empirical_sensitivity(fed, spec, history)
    assert calls == []
    # clients of 3 samples have d > n and no operators, though the federation
    # holds 9 samples, more than d
    spec, (X, y) = make_ridge(clients=3, samples=3, features=4, seed=90, l2=0.1)
    fed, _ = fed_for(spec, X, y, frac=0.9, local_steps=2, weights=[0.25, 0.45, 0.3])
    _, _, history, _ = train_world(spec, fed, 4)
    alphas = empirical_sensitivity(fed, spec, history)
    assert calls == [[1, 2], [0, 2], [0, 1]]
    with pytest.raises(ValueError, match="operators"):
        ridge_sensitivity(fed, spec, history)
    # the per-step kernel, written out, gives the same leave-one-out runs
    for client in range(3):
        without, survivors = [history.models[0]], [c for c in range(3) if c != client]
        q = np.array([fed.weights[c] for c in survivors]) / sum(fed.weights[c] for c in survivors)
        for _ in range(4):
            local = [reference_gd(spec, X[c], y[c], without[-1], fed.eta, 2) for c in survivors]
            without.append(q @ np.array(local))
        want = [float(np.linalg.norm(a - b)) for a, b in zip(history.models, without)]
        np.testing.assert_allclose(alphas[:, client], want, rtol=1e-10, atol=1e-14)


def test_a_diverging_leave_one_out_run_raises():
    spec, data = make_ridge(clients=3, samples=10, features=3, seed=93, l2=0.1)
    fed = FederationConfig(*data, eta=50.0, local_steps=1)
    # a recorded run of 30 rounds; the oracle only follows its start
    history = TrainingHistory.from_models(np.zeros((31, 3)))
    for sensitivity in (ridge_sensitivity, retrained_sensitivity):
        with np.errstate(all="ignore"), pytest.raises(DivergedTrainingError) as err:
            sensitivity(fed, spec, history)
        # the engine's error, at a round of the run
        assert str(err.value) == str(diverged(err.value.round_index))
        assert 0 <= err.value.round_index < 30


# ---------------------------------------------------------------------------
# the contraction premise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("local_steps", [1, 3])
def test_the_exact_ridge_contraction_check_fails_below_the_largest_step_norm(local_steps):
    spec, data = make_ridge(clients=4, samples=12, features=4, seed=94, l2=0.1)
    fed, constants = fed_for(spec, *data, frac=1.0, local_steps=local_steps)
    contraction = contraction_factor(constants, fed.eta)
    cohort = fed.cohort(range(4), spec)
    features = cohort.features
    assert cohort.operators is not None
    # ||P_i||_2 of one local step, written out from the data
    eye = np.eye(4)
    largest = max(np.linalg.norm(eye - fed.eta * (X.T @ X / len(X) + spec.l2 * eye), 2) for X in features)
    slack = contraction_slack(fed, spec, contraction)
    assert slack < 0.0
    assert slack == pytest.approx(largest - contraction, rel=0, abs=1e-12)
    # the exact ratio bounds every sampled pair's ||gap|| / ||theta - phi||
    for _, offset, near, far in models.gradient_pairs(spec, features, cohort.targets, 8_191, 200):
        ratios = models.norms(offset + fed.eta * (near - far)) / np.linalg.norm(offset)
        assert ratios.max() <= largest * (1 + 1e-12)
    # verify fails the check once the slack exceeds 1e-9
    for margin in (-1e-6, 1e-6):
        assert contraction_slack(fed, spec, largest + margin) == pytest.approx(-margin, rel=1e-6)


# ---------------------------------------------------------------------------
# check_bound on crafted traces
# ---------------------------------------------------------------------------


def test_check_bound_flags_a_violation():
    report = check_bound(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.5, 2.0]))
    assert not report.passed
    assert report.first_violation == 1
    assert report.worst_slack == 0.5
    assert report.tightness == 0.5  # at the last round, not the worst


def test_check_bound_respects_the_cap():
    alphas = np.array([0.0, 1.0, 5.0])
    psis = np.array([0.0, 2.0, 1e9])
    capped = check_bound(alphas, psis, psi_cap=1e6)
    assert capped.passed
    assert capped.checked_rounds == 2
    assert capped.tightness == 0.5  # the last round inside the cap
    uncapped = check_bound(alphas, psis)
    assert uncapped.checked_rounds == 3


def test_check_bound_tolerance_is_respected():
    alphas, psis = np.array([0.0, 1.0 + 5e-9]), np.array([0.0, 1.0])
    assert check_bound(alphas, psis, tol=1e-8).passed
    assert not check_bound(alphas, psis, tol=1e-9).passed


def test_trace_validation():
    with pytest.raises(ValueError, match="equal length"):
        check_bound(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# independent gradient descent
# ---------------------------------------------------------------------------


def test_reference_gd_zero_steps_copies():
    theta0 = np.array([1.0, 2.0])
    spec, (X, y) = make_ridge(clients=2, features=2, seed=65)
    out = reference_gd(spec, X[0], y[0], theta0, 0.1, 0)
    np.testing.assert_array_equal(out, theta0)
    assert out is not theta0


def test_reference_gd_matches_local_update_everywhere():
    rng = np.random.default_rng(66)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        data = rng.standard_normal((n, d)), rng.standard_normal(n)
        spec = ModelSpec(ModelKind.RIDGE, (d,), float(rng.random() * 0.3))
        theta0 = rng.standard_normal(d)
        eta = float(0.01 + 0.2 * rng.random())
        steps = int(rng.integers(1, 6))
        a = reference_gd(spec, *data, theta0, eta, steps)
        b = local_update(spec, *data, theta0, eta, steps)
        np.testing.assert_array_equal(a, b)


def test_reference_gd_reaches_the_ridge_optimum():
    spec, (X, y) = make_ridge(clients=2, samples=30, features=3, seed=67, l2=0.2)
    constants = regime_constants(spec, X[:1], y[:1])
    out = reference_gd(spec, X[0], y[0], np.zeros(3), 1.0 / constants.beta, 4000)
    assert float(np.linalg.norm(grad(spec, X[0], y[0], out))) < 1e-8


def test_reference_gd_validation_and_divergence():
    spec, (X, y) = make_ridge(seed=68)
    with pytest.raises(ValueError):
        reference_gd(spec, X[0], y[0], np.zeros(4), 0.1, -1)
    with np.errstate(over="ignore"), pytest.raises(DivergedTrainingError):
        reference_gd(spec, X[0], y[0], np.ones(4), 1e12, 400)
