import numpy as np
import pytest

from conftest import fed_for, make_logistic, make_ridge, oracle_traces, train_world
from fedunlearn import models
from fedunlearn.datagen import DataRecipe, generate_data
from fedunlearn.engine import FederationConfig, fedavg_round, init_params, local_update
from fedunlearn.errors import DivergedTrainingError
from fedunlearn.models import ClientDataset, ModelKind, ModelSpec, grad, regime_constants
from fedunlearn.oracle import (
    SensitivityTrace,
    check_bound,
    empirical_sensitivity,
    reference_gd,
)
from fedunlearn.sensitivity import contraction_factor
from fedunlearn.unlearn import retrain_until
from conftest import exactly


# ---------------------------------------------------------------------------
# the bound against brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("clients", [3, 5])
def test_bound_holds_for_strongly_convex_ridge(local_steps, clients):
    spec, datasets = make_ridge(clients=clients, samples=12, features=4, seed=60 + clients, l2=0.1)
    fed, _ = fed_for(spec, datasets, frac=1.0, local_steps=local_steps)
    theta0 = init_params(spec, 2)
    traces = oracle_traces(spec, fed, 20, theta0)
    assert [trace.client for trace in traces] == list(range(clients))
    for client, trace in enumerate(traces):
        report = check_bound(trace, tol=1e-8)
        assert report.passed, (client, report)
        assert report.checked_rounds == 21
        assert report.worst_slack <= 1e-8


@pytest.mark.parametrize("local_steps", [1, 3])
def test_bound_holds_for_convex_logistic(local_steps):
    spec, datasets = make_logistic(clients=4, samples=12, features=4, seed=70)
    fed, _ = fed_for(spec, datasets, frac=0.5, local_steps=local_steps)
    theta0 = init_params(spec, 3)
    for client, trace in enumerate(oracle_traces(spec, fed, 20, theta0)):
        report = check_bound(trace, tol=1e-8)
        assert report.passed, (client, report)


def test_bound_holds_under_skewed_weights():
    spec, datasets = make_ridge(clients=4, samples=10, features=3, seed=61, l2=0.1)
    fed = FederationConfig.from_datasets(
        datasets, eta=0.3, local_steps=2, weights=[0.55, 0.25, 0.15, 0.05]
    )
    theta0 = init_params(spec, 5)
    for client, trace in enumerate(oracle_traces(spec, fed, 15, theta0)):
        report = check_bound(trace, tol=1e-8)
        assert report.passed, (client, report)


def test_smooth_mlp_bound_with_horizon_cap():
    recipe = DataRecipe(clients=3, samples_per_client=10, features=3,
                        heterogeneity=0.4, seed=80, noise=0.1)
    datasets = generate_data(recipe)
    spec = ModelSpec(ModelKind.TINY_MLP, (3, 4, 1), 0.05)
    constants = regime_constants(spec, datasets)
    fed = FederationConfig.from_datasets(datasets, eta=0.1 / constants.beta, local_steps=1)
    theta0 = init_params(spec, 4)
    cap = 1e6 * max(1.0, float(np.linalg.norm(theta0)))
    for client, trace in enumerate(oracle_traces(spec, fed, 15, theta0)):
        report = check_bound(trace, tol=1e-8, psi_cap=cap)
        assert report.passed, (client, report)
        assert report.checked_rounds >= 2


def test_identical_twin_clients_have_zero_sensitivity():
    spec, datasets = make_ridge(clients=2, samples=10, features=3, seed=62, l2=0.1)
    fed = FederationConfig.from_datasets(
        [datasets[0], datasets[0]], eta=0.3, local_steps=2, weights=[0.5, 0.5]
    )
    trace = oracle_traces(spec, fed, 12, init_params(spec, 1))[0]
    np.testing.assert_array_equal(trace.alphas, np.zeros(13))
    report = check_bound(trace)
    assert report.passed
    assert report.tightness == 0.0


def test_strongly_convex_gap_contracts_once_the_target_is_gone():
    spec, datasets = make_ridge(clients=3, samples=12, features=4, seed=63, l2=0.2)
    fed, constants = fed_for(spec, datasets, frac=0.9, local_steps=2)
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


def test_empirical_sensitivity_reads_alpha_from_the_history_and_psi_from_the_ledger():
    spec, datasets = make_ridge(clients=3, samples=12, features=4, seed=64, l2=0.1)
    fed, _ = fed_for(spec, datasets, frac=0.9, local_steps=2)
    theta0, _, history, ledger = train_world(spec, fed, 6, theta0=init_params(spec, 64))
    traces = empirical_sensitivity(fed, spec, history, ledger)
    for client, trace in enumerate(traces):
        np.testing.assert_array_equal(trace.psis, ledger.psi[:, client])
        without = [theta0]
        for n in range(6):
            survivors = tuple(c for c in range(3) if c != client)
            without.append(fedavg_round(spec, fed, without[-1], survivors, n).global_after)
        want = [float(np.linalg.norm(a - b)) for a, b in zip(history.models, without)]
        np.testing.assert_array_equal(trace.alphas, want)


def test_the_oracle_evaluates_no_loss(monkeypatch):
    spec, datasets = make_ridge(clients=4, samples=12, features=4, seed=65, l2=0.1)
    fed, _ = fed_for(spec, datasets, frac=0.9, local_steps=2)
    _, _, history, ledger = train_world(spec, fed, 5, theta0=init_params(spec, 65))
    calls = []
    real = models.stacked_loss

    def counted(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(models, "stacked_loss", counted)
    traces = empirical_sensitivity(fed, spec, history, ledger)
    assert calls == []
    assert [t.client for t in traces] == [0, 1, 2, 3]
    # the all-client run it checks does evaluate the loss every round
    retrain_until(spec, fed, history.models[0], range(4), exactly(5))
    assert calls == [4] * 6
    # skipping the loss is refused where the loss decides when to stop
    with pytest.raises(ValueError, match="fixed-round"):
        retrain_until(spec, fed, history.models[0], range(4), exactly(5), track_loss=False)


def test_empirical_sensitivity_rejects_a_history_and_ledger_of_different_runs():
    spec, datasets = make_ridge(seed=64)
    fed, _ = fed_for(spec, datasets)
    _, _, history, ledger = train_world(spec, fed, 3)
    _, _, short_history, _ = train_world(spec, fed, 2)
    with pytest.raises(ValueError, match="one run"):
        empirical_sensitivity(fed, spec, short_history, ledger)
    other, _ = fed_for(spec, datasets[:2])
    with pytest.raises(ValueError, match="one run"):
        empirical_sensitivity(other, spec, history, ledger)


# ---------------------------------------------------------------------------
# check_bound on crafted traces
# ---------------------------------------------------------------------------


def test_check_bound_flags_a_violation():
    trace = SensitivityTrace(0, np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.5, 2.0]))
    report = check_bound(trace)
    assert not report.passed
    assert report.first_violation == 1
    assert report.worst_slack == 0.5
    assert report.tightness == 2.0


def test_check_bound_respects_the_cap():
    alphas = np.array([0.0, 1.0, 5.0])
    psis = np.array([0.0, 2.0, 1e9])
    capped = check_bound(SensitivityTrace(0, alphas, psis), psi_cap=1e6)
    assert capped.passed
    assert capped.checked_rounds == 2
    uncapped = check_bound(SensitivityTrace(0, alphas, psis))
    assert uncapped.checked_rounds == 3


def test_check_bound_tolerance_is_respected():
    trace = SensitivityTrace(0, np.array([0.0, 1.0 + 5e-9]), np.array([0.0, 1.0]))
    assert check_bound(trace, tol=1e-8).passed
    assert not check_bound(trace, tol=1e-9).passed


def test_trace_validation():
    with pytest.raises(ValueError):
        SensitivityTrace(0, np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# independent gradient descent
# ---------------------------------------------------------------------------


def test_reference_gd_zero_steps_copies():
    theta0 = np.array([1.0, 2.0])
    spec, datasets = make_ridge(clients=2, features=2, seed=65)
    out = reference_gd(spec, datasets[0], theta0, 0.1, 0)
    np.testing.assert_array_equal(out, theta0)
    assert out is not theta0


def test_reference_gd_matches_local_update_everywhere():
    rng = np.random.default_rng(66)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        data = ClientDataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        spec = ModelSpec(ModelKind.RIDGE, (d,), float(rng.random() * 0.3))
        theta0 = rng.standard_normal(d)
        eta = float(0.01 + 0.2 * rng.random())
        steps = int(rng.integers(1, 6))
        a = reference_gd(spec, data, theta0, eta, steps)
        b = local_update(spec, data, theta0, eta, steps)
        np.testing.assert_array_equal(a, b)


def test_reference_gd_reaches_the_ridge_optimum():
    spec, datasets = make_ridge(clients=2, samples=30, features=3, seed=67, l2=0.2)
    constants = regime_constants(spec, [datasets[0]])
    out = reference_gd(spec, datasets[0], np.zeros(3), 1.0 / constants.beta, 4000)
    assert float(np.linalg.norm(grad(spec, datasets[0], out))) < 1e-8


def test_reference_gd_validation_and_divergence():
    spec, datasets = make_ridge(seed=68)
    with pytest.raises(ValueError):
        reference_gd(spec, datasets[0], np.zeros(4), 0.1, -1)
    with np.errstate(over="ignore"), pytest.raises(DivergedTrainingError):
        reference_gd(spec, datasets[0], np.ones(4), 1e12, 400)
