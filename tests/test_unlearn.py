import copy

import numpy as np
import pytest

from conftest import (
    assert_near,
    counted_losses,
    exactly,
    fed_for,
    local_update,
    make_logistic,
    make_ridge,
    ridge_opt,
    round_increments,
    segment_owner,
    train_world,
)
from fedunlearn.engine import (
    FederationConfig,
    federation_loss,
    kernel_round,
    local_gaps,
    renormalized_weights,
)
from fedunlearn.errors import EmptyFederationError, InvalidRequestError
from fedunlearn.history import TrainingHistory
from fedunlearn.sensitivity import NoiseBudget, SensitivityLedger, noise_std
from fedunlearn.unlearn import (
    StoppingRule,
    UnlearningRequest,
    UnlearningState,
    gaussian_perturb,
    perturbation_stream,
    retrain_until,
    sifu,
    stopping_criterion,
)


# init and perturbation seed of the sc_world scenarios
FED_SEED = 9


def sc_world(budget_sigma=0.4, rounds=12, clients=4, seed=21, **fed_kw):
    spec, data = make_ridge(clients=clients, samples=15, features=3, seed=seed, l2=0.1)
    fed, _ = fed_for(spec, *data, frac=0.8, **fed_kw)
    budget = NoiseBudget(1.0, 0.05, budget_sigma)
    theta0, contraction, history, ledger = train_world(spec, fed, rounds, seed=FED_SEED)
    return spec, fed, budget, theta0, contraction, history, ledger


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_zero_sigma_perturb_is_an_identity_copy():
    rng = perturbation_stream(3, 1)
    before = rng.bit_generator.state
    theta = np.array([1.0, 2.0])
    out = gaussian_perturb(theta, 0.0, rng)
    np.testing.assert_array_equal(out, theta)
    assert out is not theta
    assert rng.bit_generator.state == before


def test_perturb_statistics():
    rng = perturbation_stream(7, 2)
    theta = np.zeros(100_000)
    out = gaussian_perturb(theta, 0.7, rng)
    assert 0.99 * 0.7 < float(out.std()) < 1.01 * 0.7
    assert abs(float(out.mean())) < 0.01


def test_perturb_rejects_negative_sigma():
    with pytest.raises(ValueError):
        gaussian_perturb(np.zeros(2), -0.1, perturbation_stream(0, 1))


def test_perturbation_stream_keyed_by_seed_and_request():
    a = gaussian_perturb(np.zeros(8), 1.0, perturbation_stream(5, 1))
    b = gaussian_perturb(np.zeros(8), 1.0, perturbation_stream(5, 1))
    c = gaussian_perturb(np.zeros(8), 1.0, perturbation_stream(5, 2))
    d = gaussian_perturb(np.zeros(8), 1.0, perturbation_stream(6, 1))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# stopping
# ---------------------------------------------------------------------------


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(0.1, 5, 2)
    with pytest.raises(ValueError):
        StoppingRule(0.1, -1, 2)
    with pytest.raises(ValueError):
        StoppingRule(float("nan"), 0, 2)


def test_stopping_criterion_edges():
    rule = StoppingRule(0.5, 2, 10)
    assert not stopping_criterion(0, 0.1, rule)
    assert not stopping_criterion(1, 0.1, rule)
    assert stopping_criterion(2, 0.5, rule)
    assert not stopping_criterion(2, 0.6, rule)
    assert stopping_criterion(10, 99.0, rule)
    assert stopping_criterion(0, 99.0, StoppingRule(float("-inf"), 0, 0))
    assert [rule.reads_loss(n) for n in (0, 1, 2, 9, 10)] == [False, False, True, True, False]
    # an infinite threshold reads no loss: +inf stops at min_rounds, -inf at max_rounds
    for threshold, stops in ((float("inf"), [False, True, True]), (float("-inf"), [False, False, True])):
        rule = StoppingRule(threshold, 6, 50)
        assert not any(rule.reads_loss(n) for n in range(60))
        assert [stopping_criterion(n, float("nan"), rule) for n in (5, 6, 50)] == stops


# ---------------------------------------------------------------------------
# retraining loop
# ---------------------------------------------------------------------------


def test_retrain_zero_rounds_returns_start():
    spec, data = make_ridge(seed=2)
    fed, _ = fed_for(spec, *data)
    theta0 = np.ones(4)
    result = retrain_until(spec, fed, theta0, range(3), exactly(0))
    np.testing.assert_array_equal(result.final_model, theta0)
    assert result.rounds == 0


def test_retrain_trace_is_contiguous_and_starts_at_offset(monkeypatch):
    # the losses a finite threshold reads are those of the models at
    # contiguous positions from start_position, one before each round
    spec, data = make_ridge(seed=2)
    fed, _ = fed_for(spec, *data, frac=0.5)
    _, _, history, _ = train_world(spec, fed, 7)
    read = counted_losses(monkeypatch)
    result = retrain_until(
        spec, fed, history.final_model, range(3), StoppingRule(0.0, 0, 4), history=history, start_position=7
    )
    assert (result.rounds, history.end_position) == (4, 11)
    positions = [history.model_at(p) for p in range(7, 11)]
    assert np.array([theta for theta, _ in read]).tobytes() == np.array(positions).tobytes()
    losses = [value for _, value in read]
    assert losses[-1] <= losses[0]


def test_retrain_records_history_and_ledger():
    spec, data = make_ridge(seed=3)
    fed, constants = fed_for(spec, *data, frac=0.5)
    history = TrainingHistory(np.zeros(4))
    ledger = SensitivityLedger(1.0, fed.local_steps, 3)
    retrain_until(spec, fed, np.zeros(4), range(3), exactly(6), ledger=ledger, history=history)
    assert history.end_position == 6
    assert len(ledger) == 6
    assert ledger.deltas.shape == (6, 3)


def test_all_client_ledger_rows_use_the_aggregation_weights():
    # weights whose sum is 1 - 2**-53: the ledger must weight the increments
    # as the rounds aggregate, renormalised, not by the raw weights
    spec, data = make_ridge(clients=5, samples=16, seed=4)
    counts = np.array((16.0, 11.0, 16.0, 11.0, 16.0))
    fed, _ = fed_for(spec, *data, frac=0.5, weights=counts / counts.sum())
    assert fed.weights.sum() != 1.0
    ledger = SensitivityLedger(1.0, fed.local_steps, 5)
    history = TrainingHistory(np.zeros(4))
    retrain_until(spec, fed, np.zeros(4), range(5), exactly(3), ledger=ledger, history=history)
    everyone = fed.cohort(range(5), spec)
    p = renormalized_weights(fed.weights, set())
    assert everyone.weights.tobytes() == p.tobytes()
    # the run's client models, as its booking recomputes them from its models
    gaps = local_gaps(everyone, np.array(history.models))
    assert len(gaps) == 3
    assert ledger.deltas.tobytes() == (p / (1.0 - p) * gaps).tobytes()
    for n in range(3):
        client_models, after = kernel_round(everyone, history.models[n], n)
        assert_near(ledger.deltas[n], round_increments(everyone, client_models, after))


def test_retrain_single_active_client_records_empty_deltas():
    spec, data = make_ridge(seed=3)
    fed, _ = fed_for(spec, *data, frac=0.5)
    ledger = SensitivityLedger(1.0, fed.local_steps, 3)
    retrain_until(spec, fed, np.zeros(4), [1], exactly(4), ledger=ledger)
    assert len(ledger) == 4
    np.testing.assert_array_equal(ledger.deltas, np.zeros((4, 3)))
    assert ledger.psi[-1, 1] == 0.0


def test_retrain_subset_matches_manual_renormalised_loop():
    spec, (X, y) = make_ridge(clients=3, seed=4)
    fed = FederationConfig(X, y, eta=0.3, local_steps=2, weights=[0.5, 0.3, 0.2])
    result = retrain_until(spec, fed, np.zeros(4), [1, 2], exactly(5))
    theta = np.zeros(4)
    for _ in range(5):
        locals_ = [local_update(spec, X[i], y[i], theta, 0.3, 2) for i in (1, 2)]
        theta = 0.6 * locals_[0] + 0.4 * locals_[1]
    assert_near(result.final_model, theta)


def test_retrain_converges_at_closed_form_threshold():
    spec, data = make_ridge(clients=3, seed=6, l2=0.1)
    fed, _ = fed_for(spec, *data, frac=0.9)
    _, floor = ridge_opt(*data, fed.weights, [0, 1, 2], spec.l2)
    rule = StoppingRule(floor * 1.01, 0, 500)
    result = retrain_until(spec, fed, np.zeros(4), range(3), rule)
    assert federation_loss(fed.cohort(range(3), spec), result.final_model) <= floor * 1.01
    assert result.rounds < 500


def test_retrain_requires_active_clients():
    spec, data = make_ridge(seed=1)
    fed, _ = fed_for(spec, *data)
    with pytest.raises(EmptyFederationError):
        retrain_until(spec, fed, np.zeros(4), [], exactly(1))


# ---------------------------------------------------------------------------
# request plumbing
# ---------------------------------------------------------------------------


def test_request_validation():
    with pytest.raises(InvalidRequestError):
        UnlearningRequest(0, frozenset({1}))
    with pytest.raises(InvalidRequestError):
        UnlearningRequest(1, frozenset())


def test_sifu_rejects_out_of_order_and_stale_requests():
    spec, fed, budget, theta0, _, history, ledger = sc_world()
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    with pytest.raises(InvalidRequestError):
        sifu(state, UnlearningRequest(2, frozenset({0})), spec, fed, exactly(1))
    sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(1))
    with pytest.raises(InvalidRequestError):
        sifu(state, UnlearningRequest(2, frozenset({0})), spec, fed, exactly(1))
    with pytest.raises(InvalidRequestError):
        sifu(state, UnlearningRequest(2, frozenset({17})), spec, fed, exactly(1))


def test_sifu_cannot_empty_the_federation():
    spec, fed, budget, theta0, _, history, ledger = sc_world(clients=2)
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    with pytest.raises(EmptyFederationError):
        sifu(state, UnlearningRequest(1, frozenset({0, 1})), spec, fed, exactly(1))


# ---------------------------------------------------------------------------
# sifu mechanics
# ---------------------------------------------------------------------------


def test_sifu_rollback_matches_hand_scan():
    spec, fed, budget, theta0, _, history, ledger = sc_world()
    series = ledger.psi[:, 2]
    want = max(n for n in range(len(series)) if series[n] <= budget.psi_star)
    psi_at = float(series[want])
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    outcome = sifu(state, UnlearningRequest(1, frozenset({2})), spec, fed, exactly(3))
    assert outcome.rollback_position == want
    assert outcome.noise_sigma == noise_std(psi_at, budget.epsilon, budget.delta)
    assert outcome.retrain_rounds == 3
    assert state.next_request_index == 2
    assert state.remaining == {0, 1, 3}
    assert state.processed == {2}


def test_sifu_perturbs_the_rollback_model_with_its_own_stream():
    spec, fed, budget, theta0, _, history, ledger = sc_world()
    base = history.model_at(ledger.rollback_index({2}, budget.psi_star)).copy()
    psi_at = ledger.set_sensitivity({2}, ledger.rollback_index({2}, budget.psi_star))
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    outcome = sifu(state, UnlearningRequest(1, frozenset({2})), spec, fed, exactly(0))
    sigma = noise_std(psi_at, budget.epsilon, budget.delta)
    want = gaussian_perturb(base, sigma, perturbation_stream(FED_SEED, 1))
    np.testing.assert_array_equal(outcome.final_model, want)
    assert outcome.retrain_rounds == 0
    final_loss = federation_loss(fed.cohort({0, 1, 3}, spec), want)
    assert np.float64(outcome.final_retained_loss).tobytes() == np.float64(final_loss).tobytes()
    assert not outcome.converged  # exactly(n)'s threshold is -inf


@pytest.mark.parametrize("model", ["ridge", "logistic"])
def test_the_final_retained_loss_is_the_survivors_loss_bit_for_bit(monkeypatch, model):
    """federation_loss of the survivors at the final model: the loss the
    rule read last when the run stopped on the threshold, and evaluated once
    when it stopped at max_rounds."""
    make = make_ridge if model == "ridge" else make_logistic
    spec, data = make(clients=4, samples=15, features=3, seed=23)
    fed, _ = fed_for(spec, *data, frac=0.8)
    budget = NoiseBudget(1.0, 0.05, 0.4)
    _, _, history, ledger = train_world(spec, fed, 12, seed=FED_SEED)
    survivors = fed.cohort({0, 1, 3}, spec)
    read = counted_losses(monkeypatch)

    def run(stopping):
        state = UnlearningState.from_training(
            copy.deepcopy(history), copy.deepcopy(ledger), budget, fed.client_count, FED_SEED
        )
        read.clear()
        outcome = sifu(state, UnlearningRequest(1, frozenset({2})), spec, fed, stopping)
        want = federation_loss(survivors, outcome.final_model)
        assert np.float64(outcome.final_retained_loss).tobytes() == np.float64(want).tobytes()
        return outcome, [value for _, value in read]

    # a threshold no loss meets: 15 reads, none of the final model
    capped, losses = run(StoppingRule(0.0, 0, 15))
    assert (capped.retrain_rounds, len(losses), capped.converged) == (15, 15, False)
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
    stopped, losses = run(StoppingRule(0.5 * (losses[9] + losses[10]), 0, 15))
    assert (stopped.retrain_rounds, len(losses), stopped.converged) == (10, 11, True)
    assert np.float64(stopped.final_retained_loss).tobytes() == np.float64(losses[-1]).tobytes()


def test_sifu_truncates_history_and_ledger_consistently():
    spec, fed, budget, theta0, _, history, ledger = sc_world(rounds=15)
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    outcome = sifu(state, UnlearningRequest(1, frozenset({1})), spec, fed, exactly(4))
    assert history.end_position == outcome.rollback_position + 4
    assert len(ledger) == outcome.rollback_position + 4
    np.testing.assert_array_equal(ledger.deltas[outcome.rollback_position :, 1], 0.0)


def test_sifu_with_zero_budget_equals_scratch_bitwise():
    spec, fed, budget, theta0, _, history, ledger = sc_world(budget_sigma=0.0)
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    outcome = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(8))
    assert outcome.rollback_position == 0
    assert outcome.noise_sigma == 0.0
    scratch = retrain_until(spec, fed, theta0, {1, 2, 3}, exactly(8)).final_model
    np.testing.assert_array_equal(outcome.final_model, scratch)


def test_sifu_with_huge_budget_restarts_from_the_final_round():
    spec, fed, budget, theta0, _, history, ledger = sc_world(budget_sigma=1e9, rounds=10)
    end = history.end_position
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    outcome = sifu(state, UnlearningRequest(1, frozenset({3})), spec, fed, exactly(2))
    assert outcome.rollback_position == end


def test_sifu_ignores_a_client_that_never_contributed():
    spec, data = make_ridge(clients=3, samples=15, features=3, seed=30, l2=0.1)
    fed = FederationConfig(*data, eta=0.4, local_steps=1, weights=[0.0, 0.5, 0.5])
    budget = NoiseBudget(1.0, 0.05, 0.3)
    theta0, _, history, ledger = train_world(spec, fed, 10, seed=4)
    final = history.final_model.copy()
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, 4)
    outcome = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(5))
    assert outcome.rollback_position == 10
    assert outcome.noise_sigma == 0.0
    want = retrain_until(spec, fed, final, {1, 2}, exactly(5)).final_model
    np.testing.assert_array_equal(outcome.final_model, want)


def test_sequential_requests_accumulate_segments():
    spec, fed, budget, theta0, _, history, ledger = sc_world(rounds=15, clients=5)
    trained = history.models.copy()
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    first = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(3))
    second = sifu(state, UnlearningRequest(2, frozenset({4})), spec, fed, exactly(3))
    assert second.rollback_position <= first.rollback_position + 3
    # each position holds a model of the part of the timeline the rollbacks assign it
    outcomes = {1: (first, (1, 2, 3, 4)), 2: (second, (1, 2, 3))}
    owners = [segment_owner([first.rollback_position, second.rollback_position], p)
              for p in range(history.end_position + 1)]
    assert owners[-1] == 2
    for p, owner in enumerate(owners):
        if owner == 0:
            assert history.model_at(p) is trained[p]
        else:
            # the owner's retraining from its perturbed start, run to p
            outcome, survivors = outcomes[owner]
            start = outcome.rollback_position
            rerun = retrain_until(spec, fed, history.model_at(start), survivors, exactly(p - start))
            assert rerun.final_model.tobytes() == history.model_at(p).tobytes()
    np.testing.assert_array_equal(state.history.final_model, second.final_model)


def test_ifu_is_the_single_request_case_of_sifu():
    spec, fed, budget, theta0, _, history, ledger = sc_world(rounds=12)
    h2, l2_ = copy.deepcopy(history), copy.deepcopy(ledger)
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED)
    ifu_state = UnlearningState.from_training(h2, l2_, budget, fed.client_count, FED_SEED, "ifu")
    a = sifu(state, UnlearningRequest(1, frozenset({1})), spec, fed, exactly(4))
    b = sifu(ifu_state, UnlearningRequest(1, frozenset({1})), spec, fed, exactly(4))
    assert a.rollback_position == b.rollback_position
    assert a.noise_sigma == b.noise_sigma
    np.testing.assert_array_equal(a.final_model, b.final_model)
    np.testing.assert_array_equal(ledger.psi, l2_.psi)


# ---------------------------------------------------------------------------
# baselines: the same request step with the rollback pinned
# ---------------------------------------------------------------------------


def baseline(method, spec, fed, history, ledger, targets, stopping, budget=NoiseBudget(1.0, 0.05, 0.4)):
    """Run one request of a baseline method through the shared step."""
    state = UnlearningState.from_training(history, ledger, budget, fed.client_count, FED_SEED, method)
    return sifu(state, UnlearningRequest(1, frozenset(targets)), spec, fed, stopping)


def test_state_method_must_match_its_ledger():
    spec, fed, budget, theta0, _, history, ledger = sc_world()
    for method, wrong in (("sifu", None), ("last", None), ("finetune", ledger), ("redo", ledger)):
        with pytest.raises(ValueError):
            UnlearningState.from_training(history, wrong, budget, fed.client_count, FED_SEED, method)


def test_baseline_scratch_matches_manual_loop():
    spec, (X, y) = make_ridge(clients=3, seed=40)
    fed = FederationConfig(X, y, eta=0.2, local_steps=1, weights=[0.5, 0.3, 0.2])
    theta0 = np.zeros(4)
    outcome = baseline("scratch", spec, fed, TrainingHistory(theta0), None, {0}, exactly(6))
    assert (outcome.rollback_position, outcome.noise_sigma) == (0, 0.0)
    out = outcome.final_model
    theta = theta0.copy()
    for _ in range(6):
        locals_ = [local_update(spec, X[i], y[i], theta, 0.2, 1) for i in (1, 2)]
        theta = 0.6 * locals_[0] + 0.4 * locals_[1]
    assert_near(out, theta)


def test_baseline_finetune_continues_from_the_final_model():
    spec, fed, budget, theta0, _, history, ledger = sc_world()
    final = history.final_model.copy()
    outcome = baseline("finetune", spec, fed, copy.deepcopy(history), None, {0}, exactly(0))
    np.testing.assert_array_equal(outcome.final_model, final)
    outcome = baseline("finetune", spec, fed, history, None, {0}, exactly(3))
    assert (outcome.rollback_position, outcome.noise_sigma) == (len(ledger), 0.0)
    want = retrain_until(spec, fed, final, {1, 2, 3}, exactly(3)).final_model
    np.testing.assert_array_equal(outcome.final_model, want)


def test_baseline_last_uses_final_round_sensitivity():
    spec, fed, budget, theta0, _, history, ledger = sc_world(rounds=10)
    end = len(ledger)
    psi_final = ledger.set_sensitivity({2}, end)
    sigma = noise_std(psi_final, budget.epsilon, budget.delta)
    final = history.final_model.copy()
    outcome = baseline("last", spec, fed, history, ledger, {2}, exactly(0), budget)
    assert (outcome.rollback_position, outcome.noise_sigma) == (end, sigma)
    want = gaussian_perturb(final, sigma, perturbation_stream(FED_SEED, 1))
    np.testing.assert_array_equal(outcome.final_model, want)
    np.testing.assert_array_equal(history.model_at(end), want)
    assert len(ledger) == end


def test_baseline_last_extends_the_records():
    spec, fed, budget, theta0, _, history, ledger = sc_world(rounds=10)
    end = len(ledger)
    baseline("last", spec, fed, history, ledger, {2}, exactly(4), budget)
    assert len(ledger) == end + 4
    assert history.end_position == end + 4
    with pytest.raises(InvalidRequestError):
        baseline("last", spec, fed, history, ledger, set(), exactly(1), budget)


def test_last_noise_never_below_ifu_noise_without_contraction():
    spec, data = make_logistic(clients=4, samples=15, features=3, seed=50)
    fed, constants = fed_for(spec, *data, frac=0.5, local_steps=1)
    budget = NoiseBudget(1.0, 0.05, 0.4)
    theta0, contraction, history, ledger = train_world(spec, fed, 20, seed=3)
    assert contraction == 1.0
    psi_roll = ledger.set_sensitivity({1}, ledger.rollback_index({1}, budget.psi_star))
    psi_last = ledger.set_sensitivity({1}, len(ledger))
    assert psi_last >= psi_roll
    assert noise_std(psi_last, 1.0, 0.05) >= noise_std(psi_roll, 1.0, 0.05)
