import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    assert_near,
    exactly,
    fed_for,
    grad,
    local_update,
    make_logistic,
    make_ridge,
    ridge_opt,
    train_world,
    two_client_toy,
)
from fedunlearn import models
from fedunlearn.engine import (
    FederationConfig,
    aggregate,
    fedavg_round,
    federation_loss,
    init_params,
    local_updates,
    read_checkpoint,
    renormalized_weights,
    write_checkpoint,
)
from fedunlearn.errors import (
    DimensionMismatchError,
    DivergedTrainingError,
    EmptyFederationError,
)
from fedunlearn.history import TrainingHistory
from fedunlearn.models import ClientDataset, ModelKind, ModelSpec, loss, regime_constants
from fedunlearn.sensitivity import SensitivityLedger, client_increments_fast
from fedunlearn.unlearn import retrain_until

IDENTITY_DATA = ClientDataset(np.eye(2), np.array([1.0, 1.0]))
RIDGE_ID = ModelSpec(ModelKind.RIDGE, (2,), 0.1)


# ---------------------------------------------------------------------------
# local updates
# ---------------------------------------------------------------------------


def test_local_update_single_step_by_hand():
    out = local_update(RIDGE_ID, IDENTITY_DATA, np.zeros(2), eta=1.0, local_steps=1)
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_local_update_equals_inline_gd():
    spec, datasets = make_ridge(seed=8)
    theta = init_params(spec, 0)
    eta = 0.3
    manual = theta.copy()
    for _ in range(7):
        manual = manual - eta * grad(spec, datasets[0], manual)
    out = local_update(spec, datasets[0], theta, eta, 7)
    np.testing.assert_array_equal(out, manual)


def test_local_update_fixed_point_at_client_optimum():
    spec, datasets = make_ridge(clients=2, seed=5)
    theta_star, _ = ridge_opt(datasets, [1.0, 0.0], [0], spec.l2)
    out = local_update(spec, datasets[0], theta_star, 0.2, 4)
    np.testing.assert_allclose(out, theta_star, rtol=0, atol=1e-14)


def test_local_update_does_not_mutate_input():
    theta = np.zeros(2)
    local_update(RIDGE_ID, IDENTITY_DATA, theta, 1.0, 1)
    np.testing.assert_array_equal(theta, [0.0, 0.0])


def test_local_update_validation():
    with pytest.raises(ValueError):
        local_update(RIDGE_ID, IDENTITY_DATA, np.zeros(2), 1.0, 0)


def test_local_update_divergence_guard():
    with pytest.raises(DivergedTrainingError):
        local_update(RIDGE_ID, IDENTITY_DATA, np.zeros(2), 1e9, 50)


@pytest.mark.parametrize(
    "theta,diverges",
    [
        ([np.inf, 0.0], True),
        ([np.nan, 0.0], True),
        ([1e8, 0.0], False),
        ([np.nextafter(1e8, np.inf), 0.0], True),
    ],
    ids=["inf", "nan", "at-the-norm-bound", "one-ulp-past-it"],
)
def test_divergence_guard_bounds_the_norm_in_one_comparison(theta, diverges):
    # zero data and no regulariser: a step leaves every finite theta as it is
    spec = ModelSpec(ModelKind.RIDGE, (2,), 0.0)
    features, targets = np.zeros((1, 3, 2)), np.zeros((1, 3))
    if not diverges:
        out = local_updates(spec, features, targets, np.array(theta), 0.5, 2, round_index=7)
        assert out.tolist() == [theta]
        return
    with pytest.raises(DivergedTrainingError) as exc, np.errstate(invalid="ignore"):
        local_updates(spec, features, targets, np.array(theta), 0.5, 2, round_index=7)
    assert exc.value.round_index == 7


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_identity_and_mean():
    a, b = np.array([1.0, 3.0]), np.array([3.0, 5.0])
    np.testing.assert_array_equal(aggregate([a], [1.0]), a)
    np.testing.assert_array_equal(aggregate([a, b], [0.5, 0.5]), [2.0, 4.0])


def test_aggregate_weight_sum_checked():
    with pytest.raises(ValueError):
        aggregate([np.zeros(2), np.zeros(2)], [0.5, 0.4])


@settings(max_examples=50, deadline=None)
@given(
    thetas=hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10, allow_nan=False)),
    shift=hnp.arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False)),
)
def test_aggregate_affine_equivariance(thetas, shift):
    weights = np.array([0.5, 0.25, 0.25])
    lhs = aggregate([t + shift for t in thetas], weights)
    rhs = aggregate(list(thetas), weights) + shift
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_renormalized_weights_hand_examples():
    out = renormalized_weights(np.array([0.5, 0.3, 0.2]), {0})
    np.testing.assert_array_equal(out, [0.0, 0.6, 0.4])
    uniform = np.full(10, 0.1)
    out = renormalized_weights(uniform, {3})
    expected = np.full(10, 1.0 / 9.0)
    expected[3] = 0.0
    np.testing.assert_allclose(out, expected, rtol=1e-15)
    assert out[3] == 0.0


def test_renormalized_weights_empty_removal_is_identity():
    w = np.array([0.25, 0.75])
    np.testing.assert_array_equal(renormalized_weights(w, set()), w)


def test_renormalized_weights_cannot_drop_everyone():
    with pytest.raises(EmptyFederationError):
        renormalized_weights(np.array([0.5, 0.5]), {0, 1})


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def rounds_of(spec, fed, theta0, rounds, active=None):
    """The run's RoundRecords, replayed with fedavg_round from the models
    retrain_until recorded."""
    active = tuple(range(fed.client_count)) if active is None else active
    history = TrainingHistory(theta0)
    retrain_until(spec, fed, theta0, active, exactly(rounds), history=history)
    cohort = fed.cohort(active, spec)
    return [fedavg_round(spec, fed, history.models[n], cohort, n) for n in range(rounds)]


def final_model(spec, fed, theta0, rounds):
    return retrain_until(spec, fed, theta0, range(fed.client_count), exactly(rounds)).final_model


def test_round_record_chains_and_covers_active_set():
    spec, datasets = make_ridge(clients=4, seed=1)
    fed, _ = fed_for(spec, datasets, frac=0.5)
    theta0 = init_params(spec, 3)
    records = rounds_of(spec, fed, theta0, 6, active=(0, 2, 3))
    assert len(records) == 6
    np.testing.assert_array_equal(records[0].global_before, theta0)
    for prev, cur in zip(records, records[1:]):
        np.testing.assert_array_equal(prev.global_after, cur.global_before)
        assert cur.active == (0, 2, 3)
        assert cur.client_models.shape == (3, 4)


def test_single_client_federation_is_plain_gd():
    spec, datasets = make_ridge(clients=2, seed=4)
    fed = FederationConfig.from_datasets([datasets[0]], eta=0.2, local_steps=1)
    manual = np.zeros(4)
    for _ in range(30):
        manual = manual - 0.2 * grad(spec, datasets[0], manual)
    assert_near(final_model(spec, fed, np.zeros(4), 30), manual)


def test_identical_clients_match_centralized_run():
    spec, datasets = make_ridge(clients=2, seed=6)
    twin = FederationConfig.from_datasets(
        [datasets[0], datasets[0]], eta=0.2, local_steps=3, weights=[0.5, 0.5]
    )
    solo = FederationConfig.from_datasets([datasets[0]], eta=0.2, local_steps=3)
    theta0 = init_params(spec, 9)
    twin_out = final_model(spec, twin, theta0, 10)
    solo_out = final_model(spec, solo, theta0, 10)
    np.testing.assert_array_equal(twin_out, solo_out)


def test_training_is_bit_reproducible():
    spec, datasets = make_ridge(clients=3, seed=10)
    fed, _ = fed_for(spec, datasets, frac=0.8, local_steps=2)
    theta0 = init_params(spec, 7)
    _, _, a, ledger_a = train_world(spec, fed, 12, theta0=theta0)
    _, _, b, ledger_b = train_world(spec, fed, 12, theta0=theta0)
    assert len(a.models) == len(b.models) == 13
    for ma, mb in zip(a.models, b.models):
        np.testing.assert_array_equal(ma, mb)
    np.testing.assert_array_equal(ledger_a.psi, ledger_b.psi)


def test_zero_rounds_returns_no_records():
    spec, datasets = make_ridge(seed=0)
    fed, _ = fed_for(spec, datasets)
    _, _, history, ledger = train_world(spec, fed, 0, theta0=np.zeros(4))
    assert len(ledger) == 0
    assert history.end_position == 0
    np.testing.assert_array_equal(history.final_model, np.zeros(4))


def test_single_step_descent_on_weighted_objective():
    spec, datasets = make_ridge(clients=4, seed=12, het=0.8)
    constants = regime_constants(spec, datasets)
    fed = FederationConfig.from_datasets(datasets, eta=0.9 / constants.beta, local_steps=1)
    theta = init_params(spec, 1)
    everyone = fed.cohort(range(4), spec)
    losses = [federation_loss(spec, fed, theta, everyone)]
    for record in rounds_of(spec, fed, theta, 25):
        losses.append(federation_loss(spec, fed, record.global_after, everyone))
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-10)


def test_divergence_error_carries_round_index():
    spec, datasets = make_ridge(seed=3)
    constants = regime_constants(spec, datasets)
    fed = FederationConfig.from_datasets(datasets, eta=1000.0 / constants.beta, local_steps=5)
    with pytest.raises(DivergedTrainingError) as exc:
        final_model(spec, fed, init_params(spec, 0), 20)
    assert exc.value.round_index is not None
    assert exc.value.round_index >= 0


# ---------------------------------------------------------------------------
# the stacked round against a per-client reference
# ---------------------------------------------------------------------------


def per_client_round(spec, fed, theta, active):
    """One round the way a client-by-client loop computes it: local models,
    aggregate, closed-form ledger row and retained loss."""
    q = renormalized_weights(fed.weights, set(range(fed.client_count)) - set(active))
    local_models = []
    for c in active:
        local = theta.copy()
        for _ in range(fed.local_steps):
            local = local - fed.eta * grad(spec, fed.clients[c], local)
        local_models.append(local)
    total = np.zeros_like(theta)
    for c, local in zip(active, local_models):
        total = total + q[c] * local
    deltas = np.zeros(fed.client_count)
    for c, local in zip(active, local_models):
        p = float(q[c])
        deltas[c] = p / (1.0 - p) * float(np.linalg.norm(local - total))
    retained = sum(q[c] * loss(spec, fed.clients[c], total) for c in active)
    return local_models, total, deltas, float(retained)


def round_world(model, ragged):
    if model == "logistic":
        spec, datasets = make_logistic(clients=10, samples=16, features=4, seed=21, l2=0.05)
    else:
        spec, datasets = make_ridge(clients=10, samples=16, features=4, seed=21)
        if model != "ridge":
            dims = (4, 5, 1) if model == "mlp2" else (4, 3, 2, 1)
            spec = ModelSpec(ModelKind.TINY_MLP, dims, 0.01)
    if ragged:  # clients 1, 3 and 8 keep 11 of their 16 samples
        datasets = [
            ClientDataset(d.features[:11], d.targets[:11]) if i in (1, 3, 8) else d
            for i, d in enumerate(datasets)
        ]
    return spec, datasets


@pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
@pytest.mark.parametrize("active", [tuple(range(10)), (0, 2, 3, 5, 6, 7, 8, 9)], ids=["all", "subset"])
@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("model", ["ridge", "logistic", "mlp2", "mlp3"])
def test_stacked_round_matches_a_per_client_reference_bitwise(model, local_steps, active, ragged):
    spec, datasets = round_world(model, ragged)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps)
    theta0 = 0.3 * np.random.default_rng(5).standard_normal(spec.param_count)
    rounds = 4
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(0.9, local_steps, fed.client_count)
    result = retrain_until(
        spec, fed, theta0, active, exactly(rounds), ledger=ledger, history=history
    )
    theta, cohort = theta0, fed.cohort(active, spec)

    def same(got, want):
        # a ridge round with d <= n is one affine map per client
        if model == "ridge":
            assert_near(got, want)
        else:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for n in range(rounds):
        record = fedavg_round(spec, fed, theta, cohort, n)
        local_models, total, deltas, retained = per_client_round(spec, fed, theta, active)
        assert record.active == active
        same(record.client_models, np.array(local_models))
        same(record.global_after, total)
        same(history.models[n + 1], total)
        same(ledger.deltas[n], deltas)
        same(np.float64(result.loss_trace[n + 1][1]), np.float64(retained))
        theta = total


def test_a_retraining_run_builds_one_cohort(monkeypatch):
    spec, datasets = round_world("ridge", ragged=True)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1)
    calls = []
    real = FederationConfig.cohort

    def counted(self, active, spec):
        calls.append(tuple(active))
        return real(self, active, spec)

    monkeypatch.setattr(FederationConfig, "cohort", counted)
    ledger, history = SensitivityLedger(0.9, 1, fed.client_count), TrainingHistory(np.zeros(4))
    retrain_until(spec, fed, np.zeros(4), (9, 0, 3, 2), exactly(5), ledger=ledger, history=history)
    assert calls == [(9, 0, 3, 2)]
    assert len(ledger) == history.end_position == 5


def test_a_cohort_is_ascending_and_refuses_no_or_unknown_clients():
    spec, datasets = round_world("ridge", ragged=True)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1)
    assert fed.cohort([8, 3, 0, 3, 8, 5], spec).active == (0, 3, 5, 8)
    assert fed.cohort(iter([1, 1]), spec).active == (1,)
    for empty in ((), [], range(0)):
        with pytest.raises(EmptyFederationError):
            fed.cohort(empty, spec)
    for unknown in ((0, 10), (-1, 2)):
        with pytest.raises(IndexError):
            fed.cohort(unknown, spec)


def test_cohort_weights_are_renormalised_and_zero_off_the_cohort():
    _, datasets = round_world("ridge", ragged=True)
    spec = ModelSpec(ModelKind.RIDGE, (4,), 0.1)
    raw = np.arange(9.0, 19.0)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1, weights=raw / raw.sum())
    assert fed.weights.sum() != 1.0  # so even the all-client cohort renormalises
    for active in [range(10), (0, 2, 3, 5, 6, 7, 8, 9), (1, 3), (4,)]:
        cohort = fed.cohort(active, spec)
        out = set(range(10)) - set(active)
        assert cohort.weights.tobytes() == renormalized_weights(fed.weights, out).tobytes()
        assert all(cohort.weights[c] == 0.0 for c in out)
        assert all(cohort.weights[c] > 0.0 for c in active)


def test_a_cohort_stacks_exactly_its_own_clients():
    _, datasets = round_world("ridge", ragged=True)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1)
    spec = ModelSpec(ModelKind.RIDGE, (4,), 0.1)
    for active in [(0, 2, 3, 5, 6, 7, 8, 9), (1, 3), (3, 1), range(10)]:
        cohort = fed.cohort(active, spec)
        seen = []
        for rows, features, targets, _ in cohort.stacks:
            for row, x, y in zip(rows, features, targets):
                client = datasets[cohort.active[row]]
                assert x.tobytes() == client.features.tobytes()
                assert y.tobytes() == client.targets.tobytes()
                seen.append(cohort.active[row])
        assert sorted(seen) == sorted(set(active))


def test_subset_round_increments_use_the_renormalised_weights():
    spec, datasets = round_world("logistic", ragged=True)
    raw = np.arange(9.0, 19.0)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=raw / raw.sum())
    active = (1, 2, 4, 7, 8)
    q = renormalized_weights(fed.weights, set(range(10)) - set(active))
    record = fedavg_round(spec, fed, init_params(spec, 4), fed.cohort(active, spec), 0)
    want = np.zeros(10)
    for row, c in enumerate(active):
        p = float(q[c])
        want[c] = p / (1.0 - p) * float(np.linalg.norm(record.client_models[row] - record.global_after))
    assert record.weights.tobytes() == q.tobytes()
    assert client_increments_fast(record).tobytes() == want.tobytes()


def test_one_round_makes_one_kernel_call_per_local_step(monkeypatch):
    calls = []
    real = models.stacked_grad

    def counted(spec, features, targets, thetas):
        calls.append(features.shape[0])
        return real(spec, features, targets, thetas)

    monkeypatch.setattr(models, "stacked_grad", counted)
    spec, datasets = make_logistic(clients=6, samples=10, seed=2)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=3)
    fedavg_round(spec, fed, np.zeros(4), fed.cohort(range(6), spec), 0)
    assert calls == [6, 6, 6]  # K calls over all C clients, not C * K
    calls.clear()
    fedavg_round(spec, fed, np.zeros(4), fed.cohort((1, 4), spec), 0)
    assert calls == [2, 2, 2]
    # ridge stacks with d <= n advance by their operators, with no kernel call
    spec, datasets = make_ridge(clients=6, samples=10, seed=2)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=3)
    calls.clear()
    fedavg_round(spec, fed, np.zeros(4), fed.cohort(range(6), spec), 0)
    assert calls == []


def counted_operators(monkeypatch):
    """Patch models.ridge_operators to record the stack shape and l2 of each call."""
    calls = []
    real = models.ridge_operators

    def counted(spec, features, targets, eta, steps):
        calls.append((features.shape, spec.l2))
        return real(spec, features, targets, eta, steps)

    monkeypatch.setattr(models, "ridge_operators", counted)
    return calls


def mixed_ridge_world():
    """round_world's ragged ridge clients, plus a third data-shape group of
    two clients (10 and 11) with more features than samples."""
    spec, datasets = round_world("ridge", ragged=True)
    return spec, datasets + [ClientDataset(d.features[:3], d.targets[:3]) for d in datasets[:2]]


def test_ridge_operators_are_built_once_per_data_shape_group_and_l2(monkeypatch):
    spec, datasets = mixed_ridge_world()
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    calls = counted_operators(monkeypatch)
    theta = np.zeros(4)
    for n, active in enumerate([range(12), (0, 2, 3), range(12), (1, 3, 10), (4, 11)]):
        cohort = fed.cohort(active, spec)
        theta = fedavg_round(spec, fed, theta, cohort, n).global_after
        federation_loss(spec, fed, theta, cohort)
    assert calls == [((7, 16, 4), 0.1), ((3, 11, 4), 0.1), ((2, 3, 4), 0.1)]
    wide = [operators for rows, _, _, operators in fed.cohort((4, 10, 11), spec).stacks if len(rows) == 2]
    assert wide == [None]
    # another l2 gets operators of its own and leaves the first l2's in place
    stronger = ModelSpec(ModelKind.RIDGE, (4,), 0.5)
    for each in (stronger, spec, stronger):
        fed.cohort(range(12), each)
    assert calls[3:] == [((7, 16, 4), 0.5), ((3, 11, 4), 0.5), ((2, 3, 4), 0.5)]
    # a spec of the same l2 but another input size gets no operators of the data's
    with pytest.raises(DimensionMismatchError):
        fed.cohort(range(12), ModelSpec(ModelKind.RIDGE, (5,), 0.1))


def test_two_l2_values_on_one_federation_each_train_with_their_own_operators():
    spec, datasets = mixed_ridge_world()
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=3)
    theta0 = 0.3 * np.random.default_rng(6).standard_normal(4)
    finals = {}
    for l2 in (0.1, 0.5, 0.1):
        each = ModelSpec(ModelKind.RIDGE, (4,), l2)
        theta = theta0
        for n in range(3):
            record = fedavg_round(each, fed, theta, fed.cohort(range(12), each), n)
            _, want, _, _ = per_client_round(each, fed, theta, tuple(range(12)))
            assert_near(record.global_after, want)
            theta = record.global_after
        finals.setdefault(l2, []).append(theta)
    assert finals[0.1][0].tobytes() == finals[0.1][1].tobytes()
    assert np.linalg.norm(finals[0.1][0] - finals[0.5][0]) > 1e-3


def test_a_subset_gets_the_operators_of_its_own_data():
    spec, datasets = round_world("ridge", ragged=True)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=3)
    fed.cohort(range(10), spec)
    for subset in [(0, 2, 3, 5, 6, 7, 8, 9), (1, 3), (4,)]:
        for rows, _, _, (maps, offsets) in fed.cohort(subset, spec).stacks:
            members = [datasets[subset[r]] for r in rows]
            own_maps, own_offsets = models.ridge_operators(
                spec, np.stack([d.features for d in members]), np.stack([d.targets for d in members]), 0.05, 3
            )
            assert maps.tobytes() == own_maps.tobytes()
            assert offsets.tobytes() == own_offsets.tobytes()


@pytest.mark.parametrize("model", ["logistic", "mlp2"])
def test_logistic_and_mlp_federations_build_no_operators(monkeypatch, model):
    spec, datasets = round_world(model, ragged=True)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    calls = counted_operators(monkeypatch)
    theta = init_params(spec, 0)
    for n, active in enumerate([range(10), (0, 2, 3)]):
        cohort = fed.cohort(active, spec)
        theta = fedavg_round(spec, fed, theta, cohort, n).global_after
        federation_loss(spec, fed, theta, cohort)
    assert calls == []
    assert all(operators is None for *_, operators in fed.cohort(range(10), spec).stacks)


@pytest.mark.parametrize(
    "active", [tuple(range(12)), (0, 1, 3, 5, 8, 10), (2, 4, 6, 7)], ids=["all", "subset", "no-wide"]
)
@pytest.mark.parametrize("local_steps", [1, 2, 5])
def test_fused_ridge_round_matches_the_per_step_kernel(local_steps, active):
    """The fused rounds against the per-step stacked_grad loop, which shares
    no code with the operators; clients 10 and 11 (d > n) keep that loop."""
    spec, datasets = mixed_ridge_world()
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps)
    cohort = fed.cohort(active, spec)
    per_step = [rows for rows, _, _, operators in cohort.stacks if operators is None]
    assert len(per_step) == int(10 in active or 11 in active)
    everyone = fed.cohort(range(12), spec)
    theta = 0.3 * np.random.default_rng(5).standard_normal(4)
    for n in range(4):
        record = fedavg_round(spec, fed, theta, cohort, n)
        # a client's local model does not depend on who shares its stack
        in_full = fedavg_round(spec, fed, theta, everyone, n).client_models[list(active)]
        assert record.client_models.tobytes() == in_full.tobytes()
        local_models, total, deltas, retained = per_client_round(spec, fed, theta, active)
        assert_near(record.client_models, local_models)
        for rows in per_step:
            assert record.client_models[rows].tobytes() == np.array(local_models)[rows].tobytes()
        assert_near(record.global_after, total)
        assert_near(client_increments_fast(record), deltas)
        assert_near(federation_loss(spec, fed, record.global_after, cohort), retained)
        theta = total


def test_a_lone_diverging_client_stops_training_in_its_round():
    spec, datasets = make_ridge(clients=4, samples=20, seed=3)
    fed, _ = fed_for(spec, datasets, frac=0.5)
    # client 2's features scaled up: its step size is far past its own bound
    datasets[2] = ClientDataset(6.0 * datasets[2].features, datasets[2].targets)
    fed = FederationConfig.from_datasets(datasets, eta=fed.eta, local_steps=2)
    theta, start, everyone = init_params(spec, 0), 5, tuple(range(4))
    # every stack takes the fused path, whose guard runs once per round
    assert all(operators is not None for *_, operators in fed.cohort(everyone, spec).stacks)
    expected = None
    for n in range(start, start + 50):
        local_models, theta, _, _ = per_client_round(spec, fed, theta, everyone)
        too_far = [
            c for c, m in enumerate(local_models) if not np.isfinite(m).all() or np.linalg.norm(m) > 1e8
        ]
        if too_far:
            assert too_far == [2]
            expected = n
            break
    assert expected is not None and expected > start + 1
    with pytest.raises(DivergedTrainingError) as exc:
        retrain_until(spec, fed, init_params(spec, 0), everyone, exactly(50), start_position=start)
    assert exc.value.round_index == expected


def test_empty_active_set_rejected():
    spec, datasets = make_ridge(seed=0)
    fed, _ = fed_for(spec, datasets)
    with pytest.raises(EmptyFederationError):
        fed.cohort((), spec)
    with pytest.raises(EmptyFederationError):
        retrain_until(spec, fed, np.zeros(4), (), exactly(1))


# ---------------------------------------------------------------------------
# config, init, loss
# ---------------------------------------------------------------------------


def test_federation_config_validation():
    data = two_client_toy()
    with pytest.raises(EmptyFederationError):
        FederationConfig.from_datasets([], eta=0.1, local_steps=1)
    with pytest.raises(ValueError):
        FederationConfig.from_datasets(data, eta=0.1, local_steps=1, weights=[0.6, 0.6])
    with pytest.raises(ValueError):
        FederationConfig.from_datasets(data, eta=0.1, local_steps=1, weights=[-0.2, 1.2])
    with pytest.raises(DimensionMismatchError):
        FederationConfig.from_datasets(data, eta=0.1, local_steps=1, weights=[1.0])
    with pytest.raises(ValueError):
        FederationConfig.from_datasets(data, eta=0.0, local_steps=1)
    with pytest.raises(ValueError):
        FederationConfig.from_datasets(data, eta=0.1, local_steps=0)
    assert sorted(f.name for f in dataclasses.fields(FederationConfig)) == [
        "clients", "eta", "local_steps", "weights"
    ]


def test_default_weights_proportional_to_samples():
    spec, datasets = make_ridge(clients=3, seed=1)
    big = ClientDataset(np.vstack([datasets[0].features] * 3), np.hstack([datasets[0].targets] * 3))
    fed = FederationConfig.from_datasets([datasets[1], big], eta=0.1, local_steps=1)
    np.testing.assert_allclose(fed.weights, [0.25, 0.75], rtol=1e-15)


def test_init_params_modes():
    spec = ModelSpec(ModelKind.RIDGE, (6,))
    np.testing.assert_array_equal(init_params(spec, 5, "zeros"), np.zeros(6))
    want = 0.01 * np.random.default_rng(5).standard_normal(6)
    np.testing.assert_array_equal(init_params(spec, 5, "normal"), want)
    assert not np.array_equal(init_params(spec, 5), init_params(spec, 6))
    with pytest.raises(ValueError):
        init_params(spec, 0, "ones")


def test_federation_loss_matches_manual_weighted_sum():
    spec, datasets = make_ridge(clients=3, seed=14)
    weights = np.array([0.5, 0.3, 0.2])
    theta = init_params(spec, 2)
    want = sum(w * loss(spec, d, theta) for w, d in zip(weights, datasets))
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=1, weights=weights)
    got = federation_loss(spec, fed, theta, fed.cohort(range(3), spec))
    assert got == pytest.approx(want, rel=1e-15)
    partial = federation_loss(spec, fed, theta, fed.cohort((1, 2), spec))
    want = 0.6 * loss(spec, datasets[1], theta) + 0.4 * loss(spec, datasets[2], theta)
    assert partial == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    values = np.random.default_rng(0).standard_normal(17)
    digest = bytes(range(32))
    write_checkpoint(path, 42, values, digest)
    round_index, loaded, stored = read_checkpoint(path)
    assert round_index == 42
    assert stored == digest
    np.testing.assert_array_equal(loaded, values)


def test_checkpoint_block_round_trip(tmp_path):
    # a block of models is the one-model files' value bytes, row after row
    path = tmp_path / "history.ckpt"
    values = np.random.default_rng(1).standard_normal((5, 3))
    write_checkpoint(path, 9, values, bytes(32))
    position, loaded, _ = read_checkpoint(path)
    assert position == 9
    assert loaded.shape == (5, 3)
    assert loaded.tobytes() == values.tobytes()
    write_checkpoint(tmp_path / "row.ckpt", 9, values[2], bytes(32))
    assert (tmp_path / "row.ckpt").read_bytes()[52:] == path.read_bytes()[52 + 2 * 24 : 52 + 3 * 24]


def test_checkpoint_rejects_foreign_and_truncated_files(tmp_path):
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"JUNK" + bytes(60))
    with pytest.raises(ValueError):
        read_checkpoint(bogus)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, 0, np.zeros(4), bytes(32))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_checkpoint(path)


def test_checkpoint_digest_must_be_32_bytes(tmp_path):
    with pytest.raises(ValueError):
        write_checkpoint(tmp_path / "x.ckpt", 0, np.zeros(2), b"short")
