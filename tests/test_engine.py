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
    loss,
    make_logistic,
    make_ridge,
    ridge_opt,
    round_increments,
    round_loop,
    train_world,
    two_client_toy,
)
from fedunlearn import models, unlearn
from fedunlearn.engine import (
    Cohort,
    FederationConfig,
    _accumulate,
    affine_round,
    federation_loss,
    federation_loss_and_grads,
    init_params,
    kernel_round,
    local_updates,
    read_checkpoint,
    renormalized_weights,
    write_checkpoint,
)
from fedunlearn.errors import (
    DimensionMismatchError,
    DivergedTrainingError,
    EmptyFederationError,
    SingularRemovalError,
)
from fedunlearn.history import TrainingHistory
from fedunlearn.models import ClientDataset, ModelKind, ModelSpec, regime_constants
from fedunlearn.sensitivity import SensitivityLedger
from fedunlearn.unlearn import StoppingRule, retrain_until

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
    np.testing.assert_array_equal(_accumulate(a[None], np.array([1.0])), a)
    np.testing.assert_array_equal(_accumulate(np.array([a, b]), np.array([0.5, 0.5])), [2.0, 4.0])


@settings(max_examples=50, deadline=None)
@given(
    thetas=hnp.arrays(np.float64, (3, 4), elements=st.floats(-10, 10, allow_nan=False)),
    shift=hnp.arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False)),
)
def test_aggregate_affine_equivariance(thetas, shift):
    weights = np.array([0.5, 0.25, 0.25])
    lhs = _accumulate(thetas + shift, weights)
    rhs = _accumulate(thetas, weights) + shift
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
    """The run's rounds as (model before, client models, model after),
    replayed with kernel_round from the models retrain_until recorded."""
    active = tuple(range(fed.client_count)) if active is None else active
    history = TrainingHistory(theta0)
    retrain_until(spec, fed, theta0, active, exactly(rounds), history=history)
    cohort = fed.cohort(active, spec)
    return [(history.models[n], *kernel_round(cohort, history.models[n], n)) for n in range(rounds)]


def final_model(spec, fed, theta0, rounds):
    return retrain_until(spec, fed, theta0, range(fed.client_count), exactly(rounds)).final_model


def test_rounds_chain_and_cover_the_active_set():
    spec, datasets = make_ridge(clients=4, seed=1)
    fed, _ = fed_for(spec, datasets, frac=0.5)
    theta0 = init_params(spec, 3)
    records = rounds_of(spec, fed, theta0, 6, active=(0, 2, 3))
    assert len(records) == 6
    np.testing.assert_array_equal(records[0][0], theta0)
    everyone = fed.cohort(range(4), spec)
    for n, ((_, _, after), (before, client_models, _)) in enumerate(zip(records, records[1:]), start=1):
        # the run stepped by the cohort's aggregate map, which meets kernel_round to rounding
        assert_near(after, before)
        assert client_models.shape == (3, 4)
        # row i is client active[i]'s local model
        assert client_models.tobytes() == kernel_round(everyone, before, n)[0][[0, 2, 3]].tobytes()


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
    losses = [federation_loss(everyone, theta)]
    for _, _, after in rounds_of(spec, fed, theta, 25):
        losses.append(federation_loss(everyone, after))
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


def round_world(model):
    if model == "logistic":
        spec, datasets = make_logistic(clients=10, samples=16, features=4, seed=21, l2=0.05)
    else:
        spec, datasets = make_ridge(clients=10, samples=16, features=4, seed=21)
        if model != "ridge":
            dims = (4, 5, 1) if model == "mlp2" else (4, 3, 2, 1)
            spec = ModelSpec(ModelKind.TINY_MLP, dims, 0.01)
    return spec, datasets


def ragged_weights(count):
    """Uneven weights on one data shape, the "ragged" cases below: every
    third client from client 1 weighs what 11 samples weigh to the others'
    16, as the sample-count weights of such clients would."""
    raw = np.where(np.arange(count) % 3 == 1, 11.0, 16.0)
    return raw / raw.sum()


@pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
@pytest.mark.parametrize("active", [tuple(range(10)), (0, 2, 3, 5, 6, 7, 8, 9)], ids=["all", "subset"])
@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("model", ["ridge", "logistic", "mlp2", "mlp3"])
def test_stacked_round_matches_a_per_client_reference_bitwise(model, local_steps, active, ragged):
    spec, datasets = round_world(model)
    weights = ragged_weights(10) if ragged else None
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps, weights=weights)
    theta0 = 0.3 * np.random.default_rng(5).standard_normal(spec.param_count)
    rounds = 4
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(0.9, local_steps, fed.client_count)
    result = retrain_until(
        spec, fed, theta0, active, exactly(rounds), ledger=ledger, history=history
    )
    theta, cohort = theta0, fed.cohort(active, spec)

    def same(got, want):
        # a ridge run with d <= n steps by its clients' affine maps
        if model == "ridge":
            assert_near(got, want)
        else:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    assert cohort.active == active
    for n in range(rounds):
        client_models, after = kernel_round(cohort, theta, n)
        local_models, total, deltas, retained = per_client_round(spec, fed, theta, active)
        assert client_models.tobytes() == np.array(local_models).tobytes()
        assert after.tobytes() == total.tobytes()
        same(history.models[n + 1], total)
        same(ledger.deltas[n], deltas)
        same(np.float64(result.loss_trace[n + 1][1]), np.float64(retained))
        theta = total


def test_a_retraining_run_builds_one_cohort(monkeypatch):
    spec, datasets = round_world("ridge")
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
    spec, datasets = round_world("ridge")
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
    _, datasets = round_world("ridge")
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
    _, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1)
    spec = ModelSpec(ModelKind.RIDGE, (4,), 0.1)
    for active in [(0, 2, 3, 5, 6, 7, 8, 9), (1, 3), (3, 1), range(10)]:
        cohort = fed.cohort(active, spec)
        assert cohort.active == tuple(sorted(set(active)))
        assert len(cohort.features) == len(cohort.targets) == len(cohort.active)
        for client, x, y in zip(cohort.active, cohort.features, cohort.targets):
            assert x.tobytes() == datasets[client].features.tobytes()
            assert y.tobytes() == datasets[client].targets.tobytes()
    # the full cohort is the federation's read-only stack itself, uncopied
    full = fed.cohort(range(10), spec)
    assert full.features is fed.cohort(range(10), spec).features
    assert not full.features.flags.writeable and not full.targets.flags.writeable
    assert not np.shares_memory(fed.cohort((1, 3), spec).features, full.features)


def test_subset_round_increments_use_the_renormalised_weights():
    spec, datasets = round_world("logistic")
    raw = np.arange(9.0, 19.0)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=raw / raw.sum())
    active = (1, 2, 4, 7, 8)
    q = renormalized_weights(fed.weights, set(range(10)) - set(active))
    cohort = fed.cohort(active, spec)
    client_models, after = kernel_round(cohort, init_params(spec, 4), 0)
    want = np.zeros(10)
    for row, c in enumerate(active):
        p = float(q[c])
        want[c] = p / (1.0 - p) * float(np.linalg.norm(client_models[row] - after))
    assert cohort.weights.tobytes() == q.tobytes()
    assert round_increments(cohort, client_models, after).tobytes() == want.tobytes()


def test_one_round_makes_one_kernel_call_per_local_step(monkeypatch):
    calls = []
    real = models.stacked_grad

    def counted(spec, features, targets, thetas):
        calls.append(features.shape[0])
        return real(spec, features, targets, thetas)

    monkeypatch.setattr(models, "stacked_grad", counted)
    spec, datasets = make_logistic(clients=6, samples=10, seed=2)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=3)
    kernel_round(fed.cohort(range(6), spec), np.zeros(4), 0)
    assert calls == [6, 6, 6]  # K calls over all C clients, not C * K
    calls.clear()
    kernel_round(fed.cohort((1, 4), spec), np.zeros(4), 0)
    assert calls == [2, 2, 2]
    # a ridge run with d <= n steps by its aggregate map, with no kernel call
    spec, datasets = make_ridge(clients=6, samples=10, seed=2)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=3)
    calls.clear()
    retrain_until(spec, fed, np.zeros(4), range(6), exactly(4))
    assert calls == []


def counted_operators(monkeypatch):
    """Patch models.ridge_operators to record the stack's shape and l2 at each call."""
    calls = []
    real = models.ridge_operators

    def counted(spec, moments, samples, eta, steps):
        gram = moments[0]
        calls.append(((len(gram), samples, gram.shape[2]), spec.l2))
        return real(spec, moments, samples, eta, steps)

    monkeypatch.setattr(models, "ridge_operators", counted)
    return calls


def test_ridge_operators_are_built_once_per_data_shape_group_and_l2(monkeypatch):
    # a federation is one data-shape group: one build per l2
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    calls = counted_operators(monkeypatch)
    theta = np.zeros(4)
    for n, active in enumerate([range(10), (0, 2, 3), range(10), (1, 3, 9), (4,)]):
        cohort = fed.cohort(active, spec)
        theta = affine_round(cohort, theta, n)
        federation_loss(cohort, theta)
    assert calls == [((10, 16, 4), 0.1)]
    # another l2 gets operators of its own and leaves the first l2's in place
    stronger = ModelSpec(ModelKind.RIDGE, (4,), 0.5)
    # a cohort builds them when its operators are first read, as a round reads them
    cohorts = [fed.cohort(range(10), each) for each in (stronger, spec, stronger)]
    assert len(calls) == 1
    for cohort in cohorts:
        cohort.operators
    assert calls[1:] == [((10, 16, 4), 0.5)]
    # a spec of the same l2 but another input size gets no operators of the data's
    with pytest.raises(DimensionMismatchError):
        fed.cohort(range(10), ModelSpec(ModelKind.RIDGE, (5,), 0.1))
    # data with d > n has no moments, so no operators are built for it
    spec, datasets = make_ridge(clients=4, samples=3, features=4, seed=21)
    wide = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    assert wide.cohort(range(4), spec).operators is None
    assert len(calls) == 2


def test_two_l2_values_on_one_federation_each_train_with_their_own_operators():
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=3, weights=ragged_weights(10))
    theta0 = 0.3 * np.random.default_rng(6).standard_normal(4)
    finals = {}
    for l2 in (0.1, 0.5, 0.1):
        each = ModelSpec(ModelKind.RIDGE, (4,), l2)
        theta = theta0
        for n in range(3):
            after = affine_round(fed.cohort(range(10), each), theta, n)
            _, want, _, _ = per_client_round(each, fed, theta, tuple(range(10)))
            assert_near(after, want)
            theta = after
        finals.setdefault(l2, []).append(theta)
    assert finals[0.1][0].tobytes() == finals[0.1][1].tobytes()
    assert np.linalg.norm(finals[0.1][0] - finals[0.5][0]) > 1e-3


def test_a_subset_gets_the_operators_of_its_own_data():
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=3)
    fed.cohort(range(10), spec).operators
    for subset in [(0, 2, 3, 5, 6, 7, 8, 9), (1, 3), (4,)]:
        maps, offsets = fed.cohort(subset, spec).operators
        members = [datasets[c] for c in subset]
        moments = models.ridge_moments(np.stack([d.features for d in members]), np.stack([d.targets for d in members]))
        own_maps, own_offsets = models.ridge_operators(spec, moments, members[0].sample_count, 0.05, 3)
        assert maps.tobytes() == own_maps.tobytes()
        assert offsets.tobytes() == own_offsets.tobytes()


@pytest.mark.parametrize("model", ["logistic", "mlp2"])
def test_logistic_and_mlp_federations_build_no_operators(monkeypatch, model):
    spec, datasets = round_world(model)
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    calls = counted_operators(monkeypatch)
    theta = init_params(spec, 0)
    for n, active in enumerate([range(10), (0, 2, 3)]):
        cohort = fed.cohort(active, spec)
        theta = kernel_round(cohort, theta, n)[1]
        federation_loss(cohort, theta)
    assert calls == []
    assert fed.cohort(range(10), spec).operators is None


@pytest.mark.parametrize(
    "active", [tuple(range(10)), (0, 1, 3, 5, 8, 9), (2, 4, 6, 7)], ids=["all", "subset", "four"]
)
@pytest.mark.parametrize("local_steps", [1, 2, 5])
def test_fused_ridge_round_matches_the_per_step_kernel(local_steps, active):
    """The fused rounds against the per-step stacked_grad loop, which shares
    no code with the operators: each client's map A_i theta + b_i, as
    local_gaps recomputes it, and the aggregate map of affine_round."""
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps, weights=ragged_weights(10))
    cohort = fed.cohort(active, spec)
    everyone = fed.cohort(range(10), spec)
    maps, offsets = cohort.operators
    # a client's operators and kernel steps do not depend on who shares its cohort
    assert maps.tobytes() == everyone.operators[0][list(active)].tobytes()
    theta = 0.3 * np.random.default_rng(5).standard_normal(4)
    for n in range(4):
        client_models = maps @ theta + offsets
        after = affine_round(cohort, theta, n)
        stepped = kernel_round(cohort, theta, n)[0]
        assert stepped.tobytes() == kernel_round(everyone, theta, n)[0][list(active)].tobytes()
        local_models, total, deltas, retained = per_client_round(spec, fed, theta, active)
        assert stepped.tobytes() == np.array(local_models).tobytes()
        assert_near(client_models, local_models)
        assert_near(after, total)
        assert_near(round_increments(cohort, client_models, after), deltas)
        assert_near(federation_loss(cohort, after), retained)
        theta = total


def lone_diverging_world(weights=None):
    """Four ridge clients whose client 2 diverges on its own, from round
    `expected` of a run from init_params(spec, 0) starting at `start`, as a
    per-client loop finds it: (spec, fed, clients, start, expected, the
    global model's norm after that round)."""
    spec, datasets = make_ridge(clients=4, samples=20, seed=3)
    fed, _ = fed_for(spec, datasets, frac=0.5)
    # client 2's features scaled up: its step size is far past its own bound
    datasets[2] = ClientDataset(6.0 * datasets[2].features, datasets[2].targets)
    fed = FederationConfig.from_datasets(datasets, eta=fed.eta, local_steps=2, weights=weights)
    theta, start, everyone = init_params(spec, 0), 5, tuple(range(4))
    for n in range(start, start + 50):
        local_models, theta, _, _ = per_client_round(spec, fed, theta, everyone)
        too_far = [
            c for c, m in enumerate(local_models) if not np.isfinite(m).all() or np.linalg.norm(m) > 1e8
        ]
        if too_far:
            assert too_far == [2]
            assert n > start + 1
            return spec, fed, everyone, start, n, float(np.linalg.norm(theta))
    raise AssertionError("no client diverged")


def test_a_lone_diverging_client_stops_training_in_its_round():
    spec, fed, everyone, start, expected, _ = lone_diverging_world()
    # the cohort takes the fused path, whose guard runs once per round
    assert fed.cohort(everyone, spec).affine is not None
    with pytest.raises(DivergedTrainingError) as exc:
        retrain_until(spec, fed, init_params(spec, 0), everyone, exactly(50), start_position=start)
    assert exc.value.round_index == expected


# ---------------------------------------------------------------------------
# affine runs: a cohort with ridge operators steps by its aggregate map, then
# books its rounds as one block
# ---------------------------------------------------------------------------


def recorded_run(spec, fed, theta0, active, stopping, start_position=0):
    """retrain_until into a fresh history and ledger: (result, models, ledger)."""
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(0.9, fed.local_steps, fed.client_count)
    result = retrain_until(
        spec, fed, theta0, active, stopping, ledger=ledger, history=history, start_position=start_position
    )
    return result, np.array(history.models), ledger


def assert_rows_near(got, want):
    """Row by row to rounding, so a row booked at another round fails."""
    assert got.shape == want.shape
    for got_row, want_row in zip(got, want):
        assert_near(got_row, want_row)


@pytest.mark.parametrize("active", [tuple(range(10)), (0, 1, 3, 5, 6, 8)], ids=["all", "subset"])
@pytest.mark.parametrize("local_steps", [1, 5])
def test_an_affine_run_meets_the_per_round_loop_to_rounding(local_steps, active):
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps, weights=ragged_weights(10))
    cohort = fed.cohort(active, spec)
    assert cohort.affine is not None
    theta0 = 0.3 * np.random.default_rng(11).standard_normal(4)
    # more rounds than d = 4: the booking spans three chunks of rounds
    result, kept, ledger = recorded_run(spec, fed, theta0, active, exactly(11))
    want_models, want_deltas, want_losses = round_loop(spec, fed, theta0, active, exactly(11))
    assert result.rounds == 11 and kept[0].tobytes() == theta0.tobytes()
    assert_rows_near(kept, want_models)
    assert_rows_near(ledger.deltas, want_deltas)
    assert_near([loss for _, loss in result.loss_trace], want_losses)
    assert [n for n, _ in result.loss_trace] == list(range(12))
    # the ledger's Psi is the recurrence over its own rows, bit for bit
    looped = SensitivityLedger(0.9, local_steps, fed.client_count)
    for row in ledger.deltas:
        looped.extend(row[None])
    assert ledger.psi.tobytes() == looped.psi.tobytes()


def test_an_affine_run_stops_at_a_finite_threshold_in_the_reference_round():
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=ragged_weights(10))
    active = [c for c in range(10) if c != 3]
    theta0 = 0.3 * np.random.default_rng(12).standard_normal(4)
    _, _, losses = round_loop(spec, fed, theta0, active, exactly(8))
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
    rule = StoppingRule(0.5 * (losses[4] + losses[5]), 0, 8)
    want_models, want_deltas, want_losses = round_loop(spec, fed, theta0, active, rule)
    assert len(want_losses) == 6
    result, kept, ledger = recorded_run(spec, fed, theta0, active, rule, start_position=3)
    assert (result.rounds, result.converged) == (5, True)
    assert [n for n, _ in result.loss_trace] == list(range(3, 9))
    assert_rows_near(kept, want_models)
    assert_rows_near(ledger.deltas, want_deltas)
    assert_near([loss for _, loss in result.loss_trace], want_losses)


@pytest.mark.parametrize("active", [None, 3], ids=["all", "one-removed"])
@pytest.mark.parametrize("model", ["ridge-wide", "logistic", "mlp2"])
def test_a_kernel_run_books_what_the_per_round_loop_records_bit_for_bit(model, active):
    spec, fed = fused_fed(model, local_steps=2)
    active = [c for c in range(fed.client_count) if c != active]
    assert fed.cohort(active, spec).affine is None
    theta0 = 0.3 * np.random.default_rng(14).standard_normal(spec.param_count)
    result, kept, ledger = recorded_run(spec, fed, theta0, active, exactly(7))
    want_models, want_deltas, want_losses = round_loop(spec, fed, theta0, active, exactly(7))
    looped = SensitivityLedger(0.9, fed.local_steps, fed.client_count)
    for row in want_deltas:
        looped.extend(row[None])
    assert kept.tobytes() == want_models.tobytes()
    assert ledger.deltas.tobytes() == want_deltas.tobytes()
    assert ledger.psi.tobytes() == looped.psi.tobytes()
    assert np.array([loss for _, loss in result.loss_trace]).tobytes() == np.array(want_losses).tobytes()


@pytest.mark.parametrize("weights", [None, (0.32, 0.32, 0.04, 0.32)], ids=["by-samples", "light"])
def test_a_diverging_affine_run_books_exactly_the_rounds_before_it(weights):
    """With client 2 this light the global model stays within the norm in
    the round its local model leaves it: the step loop runs past that round,
    and the booking's guard on the recomputed client models stops the run."""
    spec, fed, everyone, start, expected, global_norm = lone_diverging_world(weights)
    assert fed.cohort(everyone, spec).affine is not None
    assert (global_norm < 1e8) == (weights is not None)
    theta0 = init_params(spec, 0)
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(0.9, fed.local_steps, fed.client_count)
    with pytest.raises(DivergedTrainingError) as exc:
        retrain_until(spec, fed, theta0, everyone, exactly(50), ledger=ledger, history=history, start_position=start)
    assert exc.value.round_index == expected
    done = expected - start
    assert (len(ledger), history.end_position) == (done, done)
    want_models, want_deltas, _ = round_loop(spec, fed, theta0, everyone, exactly(done))
    assert_rows_near(np.array(history.models), want_models)
    assert_rows_near(ledger.deltas, want_deltas)


# ---------------------------------------------------------------------------
# kernel runs: a cohort without an aggregate map keeps each round's client
# models until a chunk of rounds, as many as hold no more values than the
# cohort's features, is guarded and measured as one block
# ---------------------------------------------------------------------------


def chunk_rounds(cohort):
    """The rounds of a kernel run's chunk, derived as retrain_until does."""
    return max(1, cohort.features.size // (len(cohort.active) * cohort.spec.param_count))


@pytest.mark.parametrize("active", [tuple(range(10)), (0, 1, 2, 4, 6, 8, 9)], ids=["all", "subset"])
@pytest.mark.parametrize("local_steps", [1, 3])
def test_a_kernel_run_several_chunks_long_books_what_the_per_round_loop_records(local_steps, active):
    """16 samples of 4 features to 4 parameters: 16 rounds to a chunk, so 40
    rounds are two full chunks and a last one the booking measures; every
    model, delta, Psi row and loss equals round_loop's bit for bit."""
    spec, datasets = round_world("logistic")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps, weights=ragged_weights(10))
    cohort = fed.cohort(active, spec)
    assert cohort.affine is None and chunk_rounds(cohort) == 16
    theta0 = 0.3 * np.random.default_rng(16).standard_normal(spec.param_count)
    result, kept, ledger = recorded_run(spec, fed, theta0, active, exactly(40), start_position=2)
    want_models, want_deltas, want_losses = round_loop(spec, fed, theta0, active, exactly(40))
    looped = SensitivityLedger(0.9, fed.local_steps, fed.client_count)
    for row in want_deltas:
        looped.extend(row[None])
    assert result.rounds == 40 and [n for n, _ in result.loss_trace] == list(range(2, 43))
    assert kept.tobytes() == want_models.tobytes()
    assert ledger.deltas.tobytes() == want_deltas.tobytes()
    assert ledger.psi.tobytes() == looped.psi.tobytes()
    assert np.array([loss for _, loss in result.loss_trace]).tobytes() == np.array(want_losses).tobytes()


def test_a_kernel_run_stops_at_a_finite_threshold_inside_a_later_chunk():
    spec, datasets = round_world("logistic")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=ragged_weights(10))
    active = [c for c in range(10) if c != 3]
    assert chunk_rounds(fed.cohort(active, spec)) == 16
    theta0 = 0.3 * np.random.default_rng(17).standard_normal(spec.param_count)
    _, _, losses = round_loop(spec, fed, theta0, active, exactly(30))
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
    # the run stops after 20 rounds, four rounds into its second chunk
    rule = StoppingRule(0.5 * (losses[19] + losses[20]), 0, 30)
    want_models, want_deltas, want_losses = round_loop(spec, fed, theta0, active, rule)
    assert len(want_losses) == 21
    result, kept, ledger = recorded_run(spec, fed, theta0, active, rule)
    assert (result.rounds, result.converged) == (20, True)
    assert kept.tobytes() == want_models.tobytes()
    assert ledger.deltas.tobytes() == want_deltas.tobytes()
    assert np.array([loss for _, loss in result.loss_trace]).tobytes() == np.array(want_losses).tobytes()


def kernel_diverging_world(model):
    """Four clients stepping through the kernel whose light client 2 (weight
    0.04) leaves the norm on its own, from round `expected` of a run from
    init_params(spec, 0) starting at `start`, as a per-client loop finds it:
    (spec, fed, clients, start, expected, the global model's norm after that
    round).

    ridge-wide: d = 7 > n = 4, client 2's features scaled by 3, two local
    steps.  logistic: eta l2 = 2.1 grows every model by 1.1 a round, and
    client 2's features scaled by 1e6 put its data step far out.
    """
    weights = (0.32, 0.32, 0.04, 0.32)
    if model == "ridge-wide":
        spec, datasets = make_ridge(clients=4, samples=4, features=7, seed=3)
        eta, local_steps = fed_for(spec, datasets, frac=0.5)[0].eta, 2
        datasets[2] = ClientDataset(3.0 * datasets[2].features, datasets[2].targets)
    else:
        spec, datasets = make_logistic(clients=4, samples=10, features=3, seed=3, l2=0.2)
        eta, local_steps = 10.5, 1
        datasets[2] = ClientDataset(1e6 * datasets[2].features, datasets[2].targets)
    fed = FederationConfig.from_datasets(datasets, eta=eta, local_steps=local_steps, weights=weights)
    theta, start, everyone = init_params(spec, 0), 5, tuple(range(4))
    for n in range(start, start + 80):
        local_models, theta, _, _ = per_client_round(spec, fed, theta, everyone)
        too_far = [c for c, m in enumerate(local_models) if not np.isfinite(m).all() or np.linalg.norm(m) > 1e8]
        if too_far:
            assert too_far == [2]
            return spec, fed, everyone, start, n, float(np.linalg.norm(theta))
    raise AssertionError("no client diverged")


@pytest.mark.parametrize("model", ["ridge-wide", "logistic"])
def test_a_diverging_kernel_run_books_exactly_the_rounds_before_it(model, monkeypatch):
    """Client 2's local model leaves the norm while the global model stays
    within it, inside a later chunk.  ridge-wide's chunk ends before the
    global model leaves the norm, so the chunk's guard ends the loop;
    logistic's global model leaves it the next round, whose guard stops the
    loop, and the booking's guard on the pending chunk names the earlier
    round.  Either way no round past the failing round's chunk is stepped."""
    spec, fed, everyone, start, expected, global_norm = kernel_diverging_world(model)
    cohort = fed.cohort(everyone, spec)
    chunk, done = chunk_rounds(cohort), expected - start
    assert cohort.affine is None and global_norm < 1e8
    assert chunk < done and done % chunk not in (0, chunk - 1)
    stepped = []
    real = unlearn.kernel_round

    def counted(*args):
        stepped.append(args[2])
        return real(*args)

    monkeypatch.setattr(unlearn, "kernel_round", counted)
    theta0 = init_params(spec, 0)
    history = TrainingHistory(theta0)
    ledger = SensitivityLedger(0.9, fed.local_steps, fed.client_count)
    with pytest.raises(DivergedTrainingError) as exc:
        retrain_until(spec, fed, theta0, everyone, exactly(80), ledger=ledger, history=history, start_position=start)
    assert exc.value.round_index == expected
    assert expected < stepped[-1] < start + (done // chunk + 1) * chunk
    assert (len(ledger), history.end_position) == (done, done)
    want_models, want_deltas, _ = round_loop(spec, fed, theta0, everyone, exactly(done))
    assert np.array(history.models).tobytes() == want_models.tobytes()
    assert ledger.deltas.tobytes() == want_deltas.tobytes()


def test_a_singular_hessian_takes_the_anchor_from_lstsq(monkeypatch):
    """The anchor solves H theta = r and falls back to lstsq only when solve
    refuses a singular H (l2 = 0, a duplicated feature); the loss meets the
    kernel to rounding either way."""
    calls = []
    real = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    for world, fallbacks in (("ragged", []), ("singular", [(4, 4)])):
        spec, datasets = duplicated_column_world() if world == "singular" else round_world("ridge")
        fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=ragged_weights(10))
        cohort = fed.cohort((0, 2, 3, 5, 8, 9), spec)
        anchor, _, _, hessian = cohort.quadratic
        assert calls == fallbacks
        calls.clear()
        if world == "singular":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(hessian, hessian @ anchor)
        rng = np.random.default_rng(15)
        for theta in [anchor] + [0.3 * rng.standard_normal(4) for _ in range(6)]:
            want = kernel_rows_loss(spec, cohort, theta)
            assert abs(federation_loss(cohort, theta) - want) <= 1e-13 * abs(want)


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


def test_a_federation_and_its_constants_refuse_two_data_shapes():
    spec, datasets = make_ridge(clients=3, samples=16, features=4, seed=2)
    short = datasets[:1] + [ClientDataset(datasets[1].features[:11], datasets[1].targets[:11])] + datasets[2:]
    narrow = datasets[:2] + [ClientDataset(datasets[2].features[:, :3], datasets[2].targets)]
    for clients in (short, narrow):
        with pytest.raises(DimensionMismatchError, match="data shapes"):
            FederationConfig.from_datasets(clients, eta=0.1, local_steps=1, weights=[0.25, 0.5, 0.25])
    with pytest.raises(DimensionMismatchError, match="data shapes"):
        regime_constants(spec, short)
    with pytest.raises(DimensionMismatchError, match="data shapes"):
        models.stack_clients(short)
    # one shape stacks every client in order, so the engine's rows are the clients
    features, targets = models.stack_clients(datasets)
    assert features.tobytes() == b"".join(d.features.tobytes() for d in datasets)
    assert targets.tobytes() == b"".join(d.targets.tobytes() for d in datasets)


def test_default_weights_proportional_to_samples():
    # a federation's clients share one sample count, so the default is uniform
    _, datasets = make_ridge(clients=3, seed=1)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=1)
    assert fed.weights.tobytes() == np.full(3, 1.0 / 3.0).tobytes()


def test_init_params_modes():
    spec = ModelSpec(ModelKind.RIDGE, (6,))
    np.testing.assert_array_equal(init_params(spec, 5, "zeros"), np.zeros(6))
    want = 0.01 * np.random.default_rng(5).standard_normal(6)
    np.testing.assert_array_equal(init_params(spec, 5, "normal"), want)
    assert not np.array_equal(init_params(spec, 5), init_params(spec, 6))
    with pytest.raises(ValueError):
        init_params(spec, 0, "ones")


def kernel_rows_loss(spec, cohort, theta):
    """The cohort's loss from the kernel's rows at theta broadcast to one row
    per client, summed in ascending client order."""
    features, targets = cohort.features, cohort.targets
    rows = models.stacked_loss(spec, features, targets, np.broadcast_to(theta, (len(cohort.active), len(theta))))
    assert models.stacked_loss(spec, features, targets, theta).tobytes() == rows.tobytes()
    return np.add.accumulate(cohort.active_weights * rows)[-1]


@pytest.mark.parametrize("model", ["ridge", "ridge-wide", "logistic", "mlp2"])
def test_federation_loss_equals_the_broadcast_kernel_rows_bitwise(model):
    """federation_loss hands the kernel one shared theta; the cohort's rows
    equal the kernel's at theta broadcast to one row per client, bit for bit.
    A ridge cohort with d <= n evaluates its quadratic form instead, which
    equals those rows to rounding."""
    if model == "ridge":
        spec, datasets = round_world(model)
        fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=1, weights=ragged_weights(10))
    else:
        spec, fed = fused_fed(model, local_steps=1)
    cohort = fed.cohort((0, 1, 3, 4, 6), spec)
    theta = 0.3 * np.random.default_rng(7).standard_normal(spec.param_count)
    want = kernel_rows_loss(spec, cohort, theta)
    got = federation_loss(cohort, theta)
    if model == "ridge":
        assert cohort.quadratic is not None
        assert abs(got - want) <= 1e-13 * abs(want)
    else:
        assert cohort.quadratic is None
        assert np.float64(got).tobytes() == want.tobytes()


def fused_fed(model, local_steps):
    """A federation whose cohorts step through the kernel, with uneven
    weights: ridge with d = 6 > n = 5, logistic, or a two-layer MLP."""
    if model == "ridge-wide":
        spec, datasets = make_ridge(clients=8, samples=5, features=6, seed=22)
    else:
        spec, datasets = round_world(model)
    weights = ragged_weights(len(datasets))
    return spec, FederationConfig.from_datasets(datasets, eta=0.05, local_steps=local_steps, weights=weights)


def row_kernel_models(spec, fed, theta, cohort):
    """A round's local models from separate kernel calls, each step taken at
    theta repeated to one row per client, as before the fused pass."""
    current = np.repeat(theta[None], len(cohort.active), axis=0)
    for _ in range(fed.local_steps):
        current = current - fed.eta * models.stacked_grad(spec, cohort.features, cohort.targets, current)
    return current


@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("removed", [None, 3], ids=["all", "one-removed"])
@pytest.mark.parametrize("model", ["ridge-wide", "logistic", "mlp2"])
def test_the_fused_pass_equals_the_separate_kernels_bitwise(model, removed, local_steps):
    """federation_loss_and_grads's loss is federation_loss's and its
    gradients the kernel's at theta; a round stepping from them gives the
    separate kernels' local models, and from gradients at another theta not."""
    spec, fed = fused_fed(model, local_steps)
    cohort = fed.cohort([c for c in range(fed.client_count) if c != removed], spec)
    assert cohort.quadratic is None
    theta, elsewhere = 0.3 * np.random.default_rng(9).standard_normal((2, spec.param_count))
    value, grads = federation_loss_and_grads(cohort, theta)
    assert np.float64(value).tobytes() == np.float64(federation_loss(cohort, theta)).tobytes()
    repeated = np.repeat(theta[None], len(cohort.active), axis=0)
    assert grads.tobytes() == models.stacked_grad(spec, cohort.features, cohort.targets, repeated).tobytes()
    want = row_kernel_models(spec, fed, theta, cohort).tobytes()
    assert kernel_round(cohort, theta, 0, grads)[0].tobytes() == want
    assert kernel_round(cohort, theta, 0)[0].tobytes() == want
    _, stale = federation_loss_and_grads(cohort, elsewhere)
    assert kernel_round(cohort, theta, 0, stale)[0].tobytes() != want


@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("model", ["ridge-wide", "logistic", "mlp2"])
def test_an_early_stop_on_the_fused_loss_matches_the_separate_kernels(model, local_steps):
    """retrain_until with a finite loss threshold and min_rounds = 0 against
    a loop of separate kernel calls on a cohort missing one client: the same
    rounds, losses and models, bit for bit."""
    spec, fed = fused_fed(model, local_steps)
    active = [c for c in range(fed.client_count) if c != 3]
    cohort = fed.cohort(active, spec)
    thetas = [0.3 * np.random.default_rng(10).standard_normal(spec.param_count)]
    losses = [federation_loss(cohort, thetas[0])]
    for _ in range(8):
        local = row_kernel_models(spec, fed, thetas[-1], cohort)
        thetas.append(np.add.accumulate(cohort.active_weights[:, None] * local, axis=0)[-1])
        losses.append(federation_loss(cohort, thetas[-1]))
    rule = StoppingRule(losses[5], 0, 8)
    stop = next(n for n, value in enumerate(losses) if value <= rule.loss_threshold)
    assert stop >= 2
    history = TrainingHistory(thetas[0])
    result = retrain_until(spec, fed, thetas[0], active, rule, history=history)
    assert (result.rounds, result.converged) == (stop, True)
    assert np.array([value for _, value in result.loss_trace]).tobytes() == np.array(losses[: stop + 1]).tobytes()
    assert np.array(history.models).tobytes() == np.array(thetas[: stop + 1]).tobytes()


def duplicated_column_world():
    """round_world's ridge clients with feature 3 replaced by a copy of
    feature 2 and l2 = 0: every client's X^T X, and so H, is singular."""
    spec, datasets = round_world("ridge")
    datasets = [ClientDataset(d.features[:, [0, 1, 2, 2]], d.targets) for d in datasets]
    return ModelSpec(ModelKind.RIDGE, (4,), 0.0), datasets


@pytest.mark.parametrize("case", ["full", "partial", "far", "singular"])
def test_ridge_quadratic_loss_matches_the_kernel_rows(case):
    """The quadratic form against the kernel it replaces: on a full and a
    partial cohort, at thetas 100 times further out (as a noised release
    lands), and with l2 = 0 and a duplicated feature column, where H is
    singular and the anchor is lstsq's minimum-norm solution."""
    if case == "singular":
        spec, datasets = duplicated_column_world()
    else:
        spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=ragged_weights(10))
    cohort = fed.cohort(range(10) if case == "full" else (0, 1, 3, 4, 6, 8), spec)
    anchor, anchor_loss, _, hessian = cohort.quadratic
    if case == "singular":
        assert np.linalg.matrix_rank(hessian) == 3
    # at the anchor the form is the kernel's own value
    assert federation_loss(cohort, anchor) == anchor_loss == kernel_rows_loss(spec, cohort, anchor)
    scale = 30.0 if case == "far" else 0.3
    rng = np.random.default_rng(8)
    for theta in [anchor + 1e-6 * rng.standard_normal(4)] + [scale * rng.standard_normal(4) for _ in range(8)]:
        want = kernel_rows_loss(spec, cohort, theta)
        assert abs(federation_loss(cohort, theta) - want) <= 1e-13 * abs(want)
    with pytest.raises(DimensionMismatchError):
        federation_loss(cohort, np.zeros(5))


@pytest.mark.parametrize("world", ["ragged", "singular"])
def test_a_cohorts_loss_does_not_depend_on_which_theta_came_first(world):
    """The anchor depends on the cohort alone, so two cohorts of the same
    clients, on this federation or a second one of the same data, give the
    same losses bit for bit whichever theta each evaluates first."""
    spec, datasets = duplicated_column_world() if world == "singular" else round_world("ridge")
    weights = ragged_weights(10)
    feds = [FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2, weights=weights) for _ in range(2)]
    active = (0, 2, 3, 5, 8, 9)
    thetas = [0.3 * np.random.default_rng(9).standard_normal(4), np.zeros(4), np.full(4, 40.0)]
    first = [federation_loss(feds[0].cohort(active, spec), theta) for theta in thetas]
    for fed in (feds[0], feds[1]):
        cohort = fed.cohort(active, spec)
        backwards = [federation_loss(cohort, theta) for theta in thetas[::-1]]
        assert np.array(backwards[::-1]).tobytes() == np.array(first).tobytes()


def per_chunk_operators(spec, X, y, eta, steps):
    """ridge_operators as they were built from the data itself, a few clients
    at a time (each chunk's d x d matrices holding no more values than one
    client's data), before the federation kept the stack's moments."""
    n, d = X.shape[1:]
    if d > n:
        return None
    maps, offsets = np.empty((len(X), d, d)), np.empty((len(X), d))
    diagonal = np.arange(d)
    chunk = n // d
    for lo in range(0, len(X), chunk):
        part = slice(lo, lo + chunk)
        Xt = X[part].transpose(0, 2, 1)
        step = np.matmul(Xt, X[part]) * (-eta / n)
        step[:, diagonal, diagonal] += 1.0 - eta * spec.l2
        pull = np.matmul(Xt, y[part][:, :, None])[:, :, 0] * (eta / n)
        power, offset = step, pull
        for _ in range(steps - 1):
            power = np.matmul(step, power)
            offset = np.matmul(step, offset[:, :, None])[:, :, 0] + pull
        maps[part], offsets[part] = power, offset
    return maps, offsets


def test_operators_from_the_cached_moments_equal_the_per_chunk_build_bitwise():
    worlds = [
        round_world("ridge"),
        # a stack of ridge_fleet's shape, twelve clients in chunks of five
        make_ridge(clients=12, samples=100, features=20, seed=23, l2=0.05),
        # d > n: no moments, no operators
        make_ridge(clients=4, samples=3, features=4, seed=21),
    ]
    for spec, datasets in worlds:
        for steps in (1, 5):
            fed = FederationConfig.from_datasets(datasets, eta=0.01, local_steps=steps)
            cohort = fed.cohort(range(len(datasets)), spec)
            want = per_chunk_operators(spec, cohort.features, cohort.targets, 0.01, steps)
            if want is None:
                assert cohort.operators is None
                continue
            assert cohort.operators[0].tobytes() == want[0].tobytes()
            assert cohort.operators[1].tobytes() == want[1].tobytes()


def test_ridge_moments_are_built_once_per_federation(monkeypatch):
    spec, datasets = round_world("ridge")
    fed = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    calls = []
    real = models.ridge_moments

    def counted(X, y):
        calls.append(X.shape)
        return real(X, y)

    monkeypatch.setattr(models, "ridge_moments", counted)
    theta = np.zeros(4)
    for n, l2 in enumerate((0.1, 0.5)):
        each = ModelSpec(ModelKind.RIDGE, (4,), l2)
        for active in (range(10), (0, 2, 3), (1, 3)):
            cohort = fed.cohort(active, each)
            federation_loss(cohort, theta)
            theta = affine_round(cohort, theta, n)
    assert calls == [(10, 16, 4)]
    # data with d > n has no moments, and so no quadratic form
    spec, datasets = make_ridge(clients=4, samples=3, features=4, seed=21)
    wide = FederationConfig.from_datasets(datasets, eta=0.05, local_steps=2)
    assert wide.cohort((0, 2), spec).quadratic is None
    assert wide.cohort(range(4), spec).quadratic is None
    assert calls == [(10, 16, 4), (4, 3, 4)]


def test_cohort_weights_are_checked_once_and_a_lone_client_raises_only_on_its_increments():
    with pytest.raises(ValueError, match="sum to"):
        Cohort((0, 1), np.array([0.5, 0.4]), None, None)
    spec, datasets = make_ridge(clients=3, seed=4)
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=2)
    lone = fed.cohort((1,), spec)
    client_models, after = kernel_round(lone, np.zeros(4), 0)
    assert after.tobytes() == client_models[0].tobytes()
    for _ in range(2):
        with pytest.raises(SingularRemovalError, match="client 1"):
            round_increments(lone, client_models, after)
    pair = fed.cohort((0, 2), spec)
    scale = pair.increment_scale
    assert scale.tobytes() == (pair.active_weights / (1.0 - pair.active_weights)).tobytes()
    assert pair.increment_scale is scale


def test_federation_loss_matches_manual_weighted_sum():
    spec, datasets = make_ridge(clients=3, seed=14)
    weights = np.array([0.5, 0.3, 0.2])
    theta = init_params(spec, 2)
    want = sum(w * loss(spec, d, theta) for w, d in zip(weights, datasets))
    fed = FederationConfig.from_datasets(datasets, eta=0.1, local_steps=1, weights=weights)
    got = federation_loss(fed.cohort(range(3), spec), theta)
    assert got == pytest.approx(want, rel=1e-15)
    partial = federation_loss(fed.cohort((1, 2), spec), theta)
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
