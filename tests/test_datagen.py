import numpy as np
import pytest

from fedunlearn.datagen import DataRecipe, generate_data


def recipe(**overrides):
    base = dict(
        clients=4,
        samples_per_client=12,
        features=3,
        heterogeneity=0.5,
        seed=17,
        noise=0.1,
    )
    base.update(overrides)
    return DataRecipe(**base)


def test_generation_is_deterministic():
    a = generate_data(recipe())
    b = generate_data(recipe())
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da, db)


def test_seed_changes_the_draw():
    a, _ = generate_data(recipe())
    b, _ = generate_data(recipe(seed=18))
    assert not np.array_equal(a[0], b[0])


def test_shapes_and_counts():
    features, targets = generate_data(recipe(clients=5, samples_per_client=7, features=2))
    assert features.shape == (5, 7, 2)
    assert targets.shape == (5, 7)
    assert features.dtype == targets.dtype == np.float64
    assert features.flags.c_contiguous and targets.flags.c_contiguous


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_the_stack_holds_the_per_client_draws_in_order(task):
    """The stack against a client-by-client loop that draws each client's
    features and then its targets, as separate arrays."""
    r = recipe(clients=5, samples_per_client=9, features=3, task=task)
    rng = np.random.default_rng(r.seed)
    truth = rng.standard_normal(r.features)
    shifts = rng.standard_normal((r.clients, r.features))
    features, targets = generate_data(r)
    for i in range(r.clients):
        X = rng.standard_normal((r.samples_per_client, r.features))
        raw = X @ (truth + r.heterogeneity * shifts[i])
        if task == "regression":
            y = raw + r.noise * rng.standard_normal(r.samples_per_client)
        else:
            y = (rng.random(r.samples_per_client) < 0.5 * (1.0 + np.tanh(0.5 * raw))).astype(np.float64)
        assert features[i].tobytes() == X.tobytes()
        assert targets[i].tobytes() == y.tobytes()


def test_classification_targets_are_binary():
    _, targets = generate_data(recipe(task="classification", clients=3))
    assert set(np.unique(targets)) <= {0.0, 1.0}
    assert 0.0 < targets.mean() < 1.0


def test_noiseless_regression_targets_are_exact_linear_responses():
    for X, y in zip(*generate_data(recipe(noise=0.0, samples_per_client=20))):
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(X @ w, y, rtol=0, atol=1e-10)


def test_noise_perturbs_the_responses():
    clean = generate_data(recipe(noise=0.0))
    noisy = generate_data(recipe(noise=0.3))
    np.testing.assert_array_equal(clean[0][0], noisy[0][0])
    assert not np.array_equal(clean[1][0], noisy[1][0])


def test_heterogeneity_scales_client_truths_linearly():
    def client_truths(het):
        stack = generate_data(recipe(heterogeneity=het, noise=0.0, samples_per_client=30))
        solved = [np.linalg.lstsq(X, y, rcond=None)[0] for X, y in zip(*stack)]
        return np.stack(solved)

    base = client_truths(0.0)
    spread0 = np.linalg.norm(base - base.mean(axis=0), axis=1).max()
    assert spread0 < 1e-10
    half = client_truths(0.5)
    full = client_truths(1.0)
    spread_half = np.linalg.norm(half - half.mean(axis=0), axis=1).max()
    spread_full = np.linalg.norm(full - full.mean(axis=0), axis=1).max()
    assert spread_full > spread_half > 0
    assert spread_half == pytest.approx(0.5 * spread_full, rel=1e-9)


def test_heterogeneity_knob_does_not_change_the_features():
    a, _ = generate_data(recipe(heterogeneity=0.0))
    b, _ = generate_data(recipe(heterogeneity=2.0))
    np.testing.assert_array_equal(a, b)


def test_recipe_validation():
    with pytest.raises(ValueError):
        recipe(clients=1)
    with pytest.raises(ValueError):
        recipe(samples_per_client=0)
    with pytest.raises(ValueError):
        recipe(features=0)
    with pytest.raises(ValueError):
        recipe(heterogeneity=-0.5)
    with pytest.raises(ValueError):
        recipe(noise=-0.1)
    with pytest.raises(ValueError):
        recipe(task="ranking")
