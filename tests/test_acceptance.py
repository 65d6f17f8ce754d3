"""Acceptance gate: one test per advertised guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
numeric tolerance quoted in a message is the tolerance actually asserted.
Scenario constants are frozen so the whole file is bit-reproducible.
"""
import json
import math
import time

import numpy as np
from conftest import (
    SQ,
    client_increments_direct,
    exactly,
    fed_for,
    local_update,
    make_logistic,
    make_ridge,
    oracle_gaps,
    ridge_opt,
    round_increments,
    segment_owner,
    step_size_bound,
    train_world,
)

from fedunlearn.config import parse_config
from fedunlearn.engine import FederationConfig, federation_loss, init_params, kernel_round
from fedunlearn.history import TrainingHistory
from fedunlearn.models import ModelKind, ModelSpec, regime_constants
from fedunlearn.oracle import check_bound
from fedunlearn.runner import cmd_report, cmd_train, cmd_unlearn, cmd_verify, run_dir_for
from fedunlearn.sensitivity import (
    NoiseBudget,
    contraction_factor,
    noise_std,
    psi_star,
)
from fedunlearn.unlearn import (
    StoppingRule,
    UnlearningRequest,
    UnlearningState,
    retrain_until,
    sifu,
)


def verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_criterion_1_logistic_sensitivity_bound():
    start = time.perf_counter()
    spec, data = make_logistic(clients=5, samples=20, features=5, het=0.5, seed=5)
    constants = regime_constants(spec, *data)
    theta0 = init_params(spec, 2)
    worst = -math.inf
    for local_steps in (1, 3):
        fed = FederationConfig(*data, eta=1.0 / constants.beta, local_steps=local_steps)
        alphas, psi = oracle_gaps(spec, fed, 40, theta0)
        for client in range(alphas.shape[1]):
            report = check_bound(alphas[:, client], psi[:, client], tol=1e-8)
            assert report.checked_rounds == 41
            assert report.first_violation is None
            worst = max(worst, report.worst_slack)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    verdict(
        "1 logistic bound certification",
        worst <= 1e-8,
        f"M=5 K in (1,3) 40 rounds, worst_slack={worst:.3e} <= 1e-8 in {elapsed:.2f}s",
    )


def test_criterion_2_ridge_sensitivity_bound_and_tail_decay():
    start = time.perf_counter()
    worst = -math.inf
    for clients in (3, 10):
        spec, data = make_ridge(clients=clients, samples=20, features=6, het=0.5, seed=6, l2=0.1)
        for local_steps in (1, 5):
            fed, _ = fed_for(spec, *data, local_steps=local_steps)
            theta0 = init_params(spec, 3)
            alphas, psi = oracle_gaps(spec, fed, 60, theta0)
            for client in range(alphas.shape[1]):
                report = check_bound(alphas[:, client], psi[:, client], tol=1e-8)
                assert report.checked_rounds == 61
                assert report.first_violation is None
                worst = max(worst, report.worst_slack)

    # once a client is gone, the gap to any other start contracts by B each round
    spec, data = make_ridge(clients=3, samples=20, features=6, het=0.5, seed=6, l2=0.1)
    fed, constants = fed_for(spec, *data)
    factor = contraction_factor(constants, fed.eta)
    theta0 = init_params(spec, 3)
    branch = retrain_until(spec, fed, theta0, range(3), exactly(30)).final_model
    other = theta0.copy()
    gaps = [float(np.linalg.norm(branch - other))]
    survivors = fed.cohort((1, 2), spec)
    for step in range(15):
        branch = kernel_round(survivors, branch, step)[1]
        other = kernel_round(survivors, other, step)[1]
        gaps.append(float(np.linalg.norm(branch - other)))
    decays = all(gaps[i + 1] <= factor * gaps[i] * (1.0 + 1e-10) for i in range(15))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    verdict(
        "2 ridge bound certification + tail decay",
        worst <= 1e-8 and decays,
        f"M in (3,10) K in (1,5) 60 rounds, worst_slack={worst:.3e} <= 1e-8, "
        f"15 post-removal gaps contract at B={factor:.6f}, {elapsed:.2f}s",
    )


def test_criterion_3_one_step_contractivity():
    pairs = 1000
    worst = -math.inf

    def sweep(spec, data, eta, factor, scale, offset, seed):
        nonlocal worst
        rng = np.random.default_rng(seed)
        d = spec.param_count
        features, targets = data
        for k in range(pairs):
            theta = scale * rng.standard_normal(d)
            other = theta + offset * rng.standard_normal(d)
            c = k % len(features)
            u = local_update(spec, features[c], targets[c], theta, eta, 1)
            v = local_update(spec, features[c], targets[c], other, eta, 1)
            slack = float(np.linalg.norm(u - v)) - factor * float(np.linalg.norm(theta - other))
            worst = max(worst, slack)

    spec, data = make_ridge(clients=3, samples=20, features=6, het=0.5, seed=6, l2=0.1)
    constants = regime_constants(spec, *data)
    eta = step_size_bound(constants)
    sweep(spec, data, eta, contraction_factor(constants, eta), 1.0, 1.0, 30)

    spec, data = make_logistic(clients=5, samples=20, features=5, het=0.5, seed=5)
    constants = regime_constants(spec, *data)
    eta = 1.0 / constants.beta
    sweep(spec, data, eta, contraction_factor(constants, eta), 1.0, 1.0, 31)

    spec, data = make_ridge(clients=3, samples=20, features=3, het=0.5, seed=4)
    spec = ModelSpec(ModelKind.TINY_MLP, (3, 4, 1), 0.05)
    constants = regime_constants(spec, *data)
    eta = 0.1 / constants.beta
    sweep(spec, data, eta, contraction_factor(constants, eta), 0.5, 0.2, 32)

    verdict(
        "3 per-step contractivity",
        worst <= 1e-9,
        f"1000 random pairs per regime, worst ||u-u'|| - B||t-t'|| = {worst:.3e} <= 1e-9",
    )


def test_criterion_4_increment_proxy_equivalence():
    worst = -math.inf

    def sweep(spec, data, *, local_steps, rounds, weights=None):
        nonlocal worst
        fed, _ = fed_for(spec, *data, local_steps=local_steps, weights=weights)
        theta0 = init_params(spec, 3)
        history = TrainingHistory(theta0)
        retrain_until(spec, fed, theta0, range(fed.client_count), exactly(rounds), history=history)
        everyone = fed.cohort(range(fed.client_count), spec)
        records = [kernel_round(everyone, history.models[n], n) for n in range(rounds)]
        for client_models, after in records:
            directs = client_increments_direct(everyone, client_models, after)
            fasts = round_increments(everyone, client_models, after)
            for direct, fast in zip(directs.tolist(), fasts.tolist()):
                worst = max(worst, abs(fast - direct) / max(abs(direct), 1e-12))
        return everyone, records

    spec, data = make_ridge(clients=3, samples=20, features=6, het=0.5, seed=6, l2=0.1)
    sweep(spec, data, local_steps=1, rounds=40)
    sweep(spec, data, local_steps=1, rounds=40, weights=(0.5, 0.3, 0.2))
    spec, data = make_logistic(clients=5, samples=20, features=5, het=0.5, seed=5)
    sweep(spec, data, local_steps=3, rounds=40)

    # uniform weights collapse the proxy to gap/(M-1)
    spec, data = make_ridge(clients=10, samples=20, features=6, het=0.5, seed=6, l2=0.1)
    everyone, records = sweep(spec, data, local_steps=1, rounds=20, weights=(0.1,) * 10)
    worst_uniform = -math.inf
    for client_models, after in records:
        fasts = round_increments(everyone, client_models, after)
        for client in range(10):
            gap = float(np.linalg.norm(client_models[client] - after))
            expected = gap / 9.0
            fast = fasts[client]
            worst_uniform = max(worst_uniform, abs(fast - expected) / max(expected, 1e-30))

    verdict(
        "4 increment proxy equivalence",
        worst <= 1e-10 and worst_uniform <= 1e-15,
        f"fast vs direct rel={worst:.3e} <= 1e-10; uniform gap/(M-1) rel={worst_uniform:.3e} <= 1e-15",
    )


def test_criterion_5_noise_calibration():
    reference = math.sqrt(2.0 * math.log(25.0))
    base = noise_std(1.0, 1.0, 0.05)
    rel = abs(base - reference) / reference

    worst_round_trip = 0.0
    rng = np.random.default_rng(50)
    for _ in range(200):
        psi = float(10.0 ** rng.uniform(-6, 3))
        eps = float(10.0 ** rng.uniform(-2, 2))
        delta = float(10.0 ** rng.uniform(-8, -0.5))
        sigma = noise_std(psi, eps, delta)
        back = psi_star(eps, delta, sigma)
        worst_round_trip = max(worst_round_trip, abs(back - psi) / psi)
        assert abs(sigma - psi / eps * noise_std(1.0, 1.0, delta)) <= 1e-12 * sigma
    budget = NoiseBudget(2.0, 0.01, 0.7)
    assert budget.psi_star == psi_star(2.0, 0.01, 0.7)

    verdict(
        "5 noise calibration",
        rel <= 1e-12 and worst_round_trip <= 1e-15,
        f"noise_std(1,1,0.05) vs sqrt(2 ln 25) rel={rel:.3e} <= 1e-12; "
        f"psi round trip rel={worst_round_trip:.3e} <= 1e-15 over 200 draws",
    )


def test_criterion_6_interior_rollback_sequence():
    spec, data = make_ridge(clients=6, samples=24, features=6, het=0.6, seed=13, l2=0.1)
    weights = (0.06, 0.06, 0.40, 0.16, 0.16, 0.16)
    constants = regime_constants(spec, *data)
    eta = 0.5 / constants.beta
    assert eta <= step_size_bound(constants)
    fed = FederationConfig(*data, eta=eta, local_steps=1, weights=weights)
    theta0, _, history, ledger = train_world(spec, fed, 30, seed=17)
    trained = history.models.copy()
    plateau_light = ledger.set_sensitivity((0, 1), 30)
    budget = NoiseBudget(1.0, 0.05, SQ * plateau_light * 2.2)
    state = UnlearningState.from_training(history, ledger, budget, 6, 17)
    stopping = StoppingRule(math.inf, 6, 50)

    one = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, stopping)
    assert one.noise_sigma == noise_std(
        state.ledger.set_sensitivity({0}, one.rollback_position), 1.0, 0.05
    )
    two = sifu(state, UnlearningRequest(2, frozenset({2})), spec, fed, stopping)
    assert two.noise_sigma == noise_std(
        state.ledger.set_sensitivity({2}, two.rollback_position), 1.0, 0.05
    )
    three = sifu(state, UnlearningRequest(3, frozenset({1})), spec, fed, stopping)
    assert three.noise_sigma == noise_std(
        state.ledger.set_sensitivity({1}, three.rollback_position), 1.0, 0.05
    )

    # light first request keeps the whole run; the heavy client forces a deep cut
    positions = [one.rollback_position, two.rollback_position, three.rollback_position]
    # the part of the timeline each request rolled back into
    sources = [segment_owner(positions[:u], positions[u]) for u in range(3)]
    assert (one.rollback_position, sources[0]) == (30, 0)
    assert sources[1] == 0
    assert 1 <= two.rollback_position < one.rollback_position
    assert two.noise_sigma > 0.0
    assert (two.rollback_position, three.rollback_position) == (2, 8)
    assert sources[2] == 2  # request 3 rolls back into request 2's retraining
    assert all(o.retrain_rounds == 6 and o.converged for o in (one, two, three))

    # every earlier request stays within budget at the earliest later rollback
    targets = [{0}, {2}, {1}]
    audited = []
    for u in range(3):
        audit_position = min(positions[u:])
        audited.append(state.ledger.set_sensitivity(targets[u], audit_position))
    assert all(psi <= budget.psi_star + 1e-9 for psi in audited)

    assert state.history.end_position == 14
    owners = [segment_owner(positions, p) for p in range(15)]
    assert owners == [0, 0] + [2] * 6 + [3] * 7
    # the positions training still owns hold its models
    assert all(state.history.model_at(p) is trained[p] for p in range(2))
    assert state.remaining == {3, 4, 5} and state.processed == {0, 1, 2}
    verdict(
        "6 sequential interior rollback",
        True,
        f"rollbacks {tuple(positions)} with sigmas "
        f"({one.noise_sigma:.4f}, {two.noise_sigma:.4f}, {three.noise_sigma:.4f}), "
        f"audited psi max {max(audited):.4f} <= psi*={budget.psi_star:.4f}",
    )


def test_criterion_7_degenerate_budgets():
    spec, data = make_ridge(clients=4)
    fed, _ = fed_for(spec, *data)

    zero = NoiseBudget(1.0, 0.05, 0.0)
    theta0, _, history, ledger = train_world(spec, fed, 12)
    state = UnlearningState.from_training(history, ledger, zero, 4, 1)
    outcome = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(8))
    scratch = retrain_until(spec, fed, theta0, {1, 2, 3}, exactly(8)).final_model
    assert outcome.rollback_position == 0
    assert outcome.noise_sigma == 0.0
    assert outcome.final_model.tobytes() == scratch.tobytes()

    huge = NoiseBudget(1.0, 0.05, SQ * 1e9)
    theta0, _, history, ledger = train_world(spec, fed, 12)
    psi_final = ledger.set_sensitivity({0}, 12)
    state = UnlearningState.from_training(history, ledger, huge, 4, 1)
    outcome = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, exactly(5))
    assert outcome.rollback_position == 12
    assert outcome.noise_sigma == noise_std(psi_final, 1.0, 0.05) > 0.0
    verdict(
        "7 degenerate budgets",
        True,
        "psi*=0 reproduces scratch bit for bit; psi*=1e9 rolls back to the final round",
    )


def test_criterion_8_unlearning_beats_scratch():
    start = time.perf_counter()
    sifu_rounds = []
    scratch_rounds = []
    for seed in range(101, 106):
        spec, data = make_ridge(clients=5, samples=30, features=8, het=0.3, seed=seed, l2=0.05)
        fed, _ = fed_for(spec, *data)
        theta0, _, history, ledger = train_world(spec, fed, 40, seed=seed + 1000)
        plateau = ledger.set_sensitivity((0, 3), 40)
        budget = NoiseBudget(10.0, 0.05, noise_std(1.3 * plateau, 10.0, 0.05))
        threshold = 1.002 * max(
            ridge_opt(*data, fed.weights, [1, 2, 3, 4], 0.05)[1],
            ridge_opt(*data, fed.weights, [1, 2, 4], 0.05)[1],
        )
        stopping = StoppingRule(threshold, 0, 400)

        state = UnlearningState.from_training(history, ledger, budget, 5, seed + 1000)
        one = sifu(state, UnlearningRequest(1, frozenset({0})), spec, fed, stopping)
        two = sifu(state, UnlearningRequest(2, frozenset({3})), spec, fed, stopping)
        assert one.converged and two.converged
        assert one.rollback_position > 20 and two.rollback_position > 20
        sifu_rounds.append(one.retrain_rounds + two.retrain_rounds)

        first = retrain_until(spec, fed, theta0, (1, 2, 3, 4), stopping)
        second = retrain_until(spec, fed, theta0, (1, 2, 4), stopping)
        assert federation_loss(fed.cohort((1, 2, 3, 4), spec), first.final_model) <= threshold
        assert federation_loss(fed.cohort((1, 2, 4), spec), second.final_model) <= threshold
        scratch_rounds.append(first.rounds + second.rounds)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    mean_sifu = sum(sifu_rounds) / len(sifu_rounds)
    mean_scratch = sum(scratch_rounds) / len(scratch_rounds)
    verdict(
        "8 rollback efficiency",
        mean_sifu < mean_scratch,
        f"retrain rounds to matched loss over 5 seeds: sifu {sifu_rounds} "
        f"(mean {mean_sifu:.1f}) vs scratch {scratch_rounds} (mean {mean_scratch:.1f}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_9_pipeline_reproducibility(tmp_path):
    doc = {
        "name": "ridge_benchmark",
        "model": {"kind": "ridge", "dims": [8], "l2": 0.05},
        "data": {
            "clients": 5,
            "samples_per_client": 30,
            "features": 8,
            "heterogeneity": 0.3,
            "seed": 7,
            "noise": 0.1,
        },
        "federation": {
            "eta": "2/(beta+mu)",
            "local_steps": 1,
            "rounds": 40,
            "seed": 11,
            "init": "normal",
        },
        "budget": {"epsilon": 10.0, "delta": 0.05, "sigma": 0.1864},
        "checkpoint_interval": 1,
        "requests": [[0], [3]],
        "stopping": {"loss_threshold": 0.3137, "min_rounds": 0, "max_rounds": 400},
    }
    config = parse_config(json.dumps(doc))

    def run_all(root):
        cmd_train(config, root)
        cmd_unlearn(config, "sifu", root)
        cmd_unlearn(config, "scratch", root)
        _, ok = cmd_verify(config, root)
        assert ok
        cmd_report(run_dir_for(config, root))
        run = run_dir_for(config, root)
        return {
            str(p.relative_to(run)): p.read_bytes()
            for p in sorted(run.rglob("*"))
            if p.is_file() and p.name != "timings.json"
        }

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    assert sorted(first) == sorted(second)
    different = [name for name in first if first[name] != second[name]]
    verdict(
        "9 pipeline reproducibility",
        not different,
        f"two runs, {len(first)} artifacts byte-identical (timings.json excluded), "
        f"verify passed twice",
    )
