"""Brute-force verification: train without each client and compare trajectories.

empirical_sensitivity takes the all-client run as train wrote it (the model
history and the sensitivity ledger, loaded from the run directory by verify),
follows the federation from the same start once per client with that client
removed (weights renormalised), and pairs the true model gap with the
recorded ledger bound at every round.  When a ridge federation's clients
have K-step operators (models.ridge_operators: d <= n for the federation's
one data shape) the leave-one-out runs have a closed form
(ridge_sensitivity) built on the operators the engine itself trains with,
so tests hold the engine's fused rounds against the per-step kernel; every
other model, and ridge with d > n, retrains through the engine
(retrained_sensitivity).
check_bound then asserts gap <= bound within a tolerance.  contraction_slack
checks the premise the bound rests on, that one local step contracts by B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .engine import _DIVERGENCE_NORM, FederationConfig, renormalized_weights
from .errors import DivergedTrainingError
from .history import TrainingHistory
from .models import ModelSpec
from .sensitivity import SensitivityLedger
from .unlearn import StoppingRule, retrain_until

_CONTRACTIVITY_SEED = 8_191
_CONTRACTIVITY_PAIRS = 200


@dataclass(frozen=True)
class SensitivityTrace:
    """Per-round true gap alpha(n) and ledger bound psi(n) for one client."""

    client: int
    alphas: np.ndarray
    psis: np.ndarray

    def __post_init__(self):
        if self.alphas.shape != self.psis.shape:
            raise ValueError("alpha and psi series must have equal length")


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    worst_slack: float
    tightness: float
    first_violation: int | None
    checked_rounds: int


def empirical_sensitivity(
    config: FederationConfig,
    spec: ModelSpec,
    history: TrainingHistory,
    ledger: SensitivityLedger,
) -> list[SensitivityTrace]:
    """True model sensitivity of every client along a recorded all-client run.

    `history` and `ledger` are what train's fixed-round all-client
    retrain_until recorded from history.models[0].  For each client c the
    federation runs as many rounds without c from the same start; the trace
    pairs alpha(n) = ||theta_n - theta_n_without_c|| with the ledger's
    Psi(n, c).  Ridge takes the closed form when the clients have operators
    (d <= n); everything else retrains through the engine.
    """
    if config.cohort(range(config.client_count), spec).affine is not None:
        return ridge_sensitivity(config, spec, history, ledger)
    return retrained_sensitivity(config, spec, history, ledger)


def retrained_sensitivity(
    config: FederationConfig,
    spec: ModelSpec,
    history: TrainingHistory,
    ledger: SensitivityLedger,
) -> list[SensitivityTrace]:
    """empirical_sensitivity by retraining the federation once per client."""
    rounds = _rounds_of_one_run(config, history, ledger)
    theta0 = history.models[0]
    everyone = range(config.client_count)
    alphas = np.empty((rounds + 1, config.client_count))
    for client in everyone:
        without = TrainingHistory(theta0)
        retrain_until(
            spec,
            config,
            theta0,
            [c for c in everyone if c != client],
            StoppingRule(math.inf, rounds, rounds),
            history=without,
        )
        alphas[:, client] = [
            float(np.linalg.norm(a - b)) for a, b in zip(history.models, without.models)
        ]
    return _traces(alphas, ledger)


def ridge_sensitivity(
    config: FederationConfig,
    spec: ModelSpec,
    history: TrainingHistory,
    ledger: SensitivityLedger,
) -> list[SensitivityTrace]:
    """empirical_sensitivity for ridge in closed form, from the federation's
    operators.

    K local steps of client i are the affine map theta -> A_i theta + b_i
    (models.ridge_operators).  Row c of Q holds the aggregation weights
    renormalised without client c, so the federation without c advances by
    theta -> M_c theta + m_c with M_c = sum_i Q_ci A_i and m_c = sum_i Q_ci b_i,
    all C runs in one stacked product per round.  Every state must stay
    finite and within the engine's divergence norm.
    """
    rounds = _rounds_of_one_run(config, history, ledger)
    count, d = config.client_count, spec.param_count
    operators = config.cohort(range(count), spec).operators
    if operators is None:
        raise ValueError("the closed form needs the clients' operators (ridge, d <= n)")
    # column-major: from a row-major q, BLAS rounds some leave-one-out maps
    # differently in the last bits, and verify's reported tightness moves
    q = np.asfortranarray([renormalized_weights(config.weights, {c}) for c in range(count)])
    maps, offsets = np.zeros((count, d * d)), np.zeros((count, d))
    maps += q @ operators[0].reshape(count, d * d)
    offsets += q @ operators[1]
    maps = maps.reshape(count, d, d)

    alphas = np.zeros((rounds + 1, count))
    thetas = np.broadcast_to(history.models[0], (count, d))
    for n in range(rounds):
        thetas = (maps @ thetas[:, :, None])[:, :, 0] + offsets
        sizes = np.linalg.norm(thetas, axis=1)
        if not (np.isfinite(sizes).all() and (sizes <= _DIVERGENCE_NORM).all()):
            raise DivergedTrainingError(
                "leave-one-out training diverged: parameter vector is non-finite "
                "or exceeds norm 1e8",
                round_index=n,
            )
        alphas[n + 1] = np.linalg.norm(thetas - history.models[n + 1], axis=1)
    return _traces(alphas, ledger)


def _rounds_of_one_run(config: FederationConfig, history: TrainingHistory, ledger: SensitivityLedger) -> int:
    rounds = len(ledger)
    if history.end_position != rounds or ledger.client_count != config.client_count:
        raise ValueError("history, ledger and federation do not describe one run")
    return rounds


def _traces(alphas: np.ndarray, ledger: SensitivityLedger) -> list[SensitivityTrace]:
    return [
        SensitivityTrace(client, alphas[:, client], ledger.psi[:, client])
        for client in range(ledger.client_count)
    ]


def check_bound(
    trace: SensitivityTrace,
    tol: float = 1e-8,
    psi_cap: float | None = None,
) -> BoundReport:
    """Does alpha(n) <= psi(n) + tol hold at every round?

    psi_cap, when given, stops the comparison at the first round whose bound
    exceeds the cap; in the smooth regime the bound grows geometrically and
    stops being informative long before the floats overflow.
    worst_slack is max(alpha - psi) over checked rounds (negative = margin);
    tightness is alpha / psi at the last checked round with psi > 0 (0 when
    there is none).  A maximum over rounds would read 1 on every run, since
    alpha(1) equals the round-0 increment that psi(1) records.
    """
    alphas, psis = trace.alphas, trace.psis
    horizon = alphas.shape[0]
    if psi_cap is not None:
        over = np.flatnonzero(psis > psi_cap)
        if over.size:
            horizon = int(over[0])
    alphas, psis = alphas[:horizon], psis[:horizon]
    slack = alphas - psis
    worst = float(slack.max()) if slack.size else float("-inf")
    violations = np.flatnonzero(slack > tol)
    positive = np.flatnonzero(psis > 0)
    tightness = float(alphas[positive[-1]] / psis[positive[-1]]) if positive.size else 0.0
    return BoundReport(
        passed=violations.size == 0,
        worst_slack=worst,
        tightness=tightness,
        first_violation=int(violations[0]) if violations.size else None,
        checked_rounds=horizon,
    )


def contraction_slack(config: FederationConfig, spec: ModelSpec, contraction: float) -> float:
    """How far one local step of any client exceeds contraction by B, at
    worst (negative: a margin).

    A ridge federation with operators is checked exactly: A_i = P_i^K with
    P_i symmetric, so ||P_i||_2 = ||A_i||_2^(1/K), one eigvalsh of the
    stack, and the slack is max_i ||P_i||_2 - B.  Every other federation is
    sampled: the largest ||step(theta) - step(phi)|| - B ||theta - phi||
    over 200 seeded pairs.
    """
    cohort = config.cohort(range(config.client_count), spec)
    if cohort.operators is not None:
        spectral = np.abs(np.linalg.eigvalsh(cohort.operators[0])).max(axis=1)
        return float(spectral.max()) ** (1.0 / config.local_steps) - contraction
    worst = -math.inf
    pairs = models.gradient_pairs(spec, cohort.features, cohort.targets, _CONTRACTIVITY_SEED, _CONTRACTIVITY_PAIRS)
    for theta, offset, near, far in pairs:
        phi = theta + offset
        rhs = contraction * float(np.linalg.norm(theta - phi))
        gap = (theta - config.eta * near) - (phi - config.eta * far)
        worst = max(worst, float((models.norms(gap) - rhs).max()))
    return worst
