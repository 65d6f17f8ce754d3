"""Brute-force verification: retrain without each client and compare trajectories.

empirical_sensitivity takes the all-client run as training recorded it (the
model history and the sensitivity ledger), retrains the federation from the
same start once per client with that client removed (weights renormalised),
and pairs the true model gap with the recorded ledger bound at every round.
check_bound then asserts gap <= bound within a tolerance.  reference_gd is
an independently written plain gradient-descent loop used as a duplicate
oracle for the engine's local update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .engine import FederationConfig
from .errors import DivergedTrainingError
from .history import TrainingHistory
from .models import ClientDataset, ModelSpec, Params
from .sensitivity import SensitivityLedger
from .unlearn import StoppingRule, retrain_until


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

    `history` and `ledger` are what one fixed-round all-client retrain_until
    recorded from history.models[0].  For each client c the federation is
    retrained as many rounds without c from the same start; the trace pairs
    alpha(n) = ||theta_n - theta_n_without_c|| with the ledger's Psi(n, c).
    """
    rounds, psi = len(ledger), ledger.psi
    if history.end_position != rounds or ledger.client_count != config.client_count:
        raise ValueError("history, ledger and federation do not describe one run")
    theta0 = history.models[0]
    everyone = range(config.client_count)
    traces = []
    for client in everyone:
        without = TrainingHistory(theta0)
        retrain_until(
            spec,
            config,
            theta0,
            [c for c in everyone if c != client],
            StoppingRule(math.inf, rounds, rounds),
            history=without,
            track_loss=False,
        )
        alphas = np.array(
            [float(np.linalg.norm(a - b)) for a, b in zip(history.models, without.models)]
        )
        traces.append(SensitivityTrace(client, alphas, psi[:, client]))
    return traces


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
    tightness is max(alpha / psi) over rounds with psi > 0 (0 when alpha = 0
    everywhere).
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
    positive = psis > 0
    tightness = float((alphas[positive] / psis[positive]).max()) if positive.any() else 0.0
    return BoundReport(
        passed=violations.size == 0,
        worst_slack=worst,
        tightness=tightness,
        first_violation=int(violations[0]) if violations.size else None,
        checked_rounds=horizon,
    )


def reference_gd(
    spec: ModelSpec,
    data: ClientDataset,
    theta0: Params,
    eta: float,
    steps: int,
) -> Params:
    """Plain full-batch gradient descent, written independently of the engine."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    theta = np.array(theta0, dtype=np.float64)
    for _ in range(steps):
        theta = theta - eta * models.grad(spec, data, theta)
        if not np.all(np.isfinite(theta)):
            raise DivergedTrainingError("reference GD diverged")
    return theta
