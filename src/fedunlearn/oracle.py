"""Brute-force verification: retrain without a client and compare trajectories.

empirical_sensitivity trains the federation twice from the same start, once
with every client and once with the target client removed (weights
renormalised), and records the true model gap alongside the ledger bound at
every round.  check_bound then asserts gap <= bound within a tolerance.
reference_gd is an independently written plain gradient-descent loop used as
a duplicate oracle for the engine's local update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .engine import FederationConfig, run_fedavg
from .errors import DivergedTrainingError
from .models import ClientDataset, ModelSpec, Params, regime_constants
from .sensitivity import SensitivityLedger, client_increment_fast, contraction_factor


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
    theta0: Params,
    client: int,
) -> SensitivityTrace:
    """True model sensitivity of one client over config.rounds rounds.

    Runs FedAvg with all clients and with `client` removed, both from theta0,
    and returns alpha(n) = ||theta_n - theta_n_without|| next to the ledger
    bound psi(n) built from the full run's increments.
    """
    if not 0 <= client < config.client_count:
        raise IndexError(f"client {client} out of range")
    constants = regime_constants(spec, list(config.clients))
    contraction = contraction_factor(constants, config.eta)

    everyone = tuple(range(config.client_count))
    with_all = run_fedavg(config, spec, theta0, everyone)
    without = run_fedavg(config, spec, theta0, tuple(i for i in everyone if i != client))

    ledger = SensitivityLedger(contraction, config.local_steps, config.client_count)
    for record in with_all:
        ledger.record_round([client_increment_fast(record, config.weights, c) for c in everyone], 0)

    alphas = np.empty(config.rounds + 1)
    alphas[0] = 0.0
    for n in range(config.rounds):
        alphas[n + 1] = float(
            np.linalg.norm(with_all[n].global_after - without[n].global_after)
        )
    return SensitivityTrace(client, alphas, ledger.psi[:, client])


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
