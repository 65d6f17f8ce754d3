"""Bounded model sensitivity: per-round increments, decay ledger, noise calibration.

The quantity tracked here bounds how far the trained global model can sit
from the model that would have been trained without a given client.  Writing
B for the one-step contraction factor of the local gradient map, K for the
local steps per round, and Delta_c(s) for the aggregation gap client c
induces at round s, the bound after n rounds is

    Psi(n, c) = sum_{s=0}^{n-1} B^((n-s-1) * K) * Delta_c(s)

which satisfies the online recurrence Psi(n+1, c) = B^K * Psi(n, c) + Delta_c(n).
A Gaussian perturbation with standard deviation

    noise_std(psi, eps, delta) = sqrt(2 * (ln 1.25 - ln delta)) / eps * psi

then makes the released model (eps, delta)-indistinguishable from the
retrain-from-scratch counterfactual.  The inverse map psi_star(eps, delta,
sigma) converts a fixed noise budget into the largest certifiable Psi.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RoundRecord, aggregate, renormalized_weights
from .errors import SingularRemovalError, StepSizeError
from .models import Regime, RegimeConstants

_PSI_STAR_TOL = 1e-12


def contraction_factor(constants: RegimeConstants, eta: float) -> float:
    """Per-gradient-step contraction factor B for the given curvature regime.

    smooth:          1 + eta * beta          (no step bound; B > 1)
    convex:          1                        requires eta <= 2 / beta
    strongly convex: 1 - eta*beta*mu/(beta+mu) requires eta <= 2 / (beta + mu)
    """
    if eta <= 0:
        raise StepSizeError("eta must be positive")
    if constants.regime is Regime.CONVEX:
        if constants.beta > 0 and eta > 2.0 / constants.beta:
            raise StepSizeError(
                f"convex regime requires eta <= 2/beta = {2.0 / constants.beta!r}, got {eta!r}"
            )
        return 1.0
    if constants.regime is Regime.STRONGLY_CONVEX:
        bound = 2.0 / (constants.beta + constants.mu)
        if eta > bound:
            raise StepSizeError(
                f"strongly convex regime requires eta <= 2/(beta+mu) = {bound!r}, got {eta!r}"
            )
        return 1.0 - eta * constants.beta * constants.mu / (constants.beta + constants.mu)
    return 1.0 + eta * constants.beta


# ---------------------------------------------------------------------------
# per-round increments
# ---------------------------------------------------------------------------


def client_increment_direct(record: RoundRecord, weights, client: int) -> float:
    """||aggregate(all) - aggregate(without client)|| for one round.

    `weights` is the weight vector used by the round's aggregation (zeros for
    inactive clients).  A client absent from the round contributes 0.
    """
    if client not in record.client_models:
        return 0.0
    weights = np.asarray(weights, dtype=np.float64)
    if weights[client] >= 1.0:
        raise SingularRemovalError(f"client {client} carries the full aggregation weight")
    q = renormalized_weights(weights, {client})
    active = sorted(record.client_models)
    remaining = [i for i in active if i != client]
    without = aggregate([record.client_models[i] for i in remaining], q[remaining])
    return float(np.linalg.norm(record.global_after - without))


def client_increment_fast(record: RoundRecord, weights, client: int) -> float:
    """Closed-form increment: (p_c / (1 - p_c)) * ||theta_c - theta_agg||."""
    if client not in record.client_models:
        return 0.0
    weights = np.asarray(weights, dtype=np.float64)
    p = float(weights[client])
    if p >= 1.0:
        raise SingularRemovalError(f"client {client} carries the full aggregation weight")
    if p == 0.0:
        return 0.0
    gap = float(np.linalg.norm(record.client_models[client] - record.global_after))
    return p / (1.0 - p) * gap


# ---------------------------------------------------------------------------
# noise calibration
# ---------------------------------------------------------------------------


def noise_std(psi: float, epsilon: float, delta: float) -> float:
    """Gaussian std certifying (epsilon, delta)-unlearning at sensitivity psi."""
    _check_privacy(epsilon, delta)
    if psi < 0:
        raise ValueError("psi must be non-negative")
    return math.sqrt(2.0 * (math.log(1.25) - math.log(delta))) / epsilon * psi


def psi_star(epsilon: float, delta: float, sigma: float) -> float:
    """Largest sensitivity certifiable by a fixed noise budget sigma."""
    _check_privacy(epsilon, delta)
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return epsilon * sigma / math.sqrt(2.0 * (math.log(1.25) - math.log(delta)))


def _check_privacy(epsilon: float, delta: float) -> None:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseBudget:
    """Unlearning budget (epsilon, delta, sigma) with the derived threshold.

    sigma = 0 is allowed as the degenerate budget: psi_star collapses to 0
    and every rollback lands on the initial model with no perturbation.
    """

    epsilon: float
    delta: float
    sigma: float
    psi_star: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "psi_star", psi_star(self.epsilon, self.delta, self.sigma))
        # round-trip identity: noise_std(psi_star) must reproduce sigma
        back = noise_std(self.psi_star, self.epsilon, self.delta)
        if abs(back - self.sigma) > _PSI_STAR_TOL * max(1.0, self.sigma):
            raise ValueError("psi_star/noise_std round-trip drifted beyond 1e-12")


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementRecord:
    """Per-round aggregation gaps: position in the concatenated timeline,
    unlearning-epoch segment, and one non-negative delta per active client."""

    position: int
    segment: int
    per_client_delta: dict[int, float]

    def delta(self, client: int) -> float:
        return self.per_client_delta.get(client, 0.0)


CSV_HEADER = ("round", "segment", "client", "delta", "psi")


class SensitivityLedger:
    """Online sensitivity accounting for every client across all segments.

    Maintains the running Psi per client via the decay recurrence.
    """

    def __init__(self, contraction: float, local_steps: int, clients=()):
        if contraction <= 0:
            raise ValueError("contraction factor must be positive")
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        self.contraction = float(contraction)
        self.local_steps = int(local_steps)
        self.increments: list[IncrementRecord] = []
        self._psi: dict[int, float] = {int(c): 0.0 for c in clients}

    def __len__(self) -> int:
        return len(self.increments)

    @property
    def round_decay(self) -> float:
        return self.contraction**self.local_steps

    def tracked_clients(self) -> list[int]:
        return sorted(self._psi)

    def record_round(self, per_client_delta: dict[int, float], segment: int) -> IncrementRecord:
        """Append one round of increments and advance the online recurrence."""
        for client, delta in per_client_delta.items():
            if delta < 0:
                raise ValueError(f"negative increment for client {client}")
            if client not in self._psi:
                self._psi[int(client)] = 0.0
        record = IncrementRecord(
            len(self.increments), segment, {int(c): float(d) for c, d in per_client_delta.items()}
        )
        self.increments.append(record)
        decay = self.round_decay
        for client in self._psi:
            self._psi[client] = decay * self._psi[client] + record.delta(client)
        return record

    def psi_online(self, client: int) -> float:
        """Current Psi at the end of the recorded timeline."""
        return self._psi.get(int(client), 0.0)

    def bounded_sensitivity(self, n: int, client: int) -> float:
        """Psi(n, c) from the explicit decayed sum over the first n increments."""
        self._check_prefix(n)
        steps = self.local_steps
        total = 0.0
        for s in range(n):
            total += self.contraction ** ((n - s - 1) * steps) * self.increments[s].delta(client)
        return total

    def psi_series(self, client: int) -> np.ndarray:
        """Psi(n, c) for n = 0..len via the online recurrence (one pass)."""
        decay = self.round_decay
        series = np.empty(len(self.increments) + 1)
        series[0] = 0.0
        for s, record in enumerate(self.increments):
            series[s + 1] = decay * series[s] + record.delta(client)
        return series

    def set_sensitivity(self, clients, n: int) -> float:
        """Psi(n, S) = max over the client set of the individual bounds."""
        clients = sorted(set(clients))
        if not clients:
            raise ValueError("client set must be non-empty")
        return max(self.bounded_sensitivity(n, c) for c in clients)

    def rollback_index(self, clients, threshold: float) -> int:
        """Largest position n with Psi(n, S) <= threshold.

        Position 0 always qualifies (Psi(0, c) = 0), so the scan cannot fail
        for non-negative thresholds.  Uses the recurrence series for the scan,
        consistent with the online bookkeeping.
        """
        clients = sorted(set(clients))
        if not clients:
            raise ValueError("client set must be non-empty")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        worst = np.maximum.reduce([self.psi_series(c) for c in clients])
        for n in range(len(worst) - 1, -1, -1):
            if worst[n] <= threshold:
                return n
        raise AssertionError("unreachable: position 0 always satisfies the threshold")

    def truncate(self, position: int) -> None:
        """Drop increments at positions >= position and rebuild online state.

        Truncating at the current length drops nothing and returns at once.
        """
        self._check_prefix(position)
        if position == len(self.increments):
            return
        self.increments = self.increments[:position]
        for client in self._psi:
            self._psi[client] = float(self.psi_series(client)[-1])

    def _check_prefix(self, n: int) -> None:
        if not 0 <= n <= len(self.increments):
            raise IndexError(f"prefix length {n} outside [0, {len(self.increments)}]")

    # -- CSV round-trip ------------------------------------------------------

    def export_csv(self, path) -> None:
        """One row per (round, tracked client): round, segment, client, delta, psi.

        psi is the running bound after that round, i.e. Psi(round + 1, client).
        Floats carry 17 significant digits so the file round-trips exactly.
        """
        clients = self.tracked_clients()
        series = {c: self.psi_series(c) for c in clients}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for record in self.increments:
                for client in clients:
                    writer.writerow(
                        [
                            record.position,
                            record.segment,
                            client,
                            format(record.delta(client), ".17g"),
                            format(float(series[client][record.position + 1]), ".17g"),
                        ]
                    )

    @classmethod
    def from_csv(
        cls, path, contraction: float, local_steps: int
    ) -> tuple["SensitivityLedger", dict[tuple[int, int], float]]:
        """Rebuild a ledger from an exported CSV.

        Returns the ledger plus the psi column as recorded in the file keyed
        by (position, client), so auditors can compare recomputed values
        against recorded ones.
        """
        rows: dict[int, dict[str, object]] = {}
        recorded: dict[tuple[int, int], float] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != CSV_HEADER:
                raise ValueError(f"unexpected ledger header {header!r}")
            for position_s, segment_s, client_s, delta_s, psi_s in reader:
                position, client = int(position_s), int(client_s)
                entry = rows.setdefault(position, {"segment": int(segment_s), "deltas": {}})
                entry["deltas"][client] = float(delta_s)
                recorded[(position, client)] = float(psi_s)
        ledger = cls(contraction, local_steps)
        for position in range(len(rows)):
            if position not in rows:
                raise ValueError(f"ledger file missing round {position}")
            entry = rows[position]
            ledger.record_round(entry["deltas"], entry["segment"])
        return ledger, recorded
