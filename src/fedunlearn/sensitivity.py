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

from .engine import RoundRecord
from .errors import SingularRemovalError, StepSizeError
from .models import Regime, RegimeConstants, norms

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


def client_increments_fast(record: RoundRecord, weights) -> np.ndarray:
    """Closed-form increments (p_c / (1 - p_c)) * ||theta_c - theta_agg||.

    `weights` is the weight vector used by the round's aggregation (zeros for
    inactive clients).  Returns one entry per client; a client absent from
    the round contributes 0.
    """
    weights, active, p = _round_weights(record, weights)
    out = np.zeros(weights.shape[0])
    out[active] = p / (1.0 - p) * norms(record.client_models - record.global_after)
    return out


def client_increments_direct(record: RoundRecord, weights) -> np.ndarray:
    """||aggregate(all) - aggregate(without c)|| for every client c of a round.

    The reference the closed form is checked against: row r of the stacked
    computation renormalises the weights without client active[r], exactly as
    renormalized_weights does, and aggregates the other clients in ascending
    order (its own term is an exact zero, which leaves the running sum alone).
    """
    weights, active, _ = _round_weights(record, weights)
    m = len(active)
    rest = np.tile(weights, (m, 1))
    rest[np.arange(m), active] = 0.0
    rest = (rest / rest.sum(axis=1)[:, None])[:, active]
    without = np.add.accumulate(rest[:, :, None] * record.client_models[None], axis=1)[:, -1]
    out = np.zeros(weights.shape[0])
    out[active] = norms(record.global_after - without)
    return out


def _round_weights(record: RoundRecord, weights) -> tuple[np.ndarray, list[int], np.ndarray]:
    weights = np.asarray(weights, dtype=np.float64)
    active = list(record.active)
    p = weights[active]
    if (p >= 1.0).any():
        client = active[int(np.argmax(p >= 1.0))]
        raise SingularRemovalError(f"client {client} carries the full aggregation weight")
    return weights, active, p


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


CSV_HEADER = ("round", "segment", "client", "delta", "psi")


class SensitivityLedger:
    """Sensitivity accounting over a dense rounds x clients timeline.

    Round s holds one delta row over all clients (zero for a client absent
    from the round) and the unlearning-epoch segment that recorded it.  The
    Psi rows follow the recurrence: row 0 is zero and each recorded round
    appends round_decay * (previous row) + (delta row).
    """

    def __init__(self, contraction: float, local_steps: int, client_count: int):
        if contraction <= 0:
            raise ValueError("contraction factor must be positive")
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if client_count < 1:
            raise ValueError("client_count must be >= 1")
        self.contraction = float(contraction)
        self.local_steps = int(local_steps)
        self.client_count = int(client_count)
        self._deltas: list[np.ndarray] = []
        self._segments: list[int] = []
        self._psi: list[np.ndarray] = [np.zeros(self.client_count)]

    def __len__(self) -> int:
        return len(self._deltas)

    @property
    def round_decay(self) -> float:
        return self.contraction**self.local_steps

    @property
    def deltas(self) -> np.ndarray:
        """Per-round increments, shape (rounds, clients)."""
        return np.array(self._deltas).reshape(len(self), self.client_count)

    @property
    def segments(self) -> np.ndarray:
        """Segment index of each recorded round."""
        return np.array(self._segments, dtype=np.int64)

    @property
    def psi(self) -> np.ndarray:
        """Psi(n, c) for n = 0..len, shape (rounds + 1, clients)."""
        return np.array(self._psi)

    def record_round(self, deltas, segment: int) -> None:
        """Append one round's delta row and advance the recurrence."""
        row = np.array(deltas, dtype=np.float64)
        if row.shape != (self.client_count,):
            raise ValueError(f"delta row must have shape ({self.client_count},), got {row.shape}")
        if np.any(row < 0):
            raise ValueError(f"negative increment for client {int(np.flatnonzero(row < 0)[0])}")
        self._deltas.append(row)
        self._segments.append(int(segment))
        self._psi.append(self.round_decay * self._psi[-1] + row)

    def bounded_sensitivity(self, n: int, clients) -> np.ndarray:
        """Psi(n, c) for each c in sorted(set(clients)) from the explicit
        decayed sum over the first n increments (the value sigma is
        calibrated from)."""
        self._check_prefix(n)
        columns = self.deltas[:n][:, self._client_set(clients)]
        total = np.zeros(columns.shape[1])
        for s, row in enumerate(columns):
            total += self.contraction ** ((n - s - 1) * self.local_steps) * row
        return total

    def set_sensitivity(self, clients, n: int) -> float:
        """Psi(n, S) = max over the client set of the individual bounds."""
        return float(self.bounded_sensitivity(n, clients).max())

    def rollback_index(self, clients, threshold: float) -> int:
        """Largest position n with max over S of the recurrence Psi(n, c) <= threshold.

        Position 0 always qualifies (Psi(0, c) = 0), so the scan cannot fail
        for non-negative thresholds.
        """
        clients = self._client_set(clients)
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        worst = self.psi[:, clients].max(axis=1)
        return int(np.flatnonzero(worst <= threshold)[-1])

    def truncate(self, position: int) -> None:
        """Drop the rounds at positions >= position."""
        self._check_prefix(position)
        del self._deltas[position:], self._segments[position:], self._psi[position + 1 :]

    def _client_set(self, clients) -> list[int]:
        clients = sorted(set(clients))
        if not clients:
            raise ValueError("client set must be non-empty")
        if not 0 <= clients[0] <= clients[-1] < self.client_count:
            raise IndexError(f"clients {clients} outside [0, {self.client_count})")
        return clients

    def _check_prefix(self, n: int) -> None:
        if not 0 <= n <= len(self):
            raise IndexError(f"prefix length {n} outside [0, {len(self)}]")

    # -- CSV round-trip ------------------------------------------------------

    def export_csv(self, path) -> None:
        """One row per (round, client): round, segment, client, delta, psi.

        psi is the running bound after that round, i.e. Psi(round + 1, client).
        Floats carry 17 significant digits so the file round-trips exactly.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for position, (segment, deltas, psi) in enumerate(
                zip(self._segments, self._deltas, self._psi[1:])
            ):
                writer.writerows(
                    [position, segment, client, format(d, ".17g"), format(p, ".17g")]
                    for client, (d, p) in enumerate(zip(deltas.tolist(), psi.tolist()))
                )

    @classmethod
    def from_csv(
        cls, path, contraction: float, local_steps: int, client_count: int
    ) -> tuple["SensitivityLedger", np.ndarray]:
        """Rebuild a ledger from an exported CSV.

        The file must hold exactly one row per (round, client) cell of a
        rounds x client_count grid.  Returns the ledger plus the psi column as
        recorded in the file, shape (rounds, clients), so auditors can compare
        it against the recomputed ledger.psi[1:].
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != CSV_HEADER:
                raise ValueError(f"unexpected ledger header {header!r}")
            cells = [(int(p), int(s), int(c), float(d), float(q)) for p, s, c, d, q in reader]
        table = np.array(cells, dtype=np.float64).reshape(-1, 5)
        position, segment, client = table[:, :3].astype(np.int64).T
        delta, psi = table[:, 3], table[:, 4]
        rounds = int(position.max()) + 1 if cells else 0
        if cells and (position.min() < 0 or client.min() < 0 or client.max() >= client_count):
            raise ValueError(f"ledger file has a round or client outside [0, {client_count})")
        filled = np.zeros((rounds, client_count), dtype=bool)
        filled[position, client] = True
        if not filled.all():
            p, c = np.argwhere(~filled)[0]
            raise ValueError(f"ledger file missing round {p} for client {c}")
        if len(cells) != filled.size:
            raise ValueError("ledger file repeats a (round, client) cell")
        deltas, recorded = np.zeros(filled.shape), np.zeros(filled.shape)
        deltas[position, client] = delta
        recorded[position, client] = psi
        segments = np.zeros(rounds, dtype=np.int64)
        segments[position] = segment
        ledger = cls(contraction, local_steps, client_count)
        for row, seg in zip(deltas, segments.tolist()):
            ledger.record_round(row, seg)
        return ledger, recorded
