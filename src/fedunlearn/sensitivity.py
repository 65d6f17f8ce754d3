"""Bounded model sensitivity: per-round increments, decay ledger, noise calibration.

The quantity tracked here bounds how far the trained global model can sit
from the model that would have been trained without a given client.  Writing
B for the one-step contraction factor of the local gradient map, K for the
local steps per round, and Delta_c(s) for the aggregation gap client c
induces at round s, the bound after n rounds is

    Psi(n, c) = sum_{s=0}^{n-1} B^((n-s-1) * K) * Delta_c(s)

That explicit decayed sum is the definition; the program computes only the
online recurrence Psi(n+1, c) = B^K * Psi(n, c) + Delta_c(n), which equals it
in exact arithmetic, and reads a client set S through the one set rule
Psi(n, S) = max over c in S of Psi(n, c).  The rollback scan, sigma and
verify's budget audit all read that same float.
A Gaussian perturbation with standard deviation

    noise_std(psi, eps, delta) = sqrt(2 * (ln 1.25 - ln delta)) / eps * psi

then makes the released model (eps, delta)-indistinguishable from the
retrain-from-scratch counterfactual.  The inverse map psi_star(eps, delta,
sigma) converts a fixed noise budget into the largest certifiable Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Cohort
from .errors import StepSizeError
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


def client_increments(cohort: Cohort, gaps: np.ndarray) -> np.ndarray:
    """Closed-form increments (p_c / (1 - p_c)) * ||theta_c - theta_agg|| of
    a block of rounds, from each round's gap norms over cohort.active, shape
    (rounds, active), as engine.local_gaps and engine.kernel_gaps measure them.

    p is the cohort's aggregation weights; the factor is its increment_scale,
    computed once per cohort.  Returns (rounds, clients); a client outside
    the cohort contributes 0.
    """
    out = np.zeros((gaps.shape[0], cohort.weights.shape[0]))
    out[:, cohort.active_index] = cohort.increment_scale * gaps
    return out


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


class SensitivityLedger:
    """Sensitivity accounting over a dense rounds x clients timeline.

    Round s holds one delta row over all clients (zero for a client absent
    from the round).  The Psi rows follow the recurrence: row 0 is zero and
    each recorded round appends round_decay * (previous row) + (delta row).
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
    def psi(self) -> np.ndarray:
        """Psi(n, c) for n = 0..len, shape (rounds + 1, clients)."""
        return np.array(self._psi)

    @classmethod
    def from_deltas(cls, contraction: float, local_steps: int, block) -> "SensitivityLedger":
        """A ledger of the (rounds, clients) block's rows, checked as one block."""
        block = np.array(block, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError(f"delta block must be 2-D, got shape {block.shape}")
        ledger = cls(contraction, local_steps, block.shape[1])
        ledger.extend(block)
        return ledger

    def extend(self, block) -> None:
        """Append a (rounds, clients) block of delta rows, checked as one
        block, and advance the recurrence row by row into one preallocated
        block of Psi rows; a block with a bad increment appends nothing and
        names its first such round."""
        block = np.array(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.client_count:
            raise ValueError(f"delta block must have shape (rounds, {self.client_count}), got {block.shape}")
        problem = _increment_problem(block)
        if problem is not None:
            raise ValueError(f"round {len(self) + problem[0]}: {problem[1]}")
        decay, psi, previous = self.round_decay, np.empty_like(block), self._psi[-1]
        for row, out in zip(block, psi):
            # out passed by position: numpy parses it faster than out=
            previous = np.add(np.multiply(decay, previous, out), row, out)
        self._psi.extend(psi)
        self._deltas.extend(block)

    def set_sensitivity(self, clients, n: int) -> float:
        """Psi(n, S) of the recurrence: the float the rollback scan compares
        with the threshold, that sigma is calibrated from and that verify's
        budget audit reads."""
        self._check_prefix(n)
        return float(self._set_psi(clients, self._psi[n]))

    def rollback_index(self, clients, threshold: float) -> int:
        """Largest position n with Psi(n, S) <= threshold.

        Position 0 always qualifies (Psi(0, c) = 0), so the scan cannot fail
        for non-negative thresholds.
        """
        worst = self._set_psi(clients, self.psi)
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        return int(np.flatnonzero(worst <= threshold)[-1])

    def _set_psi(self, clients, psi: np.ndarray) -> np.ndarray:
        """The set rule Psi(n, S) = max over c in S of Psi(n, c), over the
        last axis of psi (one Psi row, or the (rounds + 1, clients) array)."""
        return psi[..., self._client_set(clients)].max(axis=-1)

    def truncate(self, position: int) -> None:
        """Drop the rounds at positions >= position."""
        self._check_prefix(position)
        del self._deltas[position:], self._psi[position + 1 :]

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

    def prefix(self, n: int) -> "SensitivityLedger":
        """A new ledger of the first n rounds; it shares their rows, which no
        ledger ever writes to."""
        self._check_prefix(n)
        head = SensitivityLedger(self.contraction, self.local_steps, self.client_count)
        head._deltas, head._psi = self._deltas[:n], self._psi[: n + 1]
        return head


def _increment_problem(block: np.ndarray) -> tuple[int, str] | None:
    """(round, what is wrong) for the first round of a (rounds, clients)
    block holding a non-finite or a negative increment, naming its first
    non-finite client, else its first negative one; None if there is none."""
    finite = np.isfinite(block)
    negative = block < 0
    if finite.all() and not negative.any():
        return None
    n = int(np.flatnonzero(~finite.all(axis=1) | negative.any(axis=1))[0])
    if not finite[n].all():
        return n, f"non-finite increment for client {int(np.flatnonzero(~finite[n])[0])}"
    return n, f"negative increment for client {int(np.flatnonzero(negative[n])[0])}"
