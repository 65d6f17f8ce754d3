"""Unlearning mechanics: rollback + calibrated Gaussian noise + retraining.

The sequential procedure keeps a history of global models and a sensitivity
ledger.  Each request finds the latest checkpoint whose bounded sensitivity
for the departing clients stays within the budget threshold, perturbs that
checkpoint with noise calibrated to the actual bound there, truncates
everything after it, and retrains on the surviving clients until a loss
threshold (or round cap) is met; position p then belongs to the retraining of
the latest request rolling back to p or before, or to training.
Single-request unlearning (ifu) is the special case with one request.  The
three reference baselines are the same request step with the rollback pinned:
scratch rolls back to the initial model, fine-tune and noise-the-final-model
(last) to the end of the timeline; scratch and fine-tune carry no ledger and
so add no noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .engine import (
    Cohort,
    FederationConfig,
    affine_round,
    diverged,
    federation_loss_and_grads,
    kernel_gaps,
    kernel_round,
    local_gaps,
)
from .errors import DimensionMismatchError, EmptyFederationError, InvalidRequestError
from .history import TrainingHistory
from .models import ModelSpec, Params
from .sensitivity import NoiseBudget, SensitivityLedger, client_increments, noise_std

METHODS = ("sifu", "ifu", "scratch", "finetune", "last")
# methods that read the training ledger, calibrate noise to it and extend it
LEDGER_METHODS = ("sifu", "ifu", "last")

_PERTURB_TAG = 0x5EED


@dataclass(frozen=True)
class StoppingRule:
    """Stop retraining once the retained-client loss reaches the threshold.

    The threshold is only consulted after min_rounds rounds; max_rounds is a
    hard cap.  threshold = +inf therefore means "run exactly min_rounds".
    """

    loss_threshold: float
    min_rounds: int = 0
    max_rounds: int = 10_000

    def __post_init__(self):
        if self.min_rounds < 0 or self.max_rounds < 0:
            raise ValueError("round counts must be non-negative")
        if self.min_rounds > self.max_rounds:
            raise ValueError("min_rounds cannot exceed max_rounds")
        if math.isnan(self.loss_threshold):
            raise ValueError("loss_threshold must not be NaN")


def stopping_criterion(rounds_done: int, retained_loss: float, rule: StoppingRule) -> bool:
    """True when retraining may stop after rounds_done rounds."""
    if rounds_done >= rule.max_rounds:
        return True
    return rounds_done >= rule.min_rounds and retained_loss <= rule.loss_threshold


def perturbation_stream(seed: int, request_index: int) -> np.random.Generator:
    """Dedicated RNG stream for one unlearning request."""
    return np.random.default_rng(np.random.SeedSequence([_PERTURB_TAG, int(seed), int(request_index)]))


def gaussian_perturb(theta: Params, sigma: float, rng: np.random.Generator) -> Params:
    """theta + N(0, sigma^2 I).  sigma = 0 returns a copy without touching rng."""
    theta = models.as_params(theta)
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return theta.copy()
    return theta + sigma * rng.standard_normal(theta.shape[0])


@dataclass(frozen=True)
class UnlearningRequest:
    request_index: int
    targets: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "targets", frozenset(int(c) for c in self.targets))
        if not self.targets:
            raise InvalidRequestError("request must name at least one client")
        if self.request_index < 1:
            raise InvalidRequestError("request_index starts at 1")


@dataclass
class UnlearningState:
    """Mutable record of a sequential unlearning session with one method.

    The ledger-backed methods (LEDGER_METHODS) need a ledger; the others
    take none.  The history's final model is the session's current model.
    """

    remaining: set[int]
    processed: set[int]
    budget: NoiseBudget
    ledger: SensitivityLedger | None
    history: TrainingHistory
    seed: int
    next_request_index: int = 1
    method: str = "sifu"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if (self.ledger is not None) != (self.method in LEDGER_METHODS):
            raise ValueError(f"method {self.method!r} takes a ledger iff it is in {LEDGER_METHODS}")

    @classmethod
    def from_training(
        cls,
        history: TrainingHistory,
        ledger: SensitivityLedger | None,
        budget: NoiseBudget,
        client_count: int,
        seed: int,
        method: str = "sifu",
    ) -> "UnlearningState":
        return cls(
            remaining=set(range(client_count)),
            processed=set(),
            budget=budget,
            ledger=ledger,
            history=history,
            seed=seed,
            method=method,
        )


@dataclass(frozen=True, eq=False)
class UnlearningOutcome:
    request_index: int
    targets: frozenset[int]
    rollback_position: int
    noise_sigma: float
    retrain_rounds: int
    final_retained_loss: float
    converged: bool
    final_model: Params
    loss_trace: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class RetrainResult:
    final_model: Params
    rounds: int
    converged: bool
    final_loss: float
    loss_trace: list[tuple[int, float]]


def retrain_until(
    spec: ModelSpec,
    config: FederationConfig,
    theta_start: Params,
    active,
    stopping: StoppingRule,
    *,
    ledger: SensitivityLedger | None = None,
    history: TrainingHistory | None = None,
    start_position: int = 0,
    track_loss: bool = True,
) -> RetrainResult:
    """Shared retraining loop; optionally records into a ledger and history.

    The clients `active` form the run's one cohort: every round aggregates
    with its weights, against which recording takes the closed-form
    increments (zero for inactive clients).  Each round of the loop does
    only what the stopping rule needs: the next global model
    (engine.affine_round for a cohort with an aggregate map, else
    engine.kernel_round, whose first local step takes the gradients of the
    retained loss before it) and the retained loss.  A kernel run keeps its
    client models until a chunk of rounds, as many as hold no more values
    than the cohort's stacked features, is booked (_book); an affine run
    books its rounds at the end.  A run that diverges books the rounds
    before the diverging one and raises with its index.  track_loss=False
    skips the retained loss (final_loss is then NaN and the trace empty); it
    needs a fixed-round rule, since the loss is what an early stop reads.
    """
    if not track_loss and stopping.min_rounds != stopping.max_rounds:
        raise ValueError("skipping the loss needs a fixed-round stopping rule")
    cohort = config.cohort(active, spec)
    theta = models.as_params(theta_start).copy()
    if theta.shape != (spec.param_count,):
        raise DimensionMismatchError(f"theta has shape {theta.shape}, spec expects {spec.param_count} entries")

    def evaluate(theta: Params) -> tuple[float, np.ndarray | None]:
        # the retained loss the stopping rule reads, and the gradients of the
        # next round's first local step, from one forward pass at theta
        return federation_loss_and_grads(cohort, theta) if track_loss else (math.nan, None)

    loss, grads = evaluate(theta)
    rounds = 0
    trace: list[tuple[int, float]] = [(start_position, loss)] if track_loss else []
    # the global model before the rounds not yet booked and after each, and
    # a kernel run's client models of those rounds
    thetas, pending = [theta], []
    chunk = max(1, cohort.features.size // (len(cohort.active) * theta.shape[0]))
    try:
        while not stopping_criterion(rounds, loss, stopping):
            if cohort.affine is not None:
                theta = affine_round(cohort, theta, start_position + rounds)
            else:
                local, theta = kernel_round(cohort, theta, start_position + rounds, grads)
                pending.append(local)
            thetas.append(theta)
            rounds += 1
            if len(pending) == chunk:
                block, thetas, pending = (thetas, pending), [theta], []
                _book(cohort, *block, ledger, history, start_position + rounds - chunk)
            loss, grads = evaluate(theta)
            if track_loss:
                trace.append((start_position + rounds, loss))
    finally:
        _book(cohort, thetas, pending, ledger, history, start_position + rounds - len(thetas) + 1)
    return RetrainResult(theta, rounds, loss <= stopping.loss_threshold, loss, trace)


def _book(cohort: Cohort, thetas: list, pending: list, ledger, history, first_round: int) -> None:
    """Record a block of rounds from first_round in the ledger and history.

    thetas holds the global model before each round and after the last, and
    pending a kernel run's client models of those rounds; an affine run's
    are recomputed (engine.local_gaps).  Both guard the client models: a
    failing round ends the booking before it, which then raises.
    """
    if len(thetas) == 1:
        return
    thetas = np.array(thetas)
    gaps = local_gaps(cohort, thetas) if cohort.affine is not None else kernel_gaps(pending, thetas[1:])
    rounds = len(gaps)
    if ledger is not None and rounds:
        # a lone client carries the full weight: no run without it to bound
        many = len(cohort.active) > 1
        ledger.extend(client_increments(cohort, gaps) if many else np.zeros((rounds, ledger.client_count)))
    if history is not None and rounds:
        history.extend(thetas[1 : rounds + 1])
    if rounds < len(thetas) - 1:
        raise diverged(first_round + rounds)


def sifu(
    state: UnlearningState,
    request: UnlearningRequest,
    spec: ModelSpec,
    retrain: FederationConfig,
    stopping: StoppingRule,
) -> UnlearningOutcome:
    """Process one sequential unlearning request, mutating `state`.

    Rolls the history back, perturbs the model there with noise calibrated
    to the bound the ledger attains at that position, drops the discarded
    suffix from the ledger, and retrains on the surviving clients.  This is
    the request step of every method: sifu and ifu roll back to the latest
    position whose set sensitivity for the targets stays within the budget
    threshold, the baselines pin the position (see _rollback_position), and
    a state without a ledger (scratch, finetune) adds no noise and records
    nothing.
    """
    if request.request_index != state.next_request_index:
        raise InvalidRequestError(
            f"expected request index {state.next_request_index}, got {request.request_index}"
        )
    stale = request.targets & state.processed
    if stale:
        raise InvalidRequestError(f"clients already unlearned: {sorted(stale)}")
    unknown = request.targets - state.remaining
    if unknown:
        raise InvalidRequestError(f"clients not in the federation: {sorted(unknown)}")
    survivors = state.remaining - request.targets
    if not survivors:
        raise EmptyFederationError("request would empty the federation")

    position = _rollback_position(state, request.targets)
    sigma = 0.0
    if state.ledger is not None:
        psi_here = state.ledger.set_sensitivity(request.targets, position)
        sigma = noise_std(psi_here, state.budget.epsilon, state.budget.delta)
    base = state.history.model_at(position)

    state.history.truncate(position)
    if state.ledger is not None:
        state.ledger.truncate(position)
    perturbed = gaussian_perturb(base, sigma, perturbation_stream(state.seed, request.request_index))
    state.history.restart(perturbed)

    state.remaining = survivors
    state.processed = state.processed | request.targets
    result = retrain_until(
        spec,
        retrain,
        perturbed,
        survivors,
        stopping,
        ledger=state.ledger,
        history=state.history,
        start_position=position,
    )
    state.next_request_index += 1
    return UnlearningOutcome(
        request_index=request.request_index,
        targets=request.targets,
        rollback_position=position,
        noise_sigma=sigma,
        retrain_rounds=result.rounds,
        final_retained_loss=result.final_loss,
        converged=result.converged,
        final_model=result.final_model,
        loss_trace=result.loss_trace,
    )


def _rollback_position(state: UnlearningState, targets: frozenset[int]) -> int:
    """Where a request rolls back to: the latest in-budget position for sifu
    and ifu, the initial model for scratch, the timeline end otherwise."""
    if state.method == "scratch":
        return 0
    if state.method in ("finetune", "last"):
        return state.history.end_position
    return state.ledger.rollback_index(targets, state.budget.psi_star)

