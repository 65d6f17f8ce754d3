"""Deterministic FedAvg: local full-batch GD, weighted aggregation, checkpoints.

A federation's clients share one data shape (n, d) and are stacked once, as
features (C, n, d) and targets (C, n).  A run aggregates one fixed Cohort of
clients (FederationConfig.cohort): their renormalised weights and their
rows of the stack, with everything a round needs that does not depend on
theta, built once per run.  A ridge cohort with d <= n advances by its
clients' K-step maps theta -> A_i theta + b_i (models.ridge_operators), by
their aggregate theta -> M theta + m, M = sum_i q_i A_i, m = sum_i q_i b_i
(Cohort.affine), forming no client model (affine_round).  Every other cohort
steps by kernel_round, one kernel call per local step.  A run guards and
measures its client models a block of rounds at a time (local_gaps,
kernel_gaps).

Determinism contract: repeated runs on one platform are bit-identical.
kernel_round equals the per-client loop bit for bit; affine_round and the
client models local_gaps recomputes equal it to rounding.  Each stacked
product and each row norm (models.norms) is one BLAS call per client slice,
so a client's local model and norms do not depend on which clients or
rounds share its block.  The aggregation is np.add.accumulate along the
client axis: the sequential sum q_0 theta_0 + q_1 theta_1 + ... in
ascending client order, never a pairwise or BLAS reduction.  The retained
loss of a cohort with a quadratic form (ridge, d <= n) is that form, equal
to the kernel to rounding, with an anchor built from the cohort alone, so a
pure function of (cohort, theta).  Every other cohort's loss is the
kernel's, summed like the aggregation, from the forward pass that also
gives the round's first local step (federation_loss_and_grads).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import models
from .errors import (
    DimensionMismatchError,
    DivergedTrainingError,
    EmptyFederationError,
    SingularRemovalError,
)
from .models import ClientDataset, ModelKind, ModelSpec, Params

_DIVERGENCE_NORM = 1e8
_WEIGHT_TOL = 1e-12
_CKPT_MAGIC = b"FUL1"


@dataclass(frozen=True, eq=False)
class FederationConfig:
    """Static description of a federation: its clients, weights and steps.

    weights must sum to 1 within 1e-12; by default they are proportional to
    the client sample counts.  The clients must share one data shape
    (models.stack_clients); they are stacked once, here.  It keeps no cohort
    between calls, only what ridge cohorts build from the stack: the raw
    moments X_i^T X_i and X_i^T y_i (models.ridge_moments, None for d > n),
    built once on first use, and the ridge operators, built from them once
    per spec (they depend on its l2).  Every array it holds is read-only:
    its own copy of the weights, the stack, and the moments and operators as
    they are built, so a federation shared by several runs cannot be
    changed by one of them.
    """

    clients: tuple[ClientDataset, ...]
    weights: np.ndarray
    eta: float
    local_steps: int

    def __post_init__(self):
        clients = tuple(self.clients)
        if not clients:
            raise EmptyFederationError("federation needs at least one client")
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (len(clients),):
            raise DimensionMismatchError(
                f"{weights.shape[0] if weights.ndim == 1 else weights.shape} weights "
                f"for {len(clients)} clients"
            )
        # written so that a NaN weight fails both checks
        if not (weights >= 0).all():
            raise ValueError("client weights must be non-negative")
        if not abs(float(weights.sum()) - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"client weights sum to {weights.sum()!r}, expected 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        stack = models.stack_clients(clients)
        freeze(weights, *stack)
        object.__setattr__(self, "clients", clients)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_operators", {})

    @classmethod
    def from_datasets(
        cls,
        clients,
        eta: float,
        local_steps: int,
        weights=None,
    ) -> "FederationConfig":
        clients = tuple(clients)
        if weights is None:
            counts = np.array([c.sample_count for c in clients], dtype=np.float64)
            weights = counts / counts.sum()
        return cls(clients, np.asarray(weights, dtype=np.float64), eta, local_steps)

    @property
    def client_count(self) -> int:
        return len(self.clients)

    def cohort(self, active, spec: ModelSpec) -> "Cohort":
        """The clients `active` (any order; repeats count once) as one run's
        cohort, with their rows of the stack for `spec`'s kernel."""
        active = tuple(sorted({int(c) for c in active}))
        if not active:
            raise EmptyFederationError("a cohort needs at least one client")
        if active[0] < 0 or active[-1] >= self.client_count:
            raise IndexError(f"client index out of range in {active}")
        features = self._stack[0]
        if features.shape[2] != spec.dims[0]:
            raise DimensionMismatchError(f"data has {features.shape[2]} features, spec expects {spec.dims[0]}")
        weights = renormalized_weights(self.weights, set(range(self.client_count)) - set(active))
        return Cohort(active, weights, spec, self)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray] | None:
        """models.ridge_moments of the stack, built on first read."""
        moments = models.ridge_moments(*self._stack)
        freeze(*(moments or ()))
        return moments

    def _ridge_operators(self, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
        """models.ridge_operators of the stack's moments, built once per spec
        (they depend on its l2)."""
        if spec not in self._operators:
            samples = self._stack[0].shape[1]
            operators = models.ridge_operators(spec, self._moments, samples, self.eta, self.local_steps)
            freeze(*operators)
            self._operators[spec] = operators
        return self._operators[spec]


def freeze(*arrays: np.ndarray) -> None:
    """Make each array read-only: writing to it raises ValueError."""
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Cohort:
    """The clients one run aggregates, fixed for the whole run.

    active is ascending, and active_index holds it as a read-only index
    array.  weights has one entry per federation client: the federation's
    weights renormalised over `active`, zero elsewhere; every round
    aggregates with them and the ledger's increments use them.
    active_weights is weights[active_index], checked to sum to one once, here.

    Everything a run needs that does not depend on theta is built on first
    read and kept, each from the cohort's rows of what the federation holds
    (indexed by active_index; the full cohort's are the federation's own
    arrays, uncopied): features (g, n, d) and targets (g, n) of the
    federation's stack; operators, the ridge operators (A, b)
    (models.ridge_operators), or None for logistic, the MLP, or ridge with
    d > n.  From those: affine, the operators' aggregate map (M, m);
    quadratic, the retained loss's quadratic form for federation_loss; and
    increment_scale, the closed-form increments' p / (1 - p).  A cohort
    that only evaluates losses builds no operators.
    """

    active: tuple[int, ...]
    weights: np.ndarray
    spec: ModelSpec
    federation: FederationConfig
    active_index: np.ndarray = field(init=False)
    active_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        active_index = np.array(self.active, dtype=np.intp)
        active_weights = self.weights[active_index]
        if abs(float(active_weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"cohort weights sum to {active_weights.sum()!r}, expected 1")
        freeze(active_index)
        object.__setattr__(self, "active_index", active_index)
        object.__setattr__(self, "active_weights", active_weights)

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """The cohort's rows of an array over every federation client; the
        array itself, uncopied, for the full cohort."""
        if len(self.active) == self.federation.client_count:
            return values
        return values[self.active_index]

    @cached_property
    def features(self) -> np.ndarray:
        return self._rows(self.federation._stack[0])

    @cached_property
    def targets(self) -> np.ndarray:
        return self._rows(self.federation._stack[1])

    @cached_property
    def operators(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.spec.kind is not ModelKind.RIDGE or self.federation._moments is None:
            return None
        return tuple(map(self._rows, self.federation._ridge_operators(self.spec)))

    @cached_property
    def affine(self) -> tuple[np.ndarray, Params] | None:
        """(M, m) = (sum_i q_i A_i, sum_i q_i b_i) over the cohort's clients
        of a cohort with operators, else None.

        Every client of a round starts from the same theta, so the round's
        aggregate is theta -> M theta + m.  Built as oracle.ridge_sensitivity
        builds each leave-one-out map: the weight row times the operators,
        reshaped to (g, d * d).
        """
        if self.operators is None:
            return None
        d = self.spec.param_count
        maps, offsets = np.zeros(d * d), np.zeros(d)
        maps += self.active_weights @ self.operators[0].reshape(len(self.active), d * d)
        offsets += self.active_weights @ self.operators[1]
        maps = maps.reshape(d, d)
        freeze(maps, offsets)
        return maps, offsets

    @cached_property
    def quadratic(self) -> tuple[Params, float, Params, np.ndarray] | None:
        """(anchor, loss there, gradient there, Hessian H) of a ridge cohort
        with moments (d <= n), else None.

        The loss is exactly quadratic: H = sum_i q_i X_i^T X_i / n + l2 I
        with gradient H theta - r, r = sum_i q_i X_i^T y_i / n.  The anchor
        solves H theta = r, by lstsq when H is singular (l2 = 0 with
        rank-deficient data), and its loss is one kernel call, so the anchor
        depends on the cohort alone; the expansion is exact around any finite
        anchor.
        """
        if self.spec.kind is not ModelKind.RIDGE or self.federation._moments is None:
            return None
        d = self.spec.param_count
        gram, moment = map(self._rows, self.federation._moments)
        scaled = self.active_weights / self.features.shape[1]
        hessian, pull = np.zeros(d * d), np.zeros(d)
        hessian += scaled @ gram.reshape(len(self.active), d * d)
        pull += scaled @ moment
        hessian = hessian.reshape(d, d)
        hessian[np.arange(d), np.arange(d)] += self.spec.l2
        try:
            anchor = np.linalg.solve(hessian, pull)
        except np.linalg.LinAlgError:
            anchor = np.linalg.lstsq(hessian, pull, rcond=None)[0]
        return anchor, _kernel_loss(self, anchor), hessian @ anchor - pull, hessian

    @cached_property
    def increment_scale(self) -> np.ndarray:
        """p / (1 - p) for p = active_weights.  A client carrying the full
        weight has no run without it to bound: every read then raises."""
        p = self.active_weights
        if (p >= 1.0).any():
            client = self.active[int(np.argmax(p >= 1.0))]
            raise SingularRemovalError(f"client {client} carries the full aggregation weight")
        return p / (1.0 - p)


def local_updates(
    spec: ModelSpec, features, targets, theta: Params, eta: float, local_steps: int, round_index=None, first_grad=None
) -> np.ndarray:
    """Run `local_steps` gradient steps from theta on each stacked client.

    One kernel call per step; returns (g, p).  Every iterate but the last is
    guarded against divergence; the last, the client models, is the caller's
    to guard.  The first step's gradient is the kernel's at the shared theta,
    or `first_grad` when given: that gradient, as federation_loss_and_grads
    returns it, which spares the step's kernel call.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1")
    theta = models.as_params(theta)
    if first_grad is None:
        first_grad = models.stacked_grad(spec, features, targets, theta)
    current = theta - eta * first_grad
    for _ in range(local_steps - 1):
        _guard_finite(current, round_index)
        current = current - eta * models.stacked_grad(spec, features, targets, current)
    return current


def _guard_finite(rows: np.ndarray, round_index: int | None = None) -> None:
    # rows (m, p) or one model (p,); an inf or nan entry makes its row's
    # norm non-finite, which fails the comparison
    if not (models.norms(rows) <= _DIVERGENCE_NORM).all():
        raise diverged(round_index)


def diverged(round_index: int | None) -> DivergedTrainingError:
    """The error of a round whose model is non-finite or exceeds norm 1e8."""
    return DivergedTrainingError(
        "training diverged: parameter vector is non-finite or exceeds norm 1e8",
        round_index=round_index,
    )


def _accumulate(client_models: np.ndarray, weights: np.ndarray) -> Params:
    # accumulate is sequential by construction; a reduce over one column is pairwise
    return np.add.accumulate(weights[:, None] * client_models, axis=0)[-1]


def renormalized_weights(weights, removed) -> np.ndarray:
    """Zero out removed clients and rescale the rest to sum to one."""
    weights = np.asarray(weights, dtype=np.float64)
    removed = set(removed)
    out = weights.copy()
    for idx in removed:
        if not 0 <= idx < weights.shape[0]:
            raise IndexError(f"client index {idx} out of range")
        out[idx] = 0.0
    mass = float(out.sum())
    if mass <= 0.0:
        raise EmptyFederationError("removal leaves no aggregation mass")
    return out / mass


def kernel_round(cohort: Cohort, theta: Params, round_index: int, first_grad=None) -> tuple[np.ndarray, Params]:
    """One round of a cohort: its client models (active, p), unguarded, and
    their guarded aggregate, by local_updates from theta, the first step
    from first_grad when given (what federation_loss_and_grads returned at
    theta)."""
    fed = cohort.federation
    client_models = local_updates(
        cohort.spec, cohort.features, cohort.targets, theta, fed.eta, fed.local_steps, round_index, first_grad
    )
    new_theta = _accumulate(client_models, cohort.active_weights)
    _guard_finite(new_theta, round_index)
    return client_models, new_theta


def affine_round(cohort: Cohort, theta: Params, round_index: int) -> Params:
    """One round of a cohort with an aggregate map (Cohort.affine): the
    guarded global model M theta + m.  It forms no client model; local_gaps
    recomputes them, and guards them, for a block of rounds."""
    maps, offsets = cohort.affine
    new_theta = maps @ theta + offsets
    _guard_finite(new_theta, round_index)
    return new_theta


def local_gaps(cohort: Cohort, thetas: np.ndarray) -> np.ndarray:
    """||theta_i - theta_after|| (rounds, active) of each client of a cohort
    with an aggregate map over a run of affine_round calls, ending before
    the first round whose client models fail the divergence guard.

    thetas (rounds + 1, d) holds the global model before each round and the
    one after the last.  Client i's local model is A_i theta + b_i: one
    (chunk, d) @ (d, g d) product per chunk of at most d rounds, so no
    temporary holds more values than the operators (g, d, d).
    """
    rounds, d = thetas.shape[0] - 1, thetas.shape[1]
    maps, offsets = cohort.operators
    gaps = np.empty((rounds, len(cohort.active)))
    ones = np.ones(d)
    for start in range(0, rounds, d):
        stop = min(start + d, rounds)
        shape = (stop - start, -1)
        local = thetas[start:stop] @ maps.reshape(-1, d).T
        local = local.reshape(stop - start, -1, d)
        local += offsets
        # one row per (round, client); an inf or nan entry makes its
        # row's norm non-finite, which fails the comparison
        flat = local.reshape(-1, d)
        sound = (np.sqrt((flat * flat) @ ones) <= _DIVERGENCE_NORM).reshape(shape).all(axis=1)
        local -= thetas[start + 1 : stop + 1, None]
        gaps[start:stop] = np.sqrt((flat * flat) @ ones).reshape(shape)
        if not sound.all():
            return gaps[: start + int(np.argmin(sound))]
    return gaps


def kernel_gaps(client_models, after: np.ndarray) -> np.ndarray:
    """local_gaps of a block of kernel_round rounds from their client models,
    one (active, p) array per round, and aggregates (rounds, p), guard and
    gaps taking models.norms of each row."""
    local = np.array(client_models)
    rounds, _, p = local.shape
    flat = local.reshape(-1, p)
    sound = (models.norms(flat) <= _DIVERGENCE_NORM).reshape(rounds, -1).all(axis=1)
    local -= after[:, None]
    gaps = models.norms(flat).reshape(rounds, -1)
    return gaps if sound.all() else gaps[: int(np.argmin(sound))]


def init_params(spec: ModelSpec, seed: int, mode: str = "normal") -> Params:
    """Initial global model: seeded 0.01-scaled normal vector or zeros."""
    if mode == "zeros":
        return np.zeros(spec.param_count)
    if mode == "normal":
        return 0.01 * np.random.default_rng(seed).standard_normal(spec.param_count)
    raise ValueError(f"unknown init mode {mode!r}")


def federation_loss(cohort: Cohort, theta: Params) -> float:
    """Aggregation-weighted loss of theta over a cohort's clients.

    A cohort with a quadratic form (Cohort.quadratic: ridge, d <= n)
    evaluates it at theta; it equals the per-client kernel to rounding.
    Every other cohort sums the kernel's losses.
    """
    theta = models.as_params(theta)
    if cohort.quadratic is None:
        return _kernel_loss(cohort, theta)
    anchor, anchor_loss, gradient, hessian = cohort.quadratic
    if theta.shape != anchor.shape:
        raise DimensionMismatchError(f"theta has shape {theta.shape}, spec expects {anchor.shape[0]} entries")
    step = theta - anchor
    return float(anchor_loss + gradient @ step + 0.5 * (step @ (hessian @ step)))


def federation_loss_and_grads(cohort: Cohort, theta: Params) -> tuple[float, np.ndarray | None]:
    """federation_loss at theta and, from the same forward pass, the
    cohort's gradients (g, p) at theta, the first local step of a round
    from theta.

    A cohort with a quadratic form evaluates it and returns no gradients,
    as it advances by its operators.  The loss and the gradients equal
    federation_loss and models.stacked_grad bit for bit.  theta, a float64
    (p,), is not checked: retrain_until checks it once.
    """
    if cohort.quadratic is not None:
        return federation_loss(cohort, theta), None
    losses, grads = models.stacked_loss_and_grad(cohort.spec, cohort.features, cohort.targets, theta)
    return _weighted_sum(losses, cohort), grads


def _kernel_loss(cohort: Cohort, theta: Params) -> float:
    """federation_loss from each client's kernel loss, summed in ascending
    client order."""
    return _weighted_sum(models.stacked_loss(cohort.spec, cohort.features, cohort.targets, theta), cohort)


def _weighted_sum(losses: np.ndarray, cohort: Cohort) -> float:
    return float(np.add.accumulate(cohort.active_weights * losses)[-1])


# ---------------------------------------------------------------------------
# checkpoint files: a 52-byte header (magic, end position, dimension d, config
# hash), then one or more models as little-endian float64 rows of d values
# ---------------------------------------------------------------------------


def write_checkpoint(path, position: int, values, config_hash: bytes) -> None:
    """Write one model (d,) or a block of models (rows, d) with its metadata.

    `position` is the timeline position of the last model written.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or not values.size:
        raise DimensionMismatchError(f"checkpoint needs (d,) or (rows, d) values, got shape {values.shape}")
    if len(config_hash) != 32:
        raise ValueError("config_hash must be a 32-byte digest")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<qq", int(position), values.shape[-1]))
        fh.write(bytes(config_hash))
        fh.write(values.astype("<f8").tobytes())


def read_checkpoint(path) -> tuple[int, np.ndarray, bytes]:
    """Inverse of write_checkpoint; validates magic and length.

    values is (d,) for a file holding one model and (rows, d) otherwise.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(blob) < 52:
        raise ValueError(f"{path}: truncated checkpoint header ({len(blob)} of 52 bytes)")
    position, dim = struct.unpack("<qq", blob[4:20])
    digest = blob[20:52]
    if dim < 1:
        raise ValueError(f"{path}: checkpoint dimension {dim}")
    rows, rest = divmod(len(blob) - 52, 8 * dim)
    if rest or not rows:
        raise ValueError(
            f"{path}: truncated checkpoint ({len(blob)} bytes, not 52 + a multiple of {8 * dim})"
        )
    values = np.frombuffer(blob[52:], dtype="<f8").astype(np.float64)
    return position, values if rows == 1 else values.reshape(rows, dim), digest
