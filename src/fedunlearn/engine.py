"""Deterministic FedAvg: local full-batch GD, weighted aggregation, checkpoints.

A run aggregates one fixed Cohort of clients (FederationConfig.cohort): their
renormalised weights and their data stacked by shape, built once per run.
Every client of a round starts from the same model, so a ridge stack with
d <= n advances by its clients' K-step maps theta -> A_i theta + b_i
(models.ridge_operators, built once per data shape and spec): one (g, d, d)
product and one divergence guard per round.  Other stacks make one kernel
call and guard per local step.

Determinism contract: repeated runs on one platform are bit-identical.  A
round equals the per-client loop bit for bit, except a fused ridge round:
one affine map per client, no longer bit-identical to the per-step loop but
equal to it to rounding.  Each stacked product is one BLAS call per client
slice (see models), so client i's local model does not depend on which other
clients share its stack.  The aggregation is np.add.accumulate along the
client axis: the sequential sum q_0 theta_0 + q_1 theta_1 + ... in ascending
client order, never a pairwise or BLAS reduction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import (
    DimensionMismatchError,
    DivergedTrainingError,
    EmptyFederationError,
)
from .models import ClientDataset, ModelKind, ModelSpec, Params

_DIVERGENCE_NORM = 1e8
_WEIGHT_TOL = 1e-12
_CKPT_MAGIC = b"FUL1"


@dataclass(frozen=True, eq=False)
class FederationConfig:
    """Static description of a federation: its clients, weights and steps.

    weights must sum to 1 within 1e-12; by default they are proportional to
    the client sample counts.  It keeps no cohort or stack between calls,
    only each data-shape group's ridge operators, per spec (they depend on
    its l2).
    """

    clients: tuple[ClientDataset, ...]
    weights: np.ndarray
    eta: float
    local_steps: int

    def __post_init__(self):
        clients = tuple(self.clients)
        if not clients:
            raise EmptyFederationError("federation needs at least one client")
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (len(clients),):
            raise DimensionMismatchError(
                f"{weights.shape[0] if weights.ndim == 1 else weights.shape} weights "
                f"for {len(clients)} clients"
            )
        if np.any(weights < 0):
            raise ValueError("client weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"client weights sum to {weights.sum()!r}, expected 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        object.__setattr__(self, "clients", clients)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_groups", models.stack_by_shape(clients))
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
        cohort, with their data stacked for `spec`'s kernel."""
        active = tuple(sorted({int(c) for c in active}))
        if not active:
            raise EmptyFederationError("a cohort needs at least one client")
        if active[0] < 0 or active[-1] >= self.client_count:
            raise IndexError(f"client index out of range in {active}")
        weights = renormalized_weights(self.weights, set(range(self.client_count)) - set(active))
        group_operators = [None] * len(self._groups)
        if spec.kind is ModelKind.RIDGE:
            if spec not in self._operators:
                self._operators[spec] = [
                    models.ridge_operators(spec, X, y, self.eta, self.local_steps) for _, X, y in self._groups
                ]
            group_operators = self._operators[spec]
        chosen = np.zeros(self.client_count, dtype=bool)
        chosen[list(active)] = True
        stacks = []
        for (members, features, targets), operators in zip(self._groups, group_operators):
            keep = chosen[members]
            if not keep.any():
                continue
            if not keep.all():
                members, features, targets = members[keep], features[keep], targets[keep]
                if operators is not None:
                    operators = tuple(op[keep] for op in operators)
            stacks.append((np.searchsorted(active, members), features, targets, operators))
        return Cohort(active, weights, tuple(stacks))


@dataclass(frozen=True, eq=False)
class Cohort:
    """The clients one run aggregates, fixed for the whole run.

    active is ascending.  weights has one entry per federation client: the
    federation's weights renormalised over `active`, zero elsewhere; every
    round aggregates with them and the ledger's increments use them.  stacks
    holds one (rows, features (g, n, d), targets (g, n), operators) entry per
    data shape, rows being the stacked clients' positions in `active` and
    operators the stack's models.ridge_operators (A, b) for a ridge cohort,
    else None.
    """

    active: tuple[int, ...]
    weights: np.ndarray
    stacks: tuple[tuple, ...]


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """One aggregation round: model before, local models, model after.

    client_models[i] is the local model of client active[i]; weights are the
    cohort's, one per federation client, which the round aggregated with.
    """

    round_index: int
    global_before: Params
    active: tuple[int, ...]
    client_models: np.ndarray
    global_after: Params
    weights: np.ndarray


def local_updates(
    spec: ModelSpec,
    features: np.ndarray,
    targets: np.ndarray,
    theta: Params,
    eta: float,
    local_steps: int,
    round_index: int | None = None,
) -> np.ndarray:
    """Run `local_steps` gradient steps from theta on each stacked client.

    One kernel call and one divergence check per step; returns (g, p).
    """
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1")
    current = np.repeat(models.as_params(theta)[None], features.shape[0], axis=0)
    for _ in range(local_steps):
        current = current - eta * models.stacked_grad(spec, features, targets, current)
        _guard_finite(current, round_index)
    return current


def _guard_finite(rows: np.ndarray, round_index: int | None = None) -> None:
    # an inf or nan entry makes its row's norm non-finite, which fails the comparison
    if not (models.norms(rows) <= _DIVERGENCE_NORM).all():
        raise DivergedTrainingError(
            "training diverged: parameter vector is non-finite or exceeds norm 1e8",
            round_index=round_index,
        )


def aggregate(client_models, weights) -> Params:
    """Weighted sum of the client models (rows), added in row order."""
    client_models = np.asarray(client_models, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if client_models.shape[:1] != weights.shape:
        raise DimensionMismatchError(
            f"{client_models.shape[0]} models vs {weights.shape[0]} weights"
        )
    if not client_models.size:
        raise EmptyFederationError("cannot aggregate zero models")
    if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"aggregation weights sum to {weights.sum()!r}, expected 1")
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


def fedavg_round(
    spec: ModelSpec, config: FederationConfig, theta: Params, cohort: Cohort, round_index: int
) -> RoundRecord:
    """One FedAvg round over a cohort of `config`'s clients."""
    theta = models.as_params(theta)
    client_models = np.empty((len(cohort.active), theta.shape[0]))
    for rows, features, targets, operators in cohort.stacks:
        if operators is None:
            local = local_updates(spec, features, targets, theta, config.eta, config.local_steps, round_index)
        else:
            maps, offsets = operators
            local = maps @ theta + offsets
            _guard_finite(local, round_index)
        client_models[rows] = local
    new_theta = aggregate(client_models, cohort.weights[list(cohort.active)])
    _guard_finite(new_theta[None], round_index)
    return RoundRecord(round_index, theta.copy(), cohort.active, client_models, new_theta, cohort.weights)


def init_params(spec: ModelSpec, seed: int, mode: str = "normal") -> Params:
    """Initial global model: seeded 0.01-scaled normal vector or zeros."""
    if mode == "zeros":
        return np.zeros(spec.param_count)
    if mode == "normal":
        return 0.01 * np.random.default_rng(seed).standard_normal(spec.param_count)
    raise ValueError(f"unknown init mode {mode!r}")


def federation_loss(spec: ModelSpec, config: FederationConfig, theta: Params, cohort: Cohort) -> float:
    """Aggregation-weighted loss of theta over a cohort of `config`'s clients."""
    theta = models.as_params(theta)
    losses = np.empty(len(cohort.active))
    for rows, features, targets, _ in cohort.stacks:
        thetas = np.broadcast_to(theta, (len(rows), theta.shape[0]))
        losses[rows] = models.stacked_loss(spec, features, targets, thetas)
    return float(np.add.accumulate(cohort.weights[list(cohort.active)] * losses)[-1])


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
