"""Deterministic FedAvg: local full-batch GD, weighted aggregation, checkpoints.

A round advances every active client at once: clients of one data shape are
stacked, and each local step is one call of the models kernel on the stack.
For ridge, a stack with d <= n also carries its clients' moments
(models.ridge_moments), built once per data-shape group on first ridge use,
so a local step multiplies one d x d matrix per client instead of passing
twice over its n x d features.

Determinism contract: a round equals the per-client loop it replaces bit for
bit, and repeated runs on the same platform are bit-identical.  Each stacked
product is one BLAS call per client slice (see models), so client i's local
model does not depend on which other clients share its stack.  The
aggregation is np.add.accumulate along the client axis: the sequential sum
q_0 theta_0 + q_1 theta_1 + ... in ascending client order, never a pairwise
or BLAS reduction.
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
    """Static description of one federation run.

    weights must sum to 1 within 1e-12; by default they are proportional to
    the client sample counts.
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
        object.__setattr__(self, "_moments", None)
        object.__setattr__(self, "_last_stacks", (None, []))

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

    def stacked(self, active, spec: ModelSpec) -> list[tuple]:
        """The active clients' data, one stack per data shape, for `spec`'s kernel.

        `active` is ascending.  Each entry is (rows, features, targets,
        moments): rows are the positions in `active` of the stacked clients,
        features is (g, n, d) and targets (g, n).  moments is the stack's
        models.ridge_moments for a ridge spec, and None for other kinds.  The
        moments of each data-shape group are built on the first ridge call;
        a stack of some of its clients takes their rows of them.  The stacks
        of the last active set are kept and handed out again while it
        repeats, as it does round after round of a retraining run; callers
        must not write to them.
        """
        ridge = spec.kind is ModelKind.RIDGE
        key = (ridge, tuple(active))
        if key == self._last_stacks[0]:
            return self._last_stacks[1]
        # dropped first, so two active sets' copies are never held at once
        object.__setattr__(self, "_last_stacks", (None, []))
        if ridge and self._moments is None:
            object.__setattr__(self, "_moments", [models.ridge_moments(X, y) for _, X, y in self._groups])
        group_moments = self._moments if ridge else [None] * len(self._groups)
        active = np.asarray(key[1], dtype=np.int64)
        chosen = np.zeros(self.client_count, dtype=bool)
        chosen[active] = True
        stacks = []
        for (members, features, targets), moments in zip(self._groups, group_moments):
            keep = chosen[members]
            if not keep.any():
                continue
            if not keep.all():
                members, features, targets = members[keep], features[keep], targets[keep]
                if moments is not None:
                    moments = tuple(m[keep] for m in moments)
            stacks.append((np.searchsorted(active, members), features, targets, moments))
        object.__setattr__(self, "_last_stacks", (key, stacks))
        return stacks


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """One aggregation round: model before, local models, model after.

    client_models[i] is the local model of client active[i].
    """

    round_index: int
    global_before: Params
    active: tuple[int, ...]
    client_models: np.ndarray
    global_after: Params


def local_updates(
    spec: ModelSpec,
    features: np.ndarray,
    targets: np.ndarray,
    theta: Params,
    eta: float,
    local_steps: int,
    round_index: int | None = None,
    moments=None,
) -> np.ndarray:
    """Run `local_steps` gradient steps from theta on each stacked client.

    One kernel call and one divergence check per step; returns (g, p).
    `moments` are the stack's models.ridge_moments, if the caller holds them.
    """
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1")
    current = np.repeat(models.as_params(theta)[None], features.shape[0], axis=0)
    for _ in range(local_steps):
        current = current - eta * models.stacked_grad(spec, features, targets, current, moments)
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
    spec: ModelSpec,
    config: FederationConfig,
    theta: Params,
    active: tuple[int, ...],
    round_index: int,
) -> RoundRecord:
    """One FedAvg round over the active client subset."""
    active = tuple(sorted(active))
    if not active:
        raise EmptyFederationError("round needs at least one active client")
    removed = set(range(config.client_count)) - set(active)
    q = renormalized_weights(config.weights, removed)
    theta = models.as_params(theta)
    client_models = np.empty((len(active), theta.shape[0]))
    for rows, features, targets, moments in config.stacked(active, spec):
        client_models[rows] = local_updates(
            spec, features, targets, theta, config.eta, config.local_steps, round_index, moments
        )
    new_theta = aggregate(client_models, q[list(active)])
    _guard_finite(new_theta[None], round_index)
    return RoundRecord(round_index, theta.copy(), active, client_models, new_theta)


def init_params(spec: ModelSpec, seed: int, mode: str = "normal") -> Params:
    """Initial global model: seeded 0.01-scaled normal vector or zeros."""
    if mode == "zeros":
        return np.zeros(spec.param_count)
    if mode == "normal":
        return 0.01 * np.random.default_rng(seed).standard_normal(spec.param_count)
    raise ValueError(f"unknown init mode {mode!r}")


def federation_loss(
    spec: ModelSpec,
    config: FederationConfig,
    theta: Params,
    active: tuple[int, ...] | None = None,
) -> float:
    """Aggregation-weighted loss over the active clients (all by default)."""
    if active is None:
        active = range(config.client_count)
    active = tuple(sorted(active))
    removed = set(range(config.client_count)) - set(active)
    q = renormalized_weights(config.weights, removed)
    theta = models.as_params(theta)
    losses = np.empty(len(active))
    for rows, features, targets, _ in config.stacked(active, spec):
        thetas = np.broadcast_to(theta, (len(rows), theta.shape[0]))
        losses[rows] = models.stacked_loss(spec, features, targets, thetas)
    return float(np.add.accumulate(q[list(active)] * losses)[-1])


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
