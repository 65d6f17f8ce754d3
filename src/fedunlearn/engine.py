"""Deterministic FedAvg: local full-batch GD, weighted aggregation, checkpoints.

Determinism contract: client updates run in ascending client-index order and
the aggregation is a sequential weighted sum in that same order, so repeated
runs on the same platform are bit-identical.
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
from .models import ClientDataset, ModelSpec, Params

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


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """One aggregation round: model before, per-client local models, model after."""

    round_index: int
    global_before: Params
    client_models: dict[int, Params]
    global_after: Params


def local_update(
    spec: ModelSpec,
    data: ClientDataset,
    theta: Params,
    eta: float,
    local_steps: int,
) -> Params:
    """Run `local_steps` gradient steps on one client's loss from theta."""
    if local_steps < 1:
        raise ValueError("local_steps must be >= 1")
    current = models.as_params(theta).copy()
    for _ in range(local_steps):
        current = current - eta * models.grad(spec, data, current)
        _guard_finite(current)
    return current


def _guard_finite(theta: Params, round_index: int | None = None) -> None:
    if not np.all(np.isfinite(theta)) or float(np.linalg.norm(theta)) > _DIVERGENCE_NORM:
        raise DivergedTrainingError(
            "training diverged: parameter vector is non-finite or exceeds norm 1e8",
            round_index=round_index,
        )


def aggregate(client_models, weights) -> Params:
    """Weighted sum of client models, accumulated in the given (ascending) order."""
    client_models = list(client_models)
    weights = np.asarray(weights, dtype=np.float64)
    if len(client_models) != weights.shape[0]:
        raise DimensionMismatchError(
            f"{len(client_models)} models vs {weights.shape[0]} weights"
        )
    if not client_models:
        raise EmptyFederationError("cannot aggregate zero models")
    if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"aggregation weights sum to {weights.sum()!r}, expected 1")
    total = np.zeros_like(np.asarray(client_models[0], dtype=np.float64))
    for model, weight in zip(client_models, weights):
        model = np.asarray(model, dtype=np.float64)
        if model.shape != total.shape:
            raise DimensionMismatchError("client models have mismatched shapes")
        total = total + weight * model
    return total


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
    try:
        client_models = {
            idx: local_update(spec, config.clients[idx], theta, config.eta, config.local_steps)
            for idx in active
        }
    except DivergedTrainingError as err:
        if err.round_index is None:
            err.round_index = round_index
        raise
    new_theta = aggregate([client_models[i] for i in active], q[list(active)])
    _guard_finite(new_theta, round_index)
    return RoundRecord(round_index, theta.copy(), client_models, new_theta)


def init_params(spec: ModelSpec, seed: int, mode: str = "normal") -> Params:
    """Initial global model: seeded 0.01-scaled normal vector or zeros."""
    if mode == "zeros":
        return np.zeros(spec.param_count)
    if mode == "normal":
        return 0.01 * np.random.default_rng(seed).standard_normal(spec.param_count)
    raise ValueError(f"unknown init mode {mode!r}")


def federation_loss(
    spec: ModelSpec,
    clients,
    weights,
    theta: Params,
    active: tuple[int, ...] | None = None,
) -> float:
    """Aggregation-weighted loss over the active clients (all by default)."""
    clients = list(clients)
    weights = np.asarray(weights, dtype=np.float64)
    if active is None:
        active = tuple(range(len(clients)))
    active = tuple(sorted(active))
    removed = set(range(len(clients))) - set(active)
    q = renormalized_weights(weights, removed) if removed else weights
    return float(sum(q[i] * models.loss(spec, clients[i], theta) for i in active))


# ---------------------------------------------------------------------------
# checkpoint files: magic, round index, dimension, config hash, raw values
# ---------------------------------------------------------------------------


def write_checkpoint(path, round_index: int, values: Params, config_hash: bytes) -> None:
    """Binary model checkpoint: little-endian float64 values plus metadata."""
    values = models.as_params(values)
    if len(config_hash) != 32:
        raise ValueError("config_hash must be a 32-byte digest")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<qq", int(round_index), values.shape[0]))
        fh.write(bytes(config_hash))
        fh.write(values.astype("<f8").tobytes())


def read_checkpoint(path) -> tuple[int, Params, bytes]:
    """Inverse of write_checkpoint; validates magic and length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    round_index, dim = struct.unpack("<qq", blob[4:20])
    digest = blob[20:52]
    expected = 52 + 8 * dim
    if len(blob) != expected:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} vs {expected} bytes)")
    values = np.frombuffer(blob[52:], dtype="<f8").astype(np.float64)
    return round_index, values, digest
