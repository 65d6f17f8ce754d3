"""Model zoo: losses, gradients, and curvature constants.

Every model exposes its parameters as a single flat float64 vector so the
federated engine and the sensitivity ledger can treat models as points in
R^d.  The per-client objective is always

    F(theta) = mean_i per_sample_loss_i(theta) + (l2 / 2) * ||theta||^2

so the regulariser is part of every loss and gradient evaluated here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Flat parameter vectors; helpers below validate dtype/shape.
Params = np.ndarray

_MAX_PARAMS = 10_000
_PROBE_PAIRS = 256
_PROBE_SEED = 52_021
_PROBE_SAFETY = 1.5


class ModelKind(str, enum.Enum):
    RIDGE = "ridge"
    LOGISTIC = "logistic"
    TINY_MLP = "tiny_mlp"


class Regime(str, enum.Enum):
    SMOOTH = "smooth"
    CONVEX = "convex"
    STRONGLY_CONVEX = "strongly_convex"


def as_params(theta) -> Params:
    """Coerce to a 1-D float64 vector without copying when possible."""
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"parameters must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One client's local data: features (n, d) and targets (n,)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        # C order, as in a stacked array, so one client and its stack slice
        # make the same BLAS calls
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        targs = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionMismatchError(f"features must be 2-D, got shape {feats.shape}")
        if targs.ndim != 1:
            raise DimensionMismatchError(f"targets must be 1-D, got shape {targs.shape}")
        if feats.shape[0] != targs.shape[0]:
            raise DimensionMismatchError(
                f"{feats.shape[0]} feature rows vs {targs.shape[0]} targets"
            )
        if feats.shape[0] < 1:
            raise ValueError("client dataset needs at least one sample")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Which model to train.

    dims: layer sizes.  For ridge/logistic this is (d_in,).  For tiny_mlp it
    is (d_in, hidden..., 1) with at most three weight layers and a linear
    scalar output; hidden activations are tanh.
    l2: regularisation strength (lambda >= 0), applied to the full vector.
    """

    kind: ModelKind
    dims: tuple[int, ...]
    l2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "l2", float(self.l2))
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"layer sizes must be positive, got {self.dims}")
        if self.kind in (ModelKind.RIDGE, ModelKind.LOGISTIC):
            if len(self.dims) != 1:
                raise ValueError(f"{self.kind.value} expects dims=(d_in,), got {self.dims}")
        else:
            if not 3 <= len(self.dims) <= 4:
                raise ValueError("tiny_mlp needs 2 or 3 weight layers")
            if self.dims[-1] != 1:
                raise ValueError("tiny_mlp output dimension must be 1")
        if self.param_count > _MAX_PARAMS:
            raise ValueError(f"{self.param_count} parameters exceeds the {_MAX_PARAMS} cap")

    @property
    def param_count(self) -> int:
        if self.kind in (ModelKind.RIDGE, ModelKind.LOGISTIC):
            return self.dims[0]
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.dims, self.dims[1:]))


@dataclass(frozen=True)
class RegimeConstants:
    """Curvature envelope of a federation: regime plus (beta, mu, lam)."""

    regime: Regime
    beta: float
    mu: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "regime", Regime(self.regime))
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lam must be non-negative")
        if self.regime is Regime.STRONGLY_CONVEX:
            if not 0 < self.mu <= self.beta * (1 + 1e-12):
                raise ValueError(f"strongly convex regime needs 0 < mu <= beta, got mu={self.mu}")
        elif self.mu != 0.0:
            raise ValueError(f"{self.regime.value} regime must carry mu = 0, got mu={self.mu}")


# ---------------------------------------------------------------------------
# loss / gradient: one stacked kernel, a lone client is a stack of one
# ---------------------------------------------------------------------------
#
# The kernel takes m clients of one sample count at once: features (m, n, d),
# targets (m, n) and parameters (m, p).  Every product is a stacked np.matmul,
# which makes one BLAS call per slice with that slice's own strides, and every
# mean runs along the contiguous sample axis of each slice, so row i equals
# the result for client i alone bit for bit.
#
# The ridge gradient is X_i^T (X_i theta_i - y_i) / n: two (n, d) gemvs.  The
# engine calls it only for stacks with d > n; a stack with d <= n advances by
# its K-step operators (ridge_operators) instead, built once per federation
# and l2, so a round multiplies one d x d matrix per client in place of K
# kernel calls.


def stacked_loss(spec: ModelSpec, features, targets, thetas) -> np.ndarray:
    """Regularised per-sample-mean loss of each thetas[i] on client i, shape (m,)."""
    thetas = _checked(spec, features, thetas)
    return _data_loss(spec, features, targets, thetas) + 0.5 * spec.l2 * _sqnorms(thetas)


def stacked_grad(spec: ModelSpec, features, targets, thetas) -> np.ndarray:
    """Gradient of stacked_loss for each client, shape (m, p)."""
    thetas = _checked(spec, features, thetas)
    if spec.kind is ModelKind.RIDGE:
        g = _ridge_data_grad(features, targets, thetas)
    elif spec.kind is ModelKind.LOGISTIC:
        g = _logistic_data_grad(features, targets, thetas)
    else:
        g = _mlp_data_grad(spec, features, targets, thetas)
    return g + spec.l2 * thetas


def norms(rows) -> np.ndarray:
    """Euclidean norm of each row; equals np.linalg.norm(row) bit for bit."""
    return np.sqrt(_sqnorms(rows))


def loss(spec: ModelSpec, data: ClientDataset, theta: Params) -> float:
    """Regularised per-sample-mean loss of theta on one client's data."""
    return float(stacked_loss(spec, *_one(data, theta))[0])


def data_loss(spec: ModelSpec, data: ClientDataset, theta: Params) -> float:
    """Unregularised data term only (reporting metric)."""
    features, targets, thetas = _one(data, theta)
    return float(_data_loss(spec, features, targets, _checked(spec, features, thetas))[0])


def accuracy(spec: ModelSpec, data: ClientDataset, theta: Params) -> float:
    """Fraction of correct 0/1 predictions; logistic models only."""
    if spec.kind is not ModelKind.LOGISTIC:
        raise ValueError("accuracy is defined for logistic models only")
    features, _, thetas = _one(data, theta)
    theta = _checked(spec, features, thetas)[0]
    predicted = data.features @ theta > 0.0
    return float(np.mean(predicted == (data.targets > 0.5)))


def _one(data: ClientDataset, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return data.features[None], data.targets[None], as_params(theta)[None]


def _checked(spec: ModelSpec, features: np.ndarray, thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape[1] != spec.param_count:
        raise DimensionMismatchError(
            f"theta has {thetas.shape[1]} entries, spec expects {spec.param_count}"
        )
    if features.shape[2] != spec.dims[0]:
        raise DimensionMismatchError(
            f"data has {features.shape[2]} features, spec expects {spec.dims[0]}"
        )
    return thetas


def _sqnorms(rows: np.ndarray) -> np.ndarray:
    # a (1, p) @ (p, 1) slice is the same BLAS dot that theta @ theta makes
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrices[i] @ vectors[i] for every i: one gemv per slice."""
    return np.matmul(matrices, vectors[:, :, None])[:, :, 0]


def _data_loss(spec: ModelSpec, X: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    if spec.kind is ModelKind.RIDGE:
        return 0.5 * np.mean((_matvec(X, thetas) - y) ** 2, axis=1)
    if spec.kind is ModelKind.LOGISTIC:
        z = _matvec(X, thetas)
        # mean of softplus(z) - y*z, stable for large |z|
        return np.mean(np.logaddexp(0.0, z) - y * z, axis=1)
    pred, _, _ = _mlp_forward(spec, X, thetas)
    return 0.5 * np.mean((pred - y) ** 2, axis=1)


# -- ridge ------------------------------------------------------------------


def ridge_operators(spec: ModelSpec, X: np.ndarray, y: np.ndarray, eta: float, steps: int):
    """K = `steps` local gradient steps of each stacked ridge client as one
    affine map theta -> A_i theta + b_i, returned as (A (g, d, d), b (g, d)),
    or None for a stack with d > n, whose operators outsize its data.

    P_i = I - eta (X_i^T X_i / n + l2 I), A_i = P_i^K and
    b_i = sum_{k<K} P_i^k eta X_i^T y_i / n; A_i is symmetric, as P_i is.
    """
    if X.shape[2] != spec.dims[0]:
        raise DimensionMismatchError(f"data has {X.shape[2]} features, spec expects {spec.dims[0]}")
    n, d = X.shape[1:]
    if d > n:
        return None
    maps, offsets = np.empty((len(X), d, d)), np.empty((len(X), d))
    diagonal = np.arange(d)
    # a few clients at a time, each chunk's d x d matrices holding no more
    # values than one client's data, so no (g, d, d) array but A is built
    chunk = n // d
    for lo in range(0, len(X), chunk):
        part = slice(lo, lo + chunk)
        Xt = X[part].transpose(0, 2, 1)
        step = np.matmul(Xt, X[part]) * (-eta / n)
        step[:, diagonal, diagonal] += 1.0 - eta * spec.l2
        pull = _matvec(Xt, y[part]) * (eta / n)
        power, offset = step, pull
        for _ in range(steps - 1):
            power = np.matmul(step, power)
            offset = _matvec(step, offset) + pull
        maps[part], offsets[part] = power, offset
    return maps, offsets


def _ridge_data_grad(X: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    residual = _matvec(X, thetas) - y
    return _matvec(X.transpose(0, 2, 1), residual) / X.shape[1]


# -- logistic ---------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(z/2)) is an overflow-free identity for the logistic function
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _logistic_data_grad(X: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    z = _matvec(X, thetas)
    return _matvec(X.transpose(0, 2, 1), _sigmoid(z) - y) / X.shape[1]


# -- tiny MLP ---------------------------------------------------------------


def _mlp_unpack(spec: ModelSpec, thetas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stacked (W, b) views: W (m, fan_in, fan_out), b (m, 1, fan_out)."""
    m = thetas.shape[0]
    layers = []
    offset = 0
    for fan_in, fan_out in zip(spec.dims, spec.dims[1:]):
        w = thetas[:, offset : offset + fan_in * fan_out].reshape(m, fan_in, fan_out)
        offset += fan_in * fan_out
        b = thetas[:, None, offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _mlp_forward(spec: ModelSpec, X: np.ndarray, thetas: np.ndarray):
    layers = _mlp_unpack(spec, thetas)
    activations = [X]
    for w, b in layers[:-1]:
        activations.append(np.tanh(np.matmul(activations[-1], w) + b))
    w_out, b_out = layers[-1]
    pred = (np.matmul(activations[-1], w_out) + b_out)[:, :, 0]
    return pred, activations, layers


def _mlp_data_grad(spec: ModelSpec, X: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    pred, activations, layers = _mlp_forward(spec, X, thetas)
    delta = ((pred - y) / X.shape[1])[:, :, None]
    grads: list[np.ndarray] = []
    for level in range(len(layers) - 1, -1, -1):
        w, _ = layers[level]
        grads.append(delta.sum(axis=1))
        grads.append(np.matmul(activations[level].transpose(0, 2, 1), delta).reshape(X.shape[0], -1))
        if level > 0:
            delta = np.matmul(delta, w.transpose(0, 2, 1)) * (1.0 - activations[level] ** 2)
    # collected output layer first, bias before weights: reversed, W_0 b_0 W_1 b_1 ...
    return np.concatenate(grads[::-1], axis=1)


# ---------------------------------------------------------------------------
# curvature constants
# ---------------------------------------------------------------------------


def regime_constants(spec: ModelSpec, all_data: list[ClientDataset]) -> RegimeConstants:
    """Curvature envelope over every client in the federation.

    Ridge: exact Gram-matrix eigenvalues give beta_i = lmax(X_i^T X_i)/n_i + l2
    and mu_i = lmin(X_i^T X_i)/n_i + l2; the envelope takes max beta / min mu.
    Rank-deficient data degrades gracefully to mu = l2 (Convex when l2 = 0).

    Logistic: the per-sample Hessian is bounded by X^T X / (4 n), so
    beta = max_i lmax(X_i^T X_i)/(4 n_i) + l2, with mu = l2 when l2 > 0.

    Tiny MLP: smooth-only regime; beta is a probed estimate, the max finite
    difference ratio ||grad(a) - grad(b)|| / ||a - b|| over 256 seeded random
    pairs, inflated by a 1.5x safety factor.  The estimate is a heuristic and
    is labelled as such by the Smooth regime itself.
    """
    if not all_data:
        raise ValueError("need at least one client dataset")
    for data in all_data:
        if data.feature_dim != spec.dims[0]:
            raise DimensionMismatchError(
                f"client data has {data.feature_dim} features, spec expects {spec.dims[0]}"
            )
    lam = spec.l2
    if spec.kind is ModelKind.RIDGE:
        betas, mus = [], []
        for data in all_data:
            eigs = np.linalg.eigvalsh(data.features.T @ data.features)
            betas.append(max(float(eigs[-1]), 0.0) / data.sample_count + lam)
            mus.append(max(float(eigs[0]), 0.0) / data.sample_count + lam)
        beta, mu = max(betas), min(mus)
        if mu > 0:
            return RegimeConstants(Regime.STRONGLY_CONVEX, beta, mu, lam)
        return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)
    if spec.kind is ModelKind.LOGISTIC:
        beta = max(
            max(float(np.linalg.eigvalsh(d.features.T @ d.features)[-1]), 0.0)
            / (4.0 * d.sample_count)
            for d in all_data
        ) + lam
        if lam > 0:
            return RegimeConstants(Regime.STRONGLY_CONVEX, beta, lam, lam)
        return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)
    return RegimeConstants(Regime.SMOOTH, _probe_smoothness(spec, all_data), 0.0, lam)


def stack_by_shape(clients) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """One (members, features (g, n, d), targets (g, n)) group per data shape."""
    shapes: dict[tuple[int, int], list[int]] = {}
    for idx, data in enumerate(clients):
        shapes.setdefault(data.features.shape, []).append(idx)
    return tuple(
        (
            np.array(members),
            np.stack([clients[i].features for i in members]),
            np.stack([clients[i].targets for i in members]),
        )
        for members in shapes.values()
    )


def gradient_pairs(spec: ModelSpec, groups, seed: int, pairs: int):
    """Seeded theta = 0.5 N(0, I) and offset = 0.2 N(0, I), yielded with the
    stacked gradients at theta and theta + offset for each (features, targets)
    group in `groups`.  Each group's data is doubled once, so a pair costs one
    kernel call per group: the first copy at theta, the second at theta +
    offset.  Each row is the lone client's gradient bit for bit."""
    rng = np.random.default_rng(seed)
    d = spec.param_count
    doubled = [(np.concatenate((X, X)), np.concatenate((y, y))) for X, y in groups]
    for _ in range(pairs):
        theta = 0.5 * rng.standard_normal(d)
        offset = 0.2 * rng.standard_normal(d)
        points = np.array((theta, theta + offset))
        grads = []
        for X, y in doubled:
            g = len(X) // 2
            both = stacked_grad(spec, X, y, np.repeat(points, g, axis=0))
            grads.append((both[:g], both[g:]))
        yield theta, offset, grads


def _probe_smoothness(spec: ModelSpec, all_data: list[ClientDataset]) -> float:
    worst = 0.0
    groups = [(X, y) for _, X, y in stack_by_shape(all_data)]
    for _, offset, grads in gradient_pairs(spec, groups, _PROBE_SEED, _PROBE_PAIRS):
        gap = float(np.linalg.norm(offset))
        if gap == 0.0:
            continue
        for near, far in grads:
            worst = max(worst, float((norms(far - near) / gap).max()))
    return _PROBE_SAFETY * worst
