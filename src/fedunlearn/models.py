"""Model zoo: losses, gradients, and curvature constants.

Every model exposes its parameters as a single flat float64 vector so the
federated engine and the sensitivity ledger can treat models as points in
R^d.  The per-client objective is always

    F(theta) = mean_i per_sample_loss_i(theta) + (l2 / 2) * ||theta||^2

so the regulariser is part of every loss and gradient evaluated here.  A
federation's data is one stack, features (C, n, d) and targets (C, n)
(datagen.generate_data), and reaches the kernels as that stack or as rows of
it; one client's data is its rows, features (n, d) and targets (n,).
"""

from __future__ import annotations

import enum
import math
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
        # written so that NaN and infinity fail too
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2!r}")
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
# the result for client i alone bit for bit.  Each call also takes one theta
# (p,) shared by the whole stack, as the engine's retained loss and first
# local step of a logistic, MLP or d > n ridge cohort do: X @ theta is still
# one gemv per slice (one flat gemv over the reshaped stack would not be
# bit-identical), and ||theta||^2 is computed once.  The MLP broadcasts a
# shared theta to rows, where its products are not bit-identical otherwise.
# stacked_loss_and_grad returns both from one forward pass (X @ theta, or
# the MLP's activations); the three calls share one per-kind body,
# _data_terms, which computes only the terms asked for.
#
# The logistic data term is softplus(z) - y z, with softplus(z) = max(z, 0) +
# log1p(exp(-|z|)): the branch formula np.logaddexp(0, z) evaluates, through
# numpy's vectorised exp and log1p in place of its scalar libm calls.
#
# The ridge gradient is X_i^T (X_i theta_i - y_i) / n: two (n, d) gemvs.  The
# engine's rounds call it only for d > n; a ridge federation with d <= n
# advances by its K-step operators (ridge_operators) instead, built once per
# l2 from the stack's raw moments X_i^T X_i and X_i^T y_i (ridge_moments,
# built once per federation), so a round is one d x d product in place of K
# kernel calls.  The ridge loss is exactly quadratic, so a cohort with
# moments evaluates its retained loss from their weighted sum
# (engine.Cohort.quadratic) rather than the kernel: equal to the kernel's to
# rounding, at one kernel call per set of clients a federation runs.


def stacked_loss(spec: ModelSpec, features, targets, thetas) -> np.ndarray:
    """Regularised per-sample-mean loss of each client, shape (m,): client i at
    thetas[i] for rows (m, p), or every client at one shared theta (p,)."""
    thetas = _checked(spec, features, thetas)
    value, _ = _data_terms(spec, features, targets, thetas, with_grad=False)
    return value + 0.5 * spec.l2 * _sqnorms(thetas)


def stacked_grad(spec: ModelSpec, features, targets, thetas) -> np.ndarray:
    """Gradient of stacked_loss for each client, shape (m, p), at rows (m, p)
    or at one shared theta (p,)."""
    thetas = _checked(spec, features, thetas)
    _, gradient = _data_terms(spec, features, targets, thetas, with_loss=False)
    return gradient + spec.l2 * thetas


def stacked_loss_and_grad(spec: ModelSpec, features, targets, thetas) -> tuple[np.ndarray, np.ndarray]:
    """stacked_loss and stacked_grad from one forward pass, each equal to its
    own call bit for bit.  The engine's retained loss passes one shared
    float64 theta (p,), checked once per retraining run, so unlike the two
    calls above this one takes thetas and features as they are, unchecked."""
    value, gradient = _data_terms(spec, features, targets, thetas)
    return value + 0.5 * spec.l2 * _sqnorms(thetas), gradient + spec.l2 * thetas


def norms(rows) -> np.ndarray:
    """Euclidean norm of each row; equals np.linalg.norm(row) bit for bit."""
    return np.sqrt(_sqnorms(rows))


def data_loss(spec: ModelSpec, features, targets, theta: Params) -> float:
    """Unregularised data term of one client's rows, features (n, d) and
    targets (n,), at theta (reporting metric)."""
    thetas = _checked(spec, features[None], as_params(theta)[None])
    return float(_data_terms(spec, features[None], targets[None], thetas, with_grad=False)[0][0])


def accuracy(spec: ModelSpec, features, targets, theta: Params) -> float:
    """Fraction of correct 0/1 predictions on one client's rows; logistic
    models only."""
    if spec.kind is not ModelKind.LOGISTIC:
        raise ValueError("accuracy is defined for logistic models only")
    theta = _checked(spec, features[None], as_params(theta)[None])[0]
    predicted = features @ theta > 0.0
    return float(np.mean(predicted == (targets > 0.5)))


def _checked(spec: ModelSpec, features: np.ndarray, thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != spec.param_count:
        raise DimensionMismatchError(
            f"theta has shape {thetas.shape}, spec expects {spec.param_count} entries per row"
        )
    if features.shape[2] != spec.dims[0]:
        raise DimensionMismatchError(
            f"data has {features.shape[2]} features, spec expects {spec.dims[0]}"
        )
    return thetas


def _sqnorms(rows: np.ndarray) -> np.ndarray:
    # a (1, p) @ (p, 1) slice is the same BLAS dot that theta @ theta makes
    if rows.ndim == 1:
        return rows @ rows
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrices[i] @ vectors[i] for every i, or matrices[i] @ vectors for
    one shared vector: one gemv per slice."""
    if vectors.ndim == 1:
        return np.matmul(matrices, vectors)
    return np.matmul(matrices, vectors[:, :, None])[:, :, 0]


def _data_terms(spec: ModelSpec, X: np.ndarray, y: np.ndarray, thetas: np.ndarray, with_loss=True, with_grad=True):
    """(data loss (m,), data gradient (m, p)) of each client from one forward
    pass; a term not asked for is None."""
    n = X.shape[1]
    if spec.kind is ModelKind.TINY_MLP:
        pred, activations, layers = _mlp_forward(spec, X, np.broadcast_to(thetas, (len(X), thetas.shape[-1])))
        residual = pred - y
        value = 0.5 * _sample_mean(residual**2) if with_loss else None
        return value, _mlp_backward(activations, layers, residual / n) if with_grad else None
    z = _matvec(X, thetas)
    if spec.kind is ModelKind.RIDGE:
        slope = z - y  # the residual
        value = 0.5 * _sample_mean(slope**2) if with_loss else None
    else:
        # softplus(z) - y z, stable for large |z| (see above)
        value = _sample_mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z) if with_loss else None
        slope = _sigmoid(z) - y if with_grad else None
    return value, _matvec(X.transpose(0, 2, 1), slope) / n if with_grad else None


def _sample_mean(values: np.ndarray) -> np.ndarray:
    # what np.mean(values, axis=1) computes, bit for bit, without its dispatch
    return np.add.reduce(values, axis=1) / values.shape[1]


# -- ridge ------------------------------------------------------------------


def ridge_moments(X: np.ndarray, y: np.ndarray):
    """Raw moments of each stacked ridge client, (X_i^T X_i (g, d, d),
    X_i^T y_i (g, d)), or None for a stack with d > n, whose moments outsize
    its data.  Each slice is one BLAS call, so client i's moments do not
    depend on which other clients share its stack."""
    n, d = X.shape[1:]
    if d > n:
        return None
    Xt = X.transpose(0, 2, 1)
    return np.matmul(Xt, X), _matvec(Xt, y)


def ridge_operators(spec: ModelSpec, moments, samples: int, eta: float, steps: int):
    """K = `steps` local gradient steps of each stacked ridge client as one
    affine map theta -> A_i theta + b_i, returned as (A (g, d, d), b (g, d)),
    from the stack's ridge_moments and its sample count n.

    P_i = I - eta (X_i^T X_i / n + l2 I), A_i = P_i^K and
    b_i = sum_{k<K} P_i^k eta X_i^T y_i / n; A_i is symmetric, as P_i is.
    """
    gram, moment = moments
    d = gram.shape[2]
    if d != spec.dims[0]:
        raise DimensionMismatchError(f"data has {d} features, spec expects {spec.dims[0]}")
    step = gram * (-eta / samples)
    diagonal = np.arange(d)
    step[:, diagonal, diagonal] += 1.0 - eta * spec.l2
    pull = moment * (eta / samples)
    power, offset = step, pull
    for _ in range(steps - 1):
        power = np.matmul(step, power)
        offset = _matvec(step, offset) + pull
    return power, offset


# -- logistic ---------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(z/2)) is an overflow-free identity for the logistic function
    return 0.5 * (1.0 + np.tanh(0.5 * z))


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


def _mlp_backward(activations: list, layers: list, delta: np.ndarray) -> np.ndarray:
    """The data gradient from _mlp_forward's activations and layers and the
    output error delta = (pred - y) / n, (m, n)."""
    m = delta.shape[0]
    delta = delta[:, :, None]
    grads: list[np.ndarray] = []
    for level in range(len(layers) - 1, -1, -1):
        w, _ = layers[level]
        grads.append(delta.sum(axis=1))
        grads.append(np.matmul(activations[level].transpose(0, 2, 1), delta).reshape(m, -1))
        if level > 0:
            delta = np.matmul(delta, w.transpose(0, 2, 1)) * (1.0 - activations[level] ** 2)
    # collected output layer first, bias before weights: reversed, W_0 b_0 W_1 b_1 ...
    return np.concatenate(grads[::-1], axis=1)


# ---------------------------------------------------------------------------
# curvature constants
# ---------------------------------------------------------------------------


def regime_constants(spec: ModelSpec, features: np.ndarray, targets: np.ndarray) -> RegimeConstants:
    """Curvature envelope over every client of the stack, features (C, n, d)
    and targets (C, n).

    Ridge: exact Gram-matrix eigenvalues give beta_i = lmax(X_i^T X_i)/n + l2
    and mu_i = lmin(X_i^T X_i)/n + l2; the envelope takes max beta / min mu.
    Rank-deficient data degrades gracefully to mu = l2 (Convex when l2 = 0).

    Logistic: the per-sample Hessian is bounded by X^T X / (4 n), so
    beta = max_i lmax(X_i^T X_i)/(4 n) + l2, with mu = l2 when l2 > 0.

    Tiny MLP: smooth-only regime; beta is a probed estimate, the max finite
    difference ratio ||grad(a) - grad(b)|| / ||a - b|| over 256 seeded random
    pairs, inflated by a 1.5x safety factor.  The estimate is a heuristic and
    is labelled as such by the Smooth regime itself.
    """
    lam = spec.l2
    if spec.kind is ModelKind.TINY_MLP:
        return RegimeConstants(Regime.SMOOTH, _probe_smoothness(spec, features, targets), 0.0, lam)
    # eigenvalues of each client's X^T X, ascending, (C, d)
    eigs, n = np.linalg.eigvalsh(np.matmul(features.transpose(0, 2, 1), features)), features.shape[1]
    if spec.kind is ModelKind.RIDGE:
        beta = float((np.maximum(eigs[:, -1], 0.0) / n + lam).max())
        mu = float((np.maximum(eigs[:, 0], 0.0) / n + lam).min())
        if mu > 0:
            return RegimeConstants(Regime.STRONGLY_CONVEX, beta, mu, lam)
        return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)
    beta = float((np.maximum(eigs[:, -1], 0.0) / (4.0 * n)).max()) + lam
    if lam > 0:
        return RegimeConstants(Regime.STRONGLY_CONVEX, beta, lam, lam)
    return RegimeConstants(Regime.CONVEX, beta, 0.0, lam)


def gradient_pairs(spec: ModelSpec, features, targets, seed: int, pairs: int):
    """Seeded theta = 0.5 N(0, I) and offset = 0.2 N(0, I), yielded with the
    stacked gradients (near, far) of the clients (features, targets) at
    theta and theta + offset.  The data is doubled once, so a pair costs one
    kernel call: the first copy at theta, the second at theta + offset.
    Each row is the lone client's gradient bit for bit."""
    rng = np.random.default_rng(seed)
    d, g = spec.param_count, len(features)
    doubled = np.concatenate((features, features)), np.concatenate((targets, targets))
    for _ in range(pairs):
        theta = 0.5 * rng.standard_normal(d)
        offset = 0.2 * rng.standard_normal(d)
        both = stacked_grad(spec, *doubled, np.repeat(np.array((theta, theta + offset)), g, axis=0))
        yield theta, offset, both[:g], both[g:]


def _probe_smoothness(spec: ModelSpec, features: np.ndarray, targets: np.ndarray) -> float:
    worst = 0.0
    for _, offset, near, far in gradient_pairs(spec, features, targets, _PROBE_SEED, _PROBE_PAIRS):
        gap = float(np.linalg.norm(offset))
        if gap == 0.0:
            continue
        worst = max(worst, float((norms(far - near) / gap).max()))
    return _PROBE_SAFETY * worst
