"""Synthetic federated data with a tunable client-heterogeneity knob.

A federation's data is one stack, features (C, n, d) and targets (C, n),
and generate_data fills it client by client.  Every client sees the same
ground-truth parameter plus a private shift whose scale is the
heterogeneity knob.  All random draws happen in a fixed order that does not
depend on the knob, so sweeping the knob moves the per-client optima apart
without reshuffling anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataRecipe:
    clients: int
    samples_per_client: int
    features: int
    heterogeneity: float
    seed: int
    task: str = "regression"  # "regression" | "classification"
    noise: float = 0.1

    def __post_init__(self):
        if self.clients < 2:
            raise ValueError("need at least two clients")
        if self.samples_per_client < 1:
            raise ValueError("need at least one sample per client")
        if self.features < 1:
            raise ValueError("need at least one feature")
        # written so that NaN and infinity fail too
        if not 0 <= self.heterogeneity < math.inf:
            raise ValueError(f"heterogeneity must be finite and non-negative, got {self.heterogeneity!r}")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and non-negative, got {self.noise!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")


def generate_data(recipe: DataRecipe) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-seed stack of the clients' data: features (C, n, d)
    and targets (C, n), client i drawn after client i - 1."""
    rng = np.random.default_rng(recipe.seed)
    truth = rng.standard_normal(recipe.features)
    shifts = rng.standard_normal((recipe.clients, recipe.features))
    n = recipe.samples_per_client
    features = np.empty((recipe.clients, n, recipe.features))
    targets = np.empty((recipe.clients, n))
    for i in range(recipe.clients):
        local_truth = truth + recipe.heterogeneity * shifts[i]
        rng.standard_normal(out=features[i])
        raw = features[i] @ local_truth
        if recipe.task == "regression":
            targets[i] = raw + recipe.noise * rng.standard_normal(n)
        else:
            # label = 1 with the logistic probability of the local score
            probs = 0.5 * (1.0 + np.tanh(0.5 * raw))
            targets[i] = rng.random(n) < probs
    return features, targets
