"""Synthetic federated data with a tunable client-heterogeneity knob.

Every client sees the same ground-truth parameter plus a private shift whose
scale is the heterogeneity knob.  All random draws happen in a fixed order
that does not depend on the knob, so sweeping the knob moves the per-client
optima apart without reshuffling anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ClientDataset


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


def generate_data(recipe: DataRecipe) -> list[ClientDataset]:
    """Deterministic per-seed list of client datasets."""
    rng = np.random.default_rng(recipe.seed)
    truth = rng.standard_normal(recipe.features)
    shifts = rng.standard_normal((recipe.clients, recipe.features))
    datasets = []
    for i in range(recipe.clients):
        local_truth = truth + recipe.heterogeneity * shifts[i]
        features = rng.standard_normal((recipe.samples_per_client, recipe.features))
        raw = features @ local_truth
        if recipe.task == "regression":
            targets = raw + recipe.noise * rng.standard_normal(recipe.samples_per_client)
        else:
            # label = 1 with the logistic probability of the local score
            probs = 0.5 * (1.0 + np.tanh(0.5 * raw))
            targets = (rng.random(recipe.samples_per_client) < probs).astype(np.float64)
        datasets.append(ClientDataset(features, targets))
    return datasets
