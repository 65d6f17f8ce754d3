"""Deterministic federated averaging with certified client unlearning.

Train a small federation while keeping a per-client ledger of bounded model
sensitivity; honour unlearning requests by rolling back to a certified
checkpoint, adding calibrated Gaussian noise, and retraining; verify the
certificates by brute-force retraining without the client.
"""

__version__ = "0.1.0"

from .datagen import DataRecipe, generate_data
from .engine import FederationConfig
from .history import TrainingHistory
from .models import ClientDataset, ModelKind, ModelSpec, Regime, RegimeConstants, regime_constants
from .oracle import check_bound, empirical_sensitivity
from .sensitivity import (
    NoiseBudget,
    SensitivityLedger,
    contraction_factor,
    noise_std,
    psi_star,
)
from .unlearn import (
    StoppingRule,
    UnlearningOutcome,
    UnlearningRequest,
    UnlearningState,
    sifu,
)

__all__ = [
    "__version__",
    "ClientDataset",
    "DataRecipe",
    "FederationConfig",
    "ModelKind",
    "ModelSpec",
    "NoiseBudget",
    "Regime",
    "RegimeConstants",
    "SensitivityLedger",
    "StoppingRule",
    "TrainingHistory",
    "UnlearningOutcome",
    "UnlearningRequest",
    "UnlearningState",
    "check_bound",
    "contraction_factor",
    "empirical_sensitivity",
    "generate_data",
    "noise_std",
    "psi_star",
    "regime_constants",
    "sifu",
]
