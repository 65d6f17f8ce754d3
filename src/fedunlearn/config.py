"""Experiment configuration files: strict JSON schema, exact round-trip.

One JSON object describes a full experiment.  Unknown keys anywhere are
errors, required keys must be present, no number may be NaN (an infinite
one goes on to the checks of the value it sets), and the step size may be
given either as a number or as one of the symbolic forms "1/beta",
"2/beta", "2/(beta+mu)" resolved against the computed curvature constants.
A budget may carry an explicit psi_star, which is validated against the
value derived from (epsilon, delta, sigma); the derivation wins.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .datagen import DataRecipe
from .errors import ConfigError
from .models import ModelKind, ModelSpec, RegimeConstants
from .sensitivity import NoiseBudget
from .unlearn import StoppingRule

_ETA_FORMS = ("1/beta", "2/beta", "2/(beta+mu)")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: ModelSpec
    data: DataRecipe
    eta: float | str
    local_steps: int
    rounds: int
    federation_seed: int
    init: str
    weights: tuple[float, ...] | None
    budget: NoiseBudget
    requests: tuple[tuple[int, ...], ...]
    stopping: StoppingRule

    def __post_init__(self):
        if not self.name or any(ch in self.name for ch in "/\\ "):
            raise ConfigError(f"config name {self.name!r} must be a path-safe token")
        if isinstance(self.eta, str) and self.eta not in _ETA_FORMS:
            raise ConfigError(f"symbolic eta must be one of {_ETA_FORMS}, got {self.eta!r}")
        if not isinstance(self.eta, str) and self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.init not in ("zeros", "normal"):
            raise ConfigError(f"init must be 'zeros' or 'normal', got {self.init!r}")
        if self.local_steps < 1:
            raise ConfigError("local_steps must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.weights is not None:
            if len(self.weights) != self.data.clients:
                raise ConfigError("weights length must match the client count")
            if not all(w >= 0 for w in self.weights):
                raise ConfigError("weights must be non-negative")
            if not abs(sum(self.weights) - 1.0) <= 1e-12:
                raise ConfigError("weights must sum to 1 within 1e-12")
        # a client of zero weight moves no aggregate, and one client alone has no run without it to certify
        positive = {c for c, w in enumerate(self.weights or (1.0,) * self.data.clients) if w > 0}
        if len(positive) < 2:
            raise ConfigError("at least two clients must carry positive weight")
        named: set[int] = set()
        for req in self.requests:
            if not req:
                raise ConfigError("each request must name at least one client")
            for c in req:
                if not 0 <= c < self.data.clients:
                    raise ConfigError(f"request names unknown client {c}")
            repeated = named.intersection(req)
            if repeated:
                raise ConfigError(f"clients {sorted(repeated)} are named by more than one request")
            named.update(req)
        if positive <= named:
            raise ConfigError("requests would remove every client of positive weight from the federation")

    def resolve_eta(self, constants: RegimeConstants) -> float:
        if isinstance(self.eta, str):
            if self.eta == "1/beta":
                return 1.0 / constants.beta
            if self.eta == "2/beta":
                return 2.0 / constants.beta
            return 2.0 / (constants.beta + constants.mu)
        return float(self.eta)


def _take(obj: dict, context: str, required: dict, optional: dict | None = None) -> dict:
    """Pull typed keys out of a JSON object; unknown or missing keys are errors."""
    optional = optional or {}
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")
    out = {}
    for key, kind in required.items():
        out[key] = _coerce(obj[key], kind, f"{context}.{key}")
    for key, kind in optional.items():
        if key in obj:
            out[key] = _coerce(obj[key], kind, f"{context}.{key}")
    return out


def _coerce(value, kind, context):
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{context}: expected an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
            raise ConfigError(f"{context}: expected a number, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{context}: expected a string, got {value!r}")
        return value
    if kind == "float_or_str":
        if isinstance(value, str):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
            raise ConfigError(f"{context}: expected a number or symbolic form, got {value!r}")
        return float(value)
    if kind == "obj":
        if not isinstance(value, dict):
            raise ConfigError(f"{context}: expected an object, got {value!r}")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{context}: expected a list, got {value!r}")
        return value
    raise AssertionError(f"unknown coercion kind {kind}")


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = _take(
        raw,
        "config",
        required={
            "name": "str",
            "model": "obj",
            "data": "obj",
            "federation": "obj",
            "budget": "obj",
            "checkpoint_interval": "int",
            "requests": "list",
            "stopping": "obj",
        },
    )
    # train keeps every round's model; the key stays so configs and digests keep their bytes
    if top["checkpoint_interval"] != 1:
        raise ConfigError(
            f"checkpoint_interval must be 1 (train keeps every round's model), got {top['checkpoint_interval']}"
        )

    model_raw = _take(
        top["model"], "model", required={"kind": "str", "dims": "list"}, optional={"l2": "float"}
    )
    try:
        kind = ModelKind(model_raw["kind"])
    except ValueError as err:
        raise ConfigError(f"model.kind: unknown kind {model_raw['kind']!r}") from err
    dims = tuple(_coerce(d, "int", "model.dims[]") for d in model_raw["dims"])
    try:
        model = ModelSpec(kind, dims, model_raw.get("l2", 0.0))
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err

    data_raw = _take(
        top["data"],
        "data",
        required={
            "clients": "int",
            "samples_per_client": "int",
            "features": "int",
            "heterogeneity": "float",
            "seed": "int",
        },
        optional={"noise": "float"},
    )
    task = "classification" if kind is ModelKind.LOGISTIC else "regression"
    try:
        data = DataRecipe(task=task, **data_raw)
    except ValueError as err:
        raise ConfigError(f"data: {err}") from err
    if data.features != dims[0]:
        raise ConfigError(
            f"data.features = {data.features} must equal the model input dimension {dims[0]}"
        )

    fed_raw = _take(
        top["federation"],
        "federation",
        required={"eta": "float_or_str", "local_steps": "int", "rounds": "int", "seed": "int"},
        optional={"init": "str", "weights": "list"},
    )
    weights = fed_raw.get("weights")
    if weights is not None:
        weights = tuple(_coerce(w, "float", "federation.weights[]") for w in weights)

    budget_raw = _take(
        top["budget"],
        "budget",
        required={"epsilon": "float", "delta": "float", "sigma": "float"},
        optional={"psi_star": "float"},
    )
    try:
        budget = NoiseBudget(budget_raw["epsilon"], budget_raw["delta"], budget_raw["sigma"])
    except ValueError as err:
        raise ConfigError(f"budget: {err}") from err
    if "psi_star" in budget_raw:
        stored = budget_raw["psi_star"]
        if abs(stored - budget.psi_star) > 1e-12 * max(1.0, abs(budget.psi_star)):
            raise ConfigError(
                f"budget.psi_star = {stored!r} disagrees with the derived value {budget.psi_star!r}"
            )

    requests = []
    for i, req in enumerate(top["requests"]):
        req = _coerce(req, "list", f"requests[{i}]")
        requests.append(tuple(_coerce(c, "int", f"requests[{i}][]") for c in req))

    stop_raw = _take(
        top["stopping"],
        "stopping",
        required={"loss_threshold": "float_or_str", "min_rounds": "int", "max_rounds": "int"},
    )
    threshold = stop_raw["loss_threshold"]
    if isinstance(threshold, str):
        if threshold != "inf":
            raise ConfigError(f"stopping.loss_threshold: expected a number or 'inf', got {threshold!r}")
        threshold = math.inf
    try:
        stopping = StoppingRule(threshold, stop_raw["min_rounds"], stop_raw["max_rounds"])
    except ValueError as err:
        raise ConfigError(f"stopping: {err}") from err

    try:
        return ExperimentConfig(
            name=top["name"],
            model=model,
            data=data,
            eta=fed_raw["eta"],
            local_steps=fed_raw["local_steps"],
            rounds=fed_raw["rounds"],
            federation_seed=fed_raw["seed"],
            init=fed_raw.get("init", "zeros"),
            weights=weights,
            budget=budget,
            requests=tuple(requests),
            stopping=stopping,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON text; parse_config(serialize_config(c)) == c."""
    threshold = config.stopping.loss_threshold
    doc = {
        "name": config.name,
        "model": {
            "kind": config.model.kind.value,
            "dims": list(config.model.dims),
            "l2": config.model.l2,
        },
        "data": {
            "clients": config.data.clients,
            "samples_per_client": config.data.samples_per_client,
            "features": config.data.features,
            "heterogeneity": config.data.heterogeneity,
            "seed": config.data.seed,
            "noise": config.data.noise,
        },
        "federation": {
            "eta": config.eta,
            "local_steps": config.local_steps,
            "rounds": config.rounds,
            "seed": config.federation_seed,
            "init": config.init,
            **({"weights": list(config.weights)} if config.weights is not None else {}),
        },
        "budget": {
            "epsilon": config.budget.epsilon,
            "delta": config.budget.delta,
            "sigma": config.budget.sigma,
        },
        "checkpoint_interval": 1,
        "requests": [list(req) for req in config.requests],
        "stopping": {
            "loss_threshold": "inf" if math.isinf(threshold) else threshold,
            "min_rounds": config.stopping.min_rounds,
            "max_rounds": config.stopping.max_rounds,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def config_hash(config: ExperimentConfig) -> bytes:
    """sha256 digest of the canonical serialisation."""
    return hashlib.sha256(serialize_config(config).encode()).digest()
