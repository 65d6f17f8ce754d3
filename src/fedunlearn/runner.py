"""Experiment driver behind the CLI: train, unlearn, verify, report.

Artifact layout under $FEDUNLEARN_OUT (default ./runs), one directory per
config name:

    <run>/config.json                canonical config copy
    <run>/train/                     manifest, metrics.jsonl, ledger.csv,
                                     checkpoints/round_*.ckpt, timings.json
    <run>/unlearn_<method>/          manifest, outcomes.json, metrics.jsonl,
                                     ledger.csv (ledger-backed methods),
                                     final_model.ckpt, timings.json
    <run>/verify_report.json
    <run>/report/*.csv

Training is one fixed-round all-client `unlearn.retrain_until` call that
records the ledger and the model history; verify makes the same call and
hands that ledger and history to the oracle, so it certifies the Psi that
train writes.  Every unlearning method runs the same per-request step,
`unlearn.sifu`; the command only picks which training artifacts the method
loads (scratch needs none, finetune only the checkpoints, the ledger-backed
methods the ledger too).

Every result file is deterministic for a fixed config; wall-clock timings go
to the separate timings.json files, which are the only non-reproducible
outputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, models
from .config import ExperimentConfig, config_hash, parse_config, serialize_config
from .datagen import generate_data
from .engine import (
    FederationConfig,
    federation_loss,
    fedavg_round,
    init_params,
    read_checkpoint,
    write_checkpoint,
)
from .errors import ConfigError, MissingArtifactsError
from .history import TrainingHistory
from .models import ModelKind, Regime, regime_constants
from .oracle import check_bound, empirical_sensitivity
from .sensitivity import (
    SensitivityLedger,
    client_increments_direct,
    contraction_factor,
    noise_std,
)
from .serialize import dumps17, fmt17
from .unlearn import (
    LEDGER_METHODS,
    METHODS,
    RetrainResult,
    StoppingRule,
    UnlearningRequest,
    UnlearningState,
    retrain_until,
    sifu,
)

_PSI_CAP_FACTOR = 1e6


def output_root() -> Path:
    return Path(os.environ.get("FEDUNLEARN_OUT", "runs"))


def run_dir_for(config: ExperimentConfig, out_root: Path | None = None) -> Path:
    return (out_root or output_root()) / config.name


@dataclass(frozen=True, eq=False)
class PreparedExperiment:
    """Everything derived from a config that commands share."""

    config: ExperimentConfig
    spec: models.ModelSpec
    datasets: list
    weights: np.ndarray
    constants: models.RegimeConstants
    eta: float
    contraction: float
    theta0: np.ndarray
    digest: bytes

    @property
    def client_count(self) -> int:
        return len(self.datasets)

    def federation(self) -> FederationConfig:
        return FederationConfig(
            clients=tuple(self.datasets),
            weights=self.weights,
            eta=self.eta,
            local_steps=self.config.local_steps,
        )


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    datasets = generate_data(config.data)
    if config.weights is not None:
        weights = np.asarray(config.weights, dtype=np.float64)
    else:
        counts = np.array([d.sample_count for d in datasets], dtype=np.float64)
        weights = counts / counts.sum()
    constants = regime_constants(config.model, datasets)
    if constants.regime is Regime.SMOOTH:
        warnings.warn(
            "smooth regime: no step-size bound certifies contraction; "
            "the sensitivity bound grows as (1 + eta*beta)^steps",
            stacklevel=2,
        )
    eta = config.resolve_eta(constants)
    contraction = contraction_factor(constants, eta)
    theta0 = init_params(config.model, config.federation_seed, config.init)
    return PreparedExperiment(
        config=config,
        spec=config.model,
        datasets=datasets,
        weights=weights,
        constants=constants,
        eta=eta,
        contraction=contraction,
        theta0=theta0,
        digest=config_hash(config),
    )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_manifest(directory: Path, prepared: PreparedExperiment, command: str, outputs) -> None:
    manifest = {
        "code_version": __version__,
        "command": command,
        "config_hash": prepared.digest.hex(),
        "name": prepared.config.name,
        "outputs": sorted(outputs),
        "seeds": {
            "data": prepared.config.data.seed,
            "federation": prepared.config.federation_seed,
        },
    }
    _write_text(directory / "manifest.json", dumps17(manifest, indent=2) + "\n")


def _write_timings(directory: Path, timings: dict) -> None:
    # wall-clock diagnostics; the one artifact excluded from reproducibility
    _write_text(directory / "timings.json", dumps17(timings, indent=2) + "\n")


def _store_config(run_dir: Path, config: ExperimentConfig) -> None:
    _write_text(run_dir / "config.json", serialize_config(config))


def _check_manifest_hash(directory: Path, prepared: PreparedExperiment) -> None:
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifactsError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("config_hash") != prepared.digest.hex():
        raise ConfigError(
            f"artifacts in {directory} were produced by a different config"
        )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(config: ExperimentConfig, out_root: Path | None = None) -> Path:
    """Train the full federation, recording ledger, metrics, and checkpoints."""
    t_start = time.perf_counter()
    prepared = prepare(config)
    run_dir = run_dir_for(config, out_root)
    train_dir = run_dir / "train"
    if train_dir.exists():
        shutil.rmtree(train_dir)
    (train_dir / "checkpoints").mkdir(parents=True)
    checkpoints = {
        position: train_dir / "checkpoints" / f"round_{position:05d}.ckpt"
        for position in range(config.rounds + 1)
        if position % config.checkpoint_interval == 0 or position == config.rounds
    }
    # created empty while the block below runs, filled after it
    written_later = [train_dir / "metrics.jsonl", train_dir / "timings.json", *checkpoints.values()]
    with _created_meanwhile(written_later):
        _store_config(run_dir, config)
        _write_manifest(
            train_dir,
            prepared,
            "train",
            ["checkpoints/", "ledger.csv", "manifest.json", "metrics.jsonl", "timings.json"],
        )
        result, ledger, history = _run_federation(prepared)
        ledger.export_csv(train_dir / "ledger.csv")
        rounds = zip(ledger.segments.tolist(), ledger.deltas.tolist(), ledger.psi[1:].tolist(), result.loss_trace[1:])
        metric_rows = [
            {
                "round": position,
                "segment": segment,
                "global_loss": loss,
                "delta": dict(enumerate(deltas)),
                "psi": dict(enumerate(psi)),
            }
            for position, (segment, deltas, psi, (_, loss)) in enumerate(rounds)
        ]
        metrics = "".join(dumps17(row) + "\n" for row in metric_rows)

    _write_text(train_dir / "metrics.jsonl", metrics)
    for position, path in checkpoints.items():
        write_checkpoint(path, position, history.model_at(position), prepared.digest)
    _write_timings(train_dir, {"train_seconds": time.perf_counter() - t_start})
    return train_dir


@contextmanager
def _created_meanwhile(paths: list[Path]):
    """Create empty files at `paths` on a helper thread while the block runs.

    Creating a file allocates an inode, and ext4 without a journal skips
    every inode freed in the last 60 s (360 s while its inode-table block is
    dirty) in that search, so the cost follows what was deleted lately:
    0.03 ms to ~1 ms a file on a 2-vCPU Xeon VM.  Done alongside the rounds,
    that cost and its swings stay out of the training time.  The rounds are
    mostly numpy calls, which release the GIL; during pure-Python work the
    helper gets it once per switch interval.  When the block ends, this
    thread joins in on the files still pending.  They are filled in place
    afterwards, so the block must not write them.  If anything raises, the
    empty files are removed.
    """
    pending = deque(paths)

    def create() -> None:
        while True:
            try:
                path = pending.popleft()
            except IndexError:  # all taken, by this thread or the other
                return
            path.touch(exist_ok=False)

    with ThreadPoolExecutor(max_workers=1) as pool:
        created = pool.submit(create)
        try:
            yield
            create()
            created.result()
        except BaseException:
            pending.clear()
            wait([created])
            for path in paths:
                path.unlink(missing_ok=True)
            raise


def _run_federation(
    prepared: PreparedExperiment,
) -> tuple[RetrainResult, SensitivityLedger, TrainingHistory]:
    """The all-client run that train records and verify certifies: config.rounds
    rounds from theta0, recording the ledger and the model history."""
    rounds = prepared.config.rounds
    history = TrainingHistory(prepared.theta0)
    ledger = SensitivityLedger(prepared.contraction, prepared.config.local_steps, prepared.client_count)
    result = retrain_until(
        prepared.spec,
        prepared.federation(),
        prepared.theta0,
        range(prepared.client_count),
        StoppingRule(math.inf, rounds, rounds),
        ledger=ledger,
        history=history,
    )
    return result, ledger, history


def _load_history(train_dir: Path, prepared: PreparedExperiment) -> TrainingHistory:
    ckpt_dir = train_dir / "checkpoints"
    if not ckpt_dir.is_dir():
        raise MissingArtifactsError(f"missing checkpoint directory: {ckpt_dir}")
    positions = {}
    for path in sorted(ckpt_dir.glob("round_*.ckpt")):
        position, values, digest = read_checkpoint(path)
        if digest != prepared.digest:
            raise ConfigError(f"checkpoint {path} was produced by a different config")
        positions[position] = values
    if not positions:
        raise MissingArtifactsError(f"no checkpoints found in {ckpt_dir}")
    try:
        return TrainingHistory.from_positions(positions)
    except ValueError as err:
        raise MissingArtifactsError(
            f"{err}; full-history unlearning needs checkpoint_interval=1 train artifacts"
        ) from err


def _read_ledger(path: Path, prepared: PreparedExperiment) -> tuple[SensitivityLedger, np.ndarray]:
    if not path.exists():
        raise MissingArtifactsError(f"missing ledger: {path}")
    return SensitivityLedger.from_csv(
        path, prepared.contraction, prepared.config.local_steps, prepared.client_count
    )


# ---------------------------------------------------------------------------
# unlearn
# ---------------------------------------------------------------------------


def cmd_unlearn(config: ExperimentConfig, method: str, out_root: Path | None = None) -> Path:
    """Process the config's request sequence with one unlearning method."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "ifu" and any(len(req) != 1 for req in config.requests):
        raise ConfigError("method 'ifu' handles single-client requests only")
    t_start = time.perf_counter()
    prepared = prepare(config)
    run_dir = run_dir_for(config, out_root)
    train_dir = run_dir / "train"
    out_dir = run_dir / f"unlearn_{method}"

    # load and check every train artifact before the run directory is touched
    if method == "scratch":
        history = TrainingHistory(prepared.theta0)
    else:
        _check_manifest_hash(train_dir, prepared)
        history = _load_history(train_dir, prepared)
    ledger = _read_ledger(train_dir / "ledger.csv", prepared)[0] if method in LEDGER_METHODS else None
    if ledger is not None and len(ledger) != history.end_position:
        raise MissingArtifactsError(
            f"ledger.csv records {len(ledger)} rounds but the checkpoints {history.end_position}"
        )

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    _store_config(run_dir, config)

    outputs = ["final_model.ckpt", "manifest.json", "metrics.jsonl", "outcomes.json", "timings.json"]
    if ledger is not None:
        outputs.append("ledger.csv")
    _write_manifest(out_dir, prepared, f"unlearn:{method}", outputs)

    state = UnlearningState.from_training(
        history, ledger, config.budget, prepared.client_count, config.federation_seed, method
    )
    retrain_cfg = prepared.federation()
    outcome_rows = []
    metric_rows = []
    for u, targets in enumerate(config.requests, start=1):
        outcome = sifu(
            state, UnlearningRequest(u, frozenset(targets)), prepared.spec, retrain_cfg, config.stopping
        )
        outcome_rows.append(_outcome_row(outcome))
        metric_rows.extend(
            {"request": u, "position": pos, "retained_loss": loss} for pos, loss in outcome.loss_trace
        )

    _write_text(
        out_dir / "outcomes.json",
        dumps17({"method": method, "outcomes": outcome_rows}, indent=2) + "\n",
    )
    _write_text(out_dir / "metrics.jsonl", "".join(dumps17(row) + "\n" for row in metric_rows))
    if ledger is not None:
        ledger.export_csv(out_dir / "ledger.csv")
    write_checkpoint(
        out_dir / "final_model.ckpt", history.end_position, state.current_model, prepared.digest
    )
    _write_timings(out_dir, {"unlearn_seconds": time.perf_counter() - t_start})
    return out_dir


def _outcome_row(outcome) -> dict:
    return {
        "request_index": outcome.request_index,
        "targets": sorted(outcome.targets),
        "rollback_position": outcome.rollback_position,
        "sigma": outcome.noise_sigma,
        "retrain_rounds": outcome.retrain_rounds,
        "final_retained_loss": outcome.final_retained_loss,
        "converged": outcome.converged,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(config: ExperimentConfig, out_root: Path | None = None) -> tuple[dict, bool]:
    """Re-derive every certifiable claim for a config; returns (report, ok)."""
    t_start = time.perf_counter()
    prepared = prepare(config)
    run_dir = run_dir_for(config, out_root)
    audits = _audit_unlearn_runs(prepared, run_dir)  # refuse bad artifacts before the oracle runs
    checks = []

    psi_cap = None
    if prepared.constants.regime is Regime.SMOOTH:
        psi_cap = _PSI_CAP_FACTOR * max(1.0, float(np.linalg.norm(prepared.theta0)))
    fed = prepared.federation()
    _, ledger, history = _run_federation(prepared)
    for trace in empirical_sensitivity(fed, prepared.spec, history, ledger):
        report = check_bound(trace, tol=1e-8, psi_cap=psi_cap)
        check = {
            "name": f"bound:client{trace.client}",
            "pass": report.passed,
            "worst_slack": report.worst_slack,
            "tightness": report.tightness,
        }
        if not report.passed:
            check["first_violation"] = report.first_violation
        checks.append(check)

    checks.append(_check_proxy_equivalence(prepared, fed, history, ledger))
    checks.append(_check_contractivity(prepared, fed))
    checks.extend(audits)

    ok = all(c["pass"] for c in checks)
    report = {"config_hash": prepared.digest.hex(), "pass": ok, "checks": checks}
    _write_text(run_dir / "verify_report.json", dumps17(report, indent=2) + "\n")
    _write_timings(run_dir, {"verify_seconds": time.perf_counter() - t_start})
    return report, ok


def _check_proxy_equivalence(prepared: PreparedExperiment, fed: FederationConfig, history, ledger) -> dict:
    """The ledger's recorded closed-form deltas against the direct increments
    of the same rounds, replayed from the history's models."""
    everyone = tuple(range(prepared.client_count))
    worst = 0.0
    passed = True
    for n, fast in enumerate(ledger.deltas):
        record = fedavg_round(prepared.spec, fed, history.models[n], everyone, n)
        direct = client_increments_direct(record, prepared.weights)
        gap = np.abs(fast - direct)
        worst = max(worst, float(gap.max()))
        if ((gap > 1e-10 * np.maximum(np.abs(direct), np.abs(fast))) & (gap > 1e-12)).any():
            passed = False
    return {"name": "proxy_equivalence", "pass": passed, "worst_slack": worst, "tightness": None}


def _check_contractivity(prepared: PreparedExperiment, fed: FederationConfig, pairs: int = 200) -> dict:
    rng = np.random.default_rng(8_191)
    spec, d = prepared.spec, prepared.spec.param_count
    stacks = fed.stacked(range(fed.client_count))
    worst = 0.0
    factor = prepared.contraction
    for _ in range(pairs):
        theta = 0.5 * rng.standard_normal(d)
        phi = theta + 0.2 * rng.standard_normal(d)
        rhs = factor * float(np.linalg.norm(theta - phi))
        for _, features, targets in stacks:
            shape = (features.shape[0], d)
            step_theta = theta - prepared.eta * models.stacked_grad(
                spec, features, targets, np.broadcast_to(theta, shape)
            )
            step_phi = phi - prepared.eta * models.stacked_grad(
                spec, features, targets, np.broadcast_to(phi, shape)
            )
            worst = max(worst, float((models.norms(step_theta - step_phi) - rhs).max()))
    return {"name": "contractivity", "pass": worst <= 1e-9, "worst_slack": worst, "tightness": None}


def _audit_unlearn_runs(prepared: PreparedExperiment, run_dir: Path) -> list[dict]:
    checks = []
    for method in LEDGER_METHODS:
        out_dir = run_dir / f"unlearn_{method}"
        if not out_dir.is_dir():
            continue
        _check_manifest_hash(out_dir, prepared)
        paths = [out_dir / name for name in ("ledger.csv", "outcomes.json", "final_model.ckpt")]
        if not all(path.exists() for path in paths):
            raise MissingArtifactsError(
                f"{out_dir} is missing ledger.csv, outcomes.json or final_model.ckpt; "
                "re-run the unlearn command"
            )
        ledger, recorded = _read_ledger(paths[0], prepared)
        outcomes = json.loads(paths[1].read_text())["outcomes"]
        # the ledger must cover the whole timeline the outcomes and the final model describe
        end = prepared.config.rounds
        if outcomes:
            end = outcomes[-1]["rollback_position"] + outcomes[-1]["retrain_rounds"]
        final_position = read_checkpoint(paths[2])[0]
        if not len(ledger) == end == final_position:
            raise MissingArtifactsError(
                f"{paths[0]} records {len(ledger)} rounds but the timeline ends at {end} "
                f"and final_model.ckpt at {final_position}"
            )
        checks.append(
            _audit_one_run(prepared, method, ledger, recorded, outcomes, rollback=method != "last")
        )
    return checks


def _audit_one_run(prepared, method, ledger, recorded, outcomes, rollback: bool) -> dict:
    budget = prepared.config.budget
    passed = True
    worst = float("-inf")

    # recorded psi column must match a fresh recomputation from the deltas
    fresh = ledger.psi[1:]
    gap = np.abs(recorded - fresh)
    drifted = gap > 1e-12 * np.maximum(1.0, np.abs(fresh))
    if drifted.any():
        passed = False
        worst = float(gap[drifted].max())

    positions = [row["rollback_position"] for row in outcomes]
    for u, row in enumerate(outcomes):
        targets = row["targets"]
        if rollback:
            # the perturbation covering request u in the surviving history sits
            # at the smallest rollback position among request u and all later ones
            audit_pos = min(positions[u:])
            slack = ledger.bounded_sensitivity(audit_pos, targets) - budget.psi_star
            worst = max(worst, float(slack.max()))
            if (slack > 1e-9).any():
                passed = False
            survived = audit_pos == row["rollback_position"]
        else:
            survived = True  # no truncation: every prefix is intact
        if survived:
            psi_at = ledger.set_sensitivity(targets, row["rollback_position"])
            expected = noise_std(psi_at, budget.epsilon, budget.delta)
            if abs(expected - row["sigma"]) > 1e-9 * max(1.0, expected):
                passed = False
                worst = max(worst, abs(expected - row["sigma"]))
    if worst == float("-inf"):
        worst = 0.0
    return {"name": f"budget_audit:{method}", "pass": passed, "worst_slack": worst, "tightness": None}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(run_dir: Path) -> Path:
    """Summarise completed unlearning runs into per-metric CSV files."""
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        raise MissingArtifactsError(f"missing config copy: {config_path}")
    config = parse_config(config_path.read_text())
    prepared = prepare(config)
    spec = prepared.spec

    methods = {}
    for out_dir in sorted(run_dir.glob("unlearn_*")):
        method = out_dir.name.removeprefix("unlearn_")
        _check_manifest_hash(out_dir, prepared)
        outcomes_path = out_dir / "outcomes.json"
        final_path = out_dir / "final_model.ckpt"
        if not outcomes_path.exists() or not final_path.exists():
            raise MissingArtifactsError(f"{out_dir} is incomplete; re-run the unlearn command")
        outcomes = json.loads(outcomes_path.read_text())["outcomes"]
        _, final_model, _ = read_checkpoint(final_path)
        methods[method] = (outcomes, final_model)
    if not methods:
        raise MissingArtifactsError(f"no completed unlearning runs under {run_dir}")

    forgotten = sorted({c for req in config.requests for c in req})
    remaining = tuple(i for i in range(prepared.client_count) if i not in forgotten)
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    rounds_rows = []
    retained_rows = []
    forget_rows = []
    for method in sorted(methods):
        outcomes, final_model = methods[method]
        total_rounds = sum(row["retrain_rounds"] for row in outcomes)
        retained = (
            federation_loss(spec, prepared.federation(), final_model, remaining)
            if remaining
            else float("nan")
        )
        rounds_rows.append(f"{method},{total_rounds}")
        retained_rows.append(f"{method},{fmt17(retained)}")
        forget_rows.append(f"{method},{fmt17(_forget_metric(spec, prepared, forgotten, final_model))},{_metric_kind(spec)}")

    _write_text(report_dir / "rounds.csv", "method,total_retrain_rounds\n" + "".join(r + "\n" for r in rounds_rows))
    _write_text(report_dir / "retained_loss.csv", "method,retained_loss\n" + "".join(r + "\n" for r in retained_rows))
    _write_text(report_dir / "forget.csv", "method,forget_metric,metric_kind\n" + "".join(r + "\n" for r in forget_rows))

    if "scratch" in methods:
        scratch_model = methods["scratch"][1]
        distance_rows = []
        for method in sorted(methods):
            gap = float(np.linalg.norm(methods[method][1] - scratch_model))
            distance_rows.append(f"{method},{fmt17(gap)}")
        _write_text(
            report_dir / "distance_to_scratch.csv",
            "method,distance_to_scratch\n" + "".join(r + "\n" for r in distance_rows),
        )
    return report_dir


def _metric_kind(spec) -> str:
    return "accuracy" if spec.kind is ModelKind.LOGISTIC else "mse"


def _forget_metric(spec, prepared, forgotten, theta) -> float:
    """Sample-weighted mean metric of the final model on the forgotten clients."""
    if not forgotten:
        return float("nan")
    total_samples = sum(prepared.datasets[c].sample_count for c in forgotten)
    value = 0.0
    for c in forgotten:
        data = prepared.datasets[c]
        share = data.sample_count / total_samples
        if spec.kind is ModelKind.LOGISTIC:
            value += share * models.accuracy(spec, data, theta)
        else:
            value += share * 2.0 * models.data_loss(spec, data, theta)
    return value
