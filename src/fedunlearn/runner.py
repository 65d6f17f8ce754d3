"""Experiment driver behind the CLI: train, unlearn, verify, report.

Artifact layout under $FEDUNLEARN_OUT (default ./runs), one directory per
config name:

    <run>/config.json                canonical config copy
    <run>/train/                     history.ckpt, ledger.ckpt, metrics.jsonl,
                                     timings.json, manifest
    <run>/unlearn_<method>/          outcomes.json, metrics.jsonl,
                                     ledger.ckpt (ledger-backed methods),
                                     final_model.ckpt, timings.json, manifest
    <run>/verify_report.json
    <run>/report/*.csv

A manifest is written last and lists the files of its directory.

Training is one fixed-round all-client `unlearn.retrain_until` call that
records the ledger and every round's global model.  A ledger file stores each
round's deltas in the checkpoint format, and no Psi: loading rebuilds Psi from
the deltas (which request's retraining produced a round follows from the
rollback positions in outcomes.json).  train's ledger holds every round; an
unlearn ledger holds only the rounds from its smallest rollback position on,
and is joined to train's on load (no file is written for an empty suffix).
Every command starts from `prepare`, which builds the config's one FederationConfig.
unlearn and verify load the train artifacts through one loader, `_load_train`,
and verify and report load each unlearn run through another, `_load_unlearn`,
which also requires the final model to carry the config's digest and to end
where the outcomes' timeline does.
verify hands the loaded ledger and history to the oracle, so it certifies the
Psi that train wrote, and replays each recorded round from the history,
requiring the next model and the ledger's deltas bit for bit, and the deltas
within rounding of the direct increments.
It re-runs every unlearning method from the same artifacts and requires its
outcomes, final model and ledger bit for bit.  Every unlearning method runs
the same per-request step, `unlearn.sifu`; `_train_inputs` picks which train
artifacts a method starts from (scratch none, finetune only the history, the
ledger-backed methods the ledger too).

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
from .oracle import check_bound, contraction_slack, empirical_sensitivity
from .sensitivity import (
    SensitivityLedger,
    client_increments_direct,
    client_increments_fast,
    contraction_factor,
)
from .serialize import dumps17, fmt17
from .unlearn import (
    LEDGER_METHODS,
    METHODS,
    StoppingRule,
    UnlearningRequest,
    UnlearningState,
    retrain_until,
    sifu,
)

_PSI_CAP_FACTOR = 1e6
LEDGER_FILE = "ledger.ckpt"


def output_root() -> Path:
    return Path(os.environ.get("FEDUNLEARN_OUT", "runs"))


def run_dir_for(config: ExperimentConfig, out_root: Path | None = None) -> Path:
    return (out_root or output_root()) / config.name


@dataclass(frozen=True, eq=False)
class PreparedExperiment:
    """Everything derived from a config that commands share."""

    config: ExperimentConfig
    spec: models.ModelSpec
    fed: FederationConfig
    constants: models.RegimeConstants
    contraction: float
    theta0: np.ndarray
    digest: bytes

    @property
    def client_count(self) -> int:
        return self.fed.client_count


def prepare(config: ExperimentConfig) -> PreparedExperiment:
    datasets = generate_data(config.data)
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
        fed=FederationConfig.from_datasets(datasets, eta, config.local_steps, config.weights),
        constants=constants,
        contraction=contraction,
        theta0=theta0,
        digest=config_hash(config),
    )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_manifest(directory: Path, prepared: PreparedExperiment, command: str) -> None:
    """Write the manifest of a command's directory, listing every file in it."""
    manifest = {
        "code_version": __version__,
        "command": command,
        "config_hash": prepared.digest.hex(),
        "name": prepared.config.name,
        "outputs": sorted([path.name for path in directory.iterdir()] + ["manifest.json"]),
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
    """Train the full federation, recording the ledger, metrics and model history.

    The manifest is written last, so a train that stops early leaves a
    directory that later commands refuse.
    """
    t_start = time.perf_counter()
    prepared = prepare(config)
    run_dir = run_dir_for(config, out_root)
    train_dir = run_dir / "train"
    if train_dir.exists():
        shutil.rmtree(train_dir)
    train_dir.mkdir(parents=True)
    _store_config(run_dir, config)
    rounds = config.rounds
    history = TrainingHistory(prepared.theta0)
    ledger = SensitivityLedger(prepared.contraction, config.local_steps, prepared.client_count)
    result = retrain_until(
        prepared.spec,
        prepared.fed,
        prepared.theta0,
        range(prepared.client_count),
        StoppingRule(math.inf, rounds, rounds),
        ledger=ledger,
        history=history,
    )

    write_checkpoint(train_dir / "history.ckpt", rounds, np.array(history.models), prepared.digest)
    _write_ledger(train_dir, prepared, ledger, 0)
    per_round = zip(result.loss_trace[1:], ledger.deltas.max(axis=1).tolist(), ledger.psi[1:].max(axis=1).tolist())
    metrics = "".join(
        dumps17({"round": n, "global_loss": loss, "max_delta": delta, "max_psi": psi}) + "\n"
        for n, ((_, loss), delta, psi) in enumerate(per_round)
    )
    _write_text(train_dir / "metrics.jsonl", metrics)
    _write_timings(train_dir, {"train_seconds": time.perf_counter() - t_start})
    _write_manifest(train_dir, prepared, "train")
    return train_dir


def _write_ledger(directory: Path, prepared: PreparedExperiment, ledger: SensitivityLedger, start: int) -> None:
    """Write the ledger's rounds from `start` on, and no file for an empty
    suffix, which the checkpoint format cannot hold."""
    if start < len(ledger):
        ledger.write(directory / LEDGER_FILE, start, prepared.digest)


def _load_train(
    train_dir: Path, prepared: PreparedExperiment, with_ledger: bool
) -> tuple[TrainingHistory, SensitivityLedger | None]:
    """The model history train wrote and, if asked, its ledger, each checked
    against the train manifest, the config and the other."""
    _check_manifest_hash(train_dir, prepared)
    path = train_dir / "history.ckpt"
    if not path.exists():
        raise MissingArtifactsError(f"missing model history: {path}")
    _, kept = _read_checkpoint(path, prepared)
    kept = kept.reshape(-1, prepared.spec.param_count)
    rounds = prepared.config.rounds
    if len(kept) != rounds + 1:
        raise MissingArtifactsError(f"{path} holds {len(kept)} models but the config trains {rounds} rounds")
    history = TrainingHistory.from_models(kept)
    if not with_ledger:
        return history, None
    empty = SensitivityLedger(prepared.contraction, prepared.config.local_steps, prepared.client_count)
    return history, _read_ledger(train_dir, prepared, empty, 0, rounds)


def _read_checkpoint(path: Path, prepared: PreparedExperiment) -> tuple[int, np.ndarray]:
    """Position and values of a checkpoint this config wrote, refusing a
    damaged file as missing artifacts and another config's as a config error."""
    try:
        position, values, digest = read_checkpoint(path)
    except ValueError as err:
        raise MissingArtifactsError(f"{err}; re-run the command that wrote it") from err
    if digest != prepared.digest:
        raise ConfigError(f"checkpoint {path} was produced by a different config")
    return position, values


def _read_ledger(
    directory: Path, prepared: PreparedExperiment, prefix: SensitivityLedger, start: int, end: int
) -> SensitivityLedger:
    """The ledger of rounds 0..end: prefix's first `start` rounds joined to the
    directory's ledger file of rounds start..end, refusing a damaged file as
    missing artifacts."""
    if start > len(prefix):
        raise MissingArtifactsError(f"{directory} starts at round {start}, after the {len(prefix)} rounds it follows")
    if start == end:
        return prefix.prefix(start)
    path = directory / LEDGER_FILE
    if not path.exists():
        raise MissingArtifactsError(f"missing ledger: {path}")
    try:
        return SensitivityLedger.read(path, prefix, start, end, prepared.digest)
    except ValueError as err:
        raise MissingArtifactsError(f"{err}; re-run the command that wrote it") from err


# ---------------------------------------------------------------------------
# unlearn
# ---------------------------------------------------------------------------


def cmd_unlearn(config: ExperimentConfig, method: str, out_root: Path | None = None) -> Path:
    """Process the config's request sequence with one unlearning method.

    The manifest is written last, as in train, so an unlearn that stops early
    leaves a directory that verify and report refuse.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "ifu" and any(len(req) != 1 for req in config.requests):
        raise ConfigError("method 'ifu' handles single-client requests only")
    t_start = time.perf_counter()
    prepared = prepare(config)
    run_dir = run_dir_for(config, out_root)
    out_dir = run_dir / f"unlearn_{method}"

    # load and check every train artifact before the run directory is touched
    history, ledger = _train_inputs(run_dir, prepared, method)

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    _store_config(run_dir, config)

    state, outcome_rows, metric_rows = _run_requests(prepared, history, ledger, method)
    _write_text(
        out_dir / "outcomes.json",
        dumps17({"method": method, "outcomes": outcome_rows}, indent=2) + "\n",
    )
    _write_text(out_dir / "metrics.jsonl", "".join(dumps17(row) + "\n" for row in metric_rows))
    if ledger is not None:
        _write_ledger(out_dir, prepared, ledger, _suffix_start(outcome_rows, len(ledger)))
    write_checkpoint(
        out_dir / "final_model.ckpt", history.end_position, state.current_model, prepared.digest
    )
    _write_timings(out_dir, {"unlearn_seconds": time.perf_counter() - t_start})
    _write_manifest(out_dir, prepared, f"unlearn:{method}")
    return out_dir


def _train_inputs(
    run_dir: Path, prepared: PreparedExperiment, method: str, loaded=None
) -> tuple[TrainingHistory, SensitivityLedger | None]:
    """The history and ledger a method starts from, read from train/ or, if
    given, copied from the `loaded` (history, ledger) pair of train's."""
    if method == "scratch":
        return TrainingHistory(prepared.theta0), None
    with_ledger = method in LEDGER_METHODS
    if loaded is None:
        return _load_train(run_dir / "train", prepared, with_ledger)
    history, ledger = loaded
    return TrainingHistory.from_models(history.models), ledger.prefix(len(ledger)) if with_ledger else None


def _run_requests(
    prepared: PreparedExperiment, history: TrainingHistory, ledger: SensitivityLedger | None, method: str
) -> tuple[UnlearningState, list[dict], list[dict]]:
    """Process the config's request sequence on the loaded train artifacts,
    which it extends in place; returns the state, outcome rows and metric rows."""
    config = prepared.config
    state = UnlearningState.from_training(
        history, ledger, config.budget, prepared.client_count, config.federation_seed, method
    )
    outcome_rows = []
    metric_rows = []
    for u, targets in enumerate(config.requests, start=1):
        outcome = sifu(
            state, UnlearningRequest(u, frozenset(targets)), prepared.spec, prepared.fed, config.stopping
        )
        outcome_rows.append(_outcome_row(outcome))
        metric_rows.extend(
            {"request": u, "position": pos, "retained_loss": loss} for pos, loss in outcome.loss_trace
        )
    return state, outcome_rows, metric_rows


def _suffix_start(outcomes: list[dict], end: int) -> int:
    """Where an unlearn ledger file starts: the smallest rollback position,
    before which the timeline is train's; the timeline end if no request ran."""
    return min((row["rollback_position"] for row in outcomes), default=end)


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
    # refuse bad artifacts before the oracle runs
    history, ledger = _load_train(run_dir / "train", prepared, with_ledger=True)
    audits = _audit_unlearn_runs(prepared, run_dir, history, ledger)
    checks = []

    psi_cap = None
    if prepared.constants.regime is Regime.SMOOTH:
        psi_cap = _PSI_CAP_FACTOR * max(1.0, float(np.linalg.norm(prepared.theta0)))
    for trace in empirical_sensitivity(prepared.fed, prepared.spec, history, ledger):
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

    checks.append(_check_proxy_equivalence(prepared, history, ledger))
    worst = contraction_slack(prepared.fed, prepared.spec, prepared.contraction)
    checks.append({"name": "contractivity", "pass": worst <= 1e-9, "worst_slack": worst, "tightness": None})
    checks.extend(audits)

    ok = all(c["pass"] for c in checks)
    report = {"config_hash": prepared.digest.hex(), "pass": ok, "checks": checks}
    _write_text(run_dir / "verify_report.json", dumps17(report, indent=2) + "\n")
    _write_timings(run_dir, {"verify_seconds": time.perf_counter() - t_start})
    return report, ok


def _check_proxy_equivalence(prepared: PreparedExperiment, history, ledger) -> dict:
    """Replay each recorded round from the history's models: it must give the
    next model and the ledger row bit for bit, and the row must match the
    round's direct increments within rounding."""
    fed = prepared.fed
    cohort = fed.cohort(range(fed.client_count), prepared.spec)
    worst = 0.0
    passed = np.array_equal(history.models[0], prepared.theta0)
    for n, fast in enumerate(ledger.deltas):
        record = fedavg_round(prepared.spec, fed, history.models[n], cohort, n)
        passed &= np.array_equal(record.global_after, history.models[n + 1])
        passed &= client_increments_fast(record).tobytes() == fast.tobytes()
        direct = client_increments_direct(record)
        gap = np.abs(fast - direct)
        worst = max(worst, float(gap.max()))
        if ((gap > 1e-10 * np.maximum(np.abs(direct), np.abs(fast))) & (gap > 1e-12)).any():
            passed = False
    return {"name": "proxy_equivalence", "pass": passed, "worst_slack": worst, "tightness": None}


def _audit_unlearn_runs(
    prepared: PreparedExperiment, run_dir: Path, history: TrainingHistory, train_ledger: SensitivityLedger
) -> list[dict]:
    """Audit each unlearn run against the loaded train artifacts, which are
    left as they are."""
    checks = []
    for method in METHODS:
        out_dir = run_dir / f"unlearn_{method}"
        if not out_dir.is_dir():
            continue
        outcomes, end, final_model = _load_unlearn(out_dir, prepared, method)
        ledger = None
        if method in LEDGER_METHODS:
            ledger = _read_ledger(out_dir, prepared, train_ledger, _suffix_start(outcomes, end), end)
        # the same requests re-run on the same train inputs must give the same run
        inputs = _train_inputs(run_dir, prepared, method, (history, train_ledger))
        state, rows, _ = _run_requests(prepared, *inputs, method)
        reproduced = (
            rows == outcomes
            and state.current_model.tobytes() == final_model.tobytes()
            and (ledger is None or state.ledger.deltas.tobytes() == ledger.deltas.tobytes())
        )
        checks.append(_audit_one_run(prepared, method, ledger, outcomes, reproduced))
    return checks


def _load_unlearn(out_dir: Path, prepared: PreparedExperiment, method: str) -> tuple[list[dict], int, np.ndarray]:
    """An unlearn run's outcomes, timeline end and final model, checked against
    its manifest, the config and each other."""
    _check_manifest_hash(out_dir, prepared)
    outcomes_path, final_path = out_dir / "outcomes.json", out_dir / "final_model.ckpt"
    if not (outcomes_path.exists() and final_path.exists()):
        raise MissingArtifactsError(
            f"{out_dir} is missing outcomes.json or final_model.ckpt; re-run the unlearn command"
        )
    outcomes = json.loads(outcomes_path.read_text())["outcomes"]
    # scratch's timeline starts empty, every other method's after train's rounds
    end = 0 if method == "scratch" else prepared.config.rounds
    if outcomes:
        end = outcomes[-1]["rollback_position"] + outcomes[-1]["retrain_rounds"]
    position, final_model = _read_checkpoint(final_path, prepared)
    if position != end:
        raise MissingArtifactsError(f"{final_path} ends at {position} but the timeline at {end}")
    return outcomes, end, final_model


def _audit_one_run(prepared, method, ledger, outcomes, reproduced: bool) -> dict:
    """Passes when re-running the method reproduced the run and, for sifu and
    ifu (last never truncates; scratch and finetune have no budget), each
    request's targets stay within psi* at the perturbation that covers them in
    the surviving timeline.  worst_slack is None where no psi* comparison ran."""
    if ledger is None:
        return {"name": f"rerun:{method}", "pass": reproduced, "worst_slack": None, "tightness": None}
    psi_star = prepared.config.budget.psi_star
    passed, worst = reproduced, None
    positions = [row["rollback_position"] for row in outcomes]
    if method != "last" and outcomes:
        # the perturbation covering request u sits at the smallest rollback
        # position among request u and all later ones
        slacks = [
            ledger.bounded_sensitivity(min(positions[u:]), row["targets"]) - psi_star
            for u, row in enumerate(outcomes)
        ]
        worst = max(float(slack.max()) for slack in slacks)
        passed = passed and worst <= 1e-9
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
        outcomes, _, final_model = _load_unlearn(out_dir, prepared, method)
        methods[method] = (outcomes, final_model)
    if not methods:
        raise MissingArtifactsError(f"no completed unlearning runs under {run_dir}")

    forgotten = sorted({c for req in config.requests for c in req})
    remaining = [i for i in range(prepared.client_count) if i not in forgotten]
    survivors = prepared.fed.cohort(remaining, spec) if remaining else None
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    rounds_rows = []
    retained_rows = []
    forget_rows = []
    for method in sorted(methods):
        outcomes, final_model = methods[method]
        total_rounds = sum(row["retrain_rounds"] for row in outcomes)
        retained = federation_loss(spec, prepared.fed, final_model, survivors) if remaining else float("nan")
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
    total_samples = sum(prepared.fed.clients[c].sample_count for c in forgotten)
    value = 0.0
    for c in forgotten:
        data = prepared.fed.clients[c]
        share = data.sample_count / total_samples
        if spec.kind is ModelKind.LOGISTIC:
            value += share * models.accuracy(spec, data, theta)
        else:
            value += share * 2.0 * models.data_loss(spec, data, theta)
    return value
