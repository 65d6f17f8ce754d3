"""Experiment driver behind the CLI: train, unlearn, verify, report.

Artifact layout under $FEDUNLEARN_OUT (default ./runs), one directory per
config name:

    <run>/config.json                canonical config copy
    <run>/train/                     history.ckpt, ledger.ckpt, metrics.jsonl,
                                     timings.json, manifest
    <run>/unlearn_<method>/          outcomes.json, final_model.ckpt,
                                     timings.json, manifest
    <run>/verify_report.json, timings.json
    <run>/report/                    *.csv, timings.json

A manifest is written last and lists the files of its directory.

Training, `_train`, is one fixed-round all-client `unlearn.retrain_until`
call that records the ledger and every round's global model, and evaluates
no loss; train writes what it returns and verify re-runs it.  train's
metrics.jsonl holds each round's largest delta and Psi, the row maxima of
its ledger.  The retained loss is read only where an unlearn run's stopping
rule consults it (StoppingRule.reads_loss) and once per request, for the
outcome's final_retained_loss.  train's ledger file holds each round's
deltas in the checkpoint format, and no Psi: loading checks the deltas as
one block and rebuilds Psi from them (SensitivityLedger.from_deltas).
An unlearn run writes no ledger: its ledger follows from train's and the
request sequence.

Every command starts from `prepared_for`, which shares one PreparedExperiment
per config and process: a pipeline run in one process (scripts/run_pipeline.py)
prepares its config once, not once per command.  `prepared_for` keeps a single
entry, the last config's, keyed by its config_hash; another digest replaces
it, and a command given the very config object the entry holds skips the
hash.  `prepare` itself stays the uncached derivation.  Every array a
PreparedExperiment holds is read-only, so no command can change what a later
one reads.  Only values derived from the config are shared, never an
artifact: each command still reads and checks its inputs from disk.  Each
command's timings.json records `prepare_seconds`, the time it spent
obtaining its PreparedExperiment, about 0 when shared.

unlearn and verify load the train artifacts through one loader,
`_load_train`, and verify and report load each unlearn run through another,
`_load_unlearn`, which also requires every outcome row to hold each of its
keys with a value of its type, and the final model to carry the config's
digest and to end where the outcomes' timeline does; both read the
unlearn_<method> directory of each method in METHODS and no other.  verify
hands the loaded history to the oracle and checks each client's column of
its gaps against that column of the loaded ledger's Psi, so it certifies
the Psi that train wrote.  It re-runs train and requires every model, every
delta and train's metrics.jsonl bit for bit, and re-runs every unlearning method
from the loaded artifacts, requiring its outcomes and final model bit for
bit and auditing the budget on the re-run's ledger.  Every unlearning
method runs the same per-request step, `unlearn.sifu`; `_train_inputs`
picks which train artifacts a method starts from (scratch none, finetune
only the history, the ledger-backed methods the ledger too).

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
    freeze,
    init_params,
    read_checkpoint,
    write_checkpoint,
)
from .errors import ConfigError, MissingArtifactsError
from .history import TrainingHistory
from .models import ModelKind, Regime, regime_constants
from .oracle import check_bound, contraction_slack, empirical_sensitivity
from .sensitivity import SensitivityLedger, contraction_factor
from .serialize import dumps17, dumps17_rows, fmt17
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
    """Everything derived from a config that commands share.

    The commands of one process share one instance per config through
    `prepared_for`, so every array reachable from it is read-only: theta0
    and the federation's one stack of the clients' data, its weights, its
    moments and operators, and its cohorts' memo entries, which the
    commands' runs on the same clients share.  The stack is the one
    generate_data filled, held once, by the federation.  It holds no
    artifact; commands read those from disk.
    """

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
    """A fresh PreparedExperiment of `config`, its arrays read-only; derived
    without any cache."""
    features, targets = generate_data(config.data)
    constants = regime_constants(config.model, features, targets)
    eta = config.resolve_eta(constants)
    contraction = contraction_factor(constants, eta)
    theta0 = init_params(config.model, config.federation_seed, config.init)
    freeze(theta0)
    return PreparedExperiment(
        config=config,
        spec=config.model,
        fed=FederationConfig(features, targets, eta, config.local_steps, config.weights),
        constants=constants,
        contraction=contraction,
        theta0=theta0,
        digest=config_hash(config),
    )


# the (config_hash, PreparedExperiment) of the last config a command ran;
# only prepared_for fills it, never prepare
_shared: tuple[bytes, PreparedExperiment] | None = None


def prepared_for(config: ExperimentConfig) -> PreparedExperiment:
    """The PreparedExperiment every command of this process shares for
    `config`: prepared on the first call for its digest, then reused until a
    call with another digest replaces it.  Warns on every call, shared or
    not, for a smooth-regime model."""
    global _shared
    # a config is frozen and immutable: the held object itself needs no hash
    if _shared is None or _shared[1].config is not config:
        digest = config_hash(config)
        if _shared is None or _shared[0] != digest:
            _shared = None  # release the old entry before preparing the new one
            _shared = (digest, prepare(config))
    prepared = _shared[1]
    if prepared.constants.regime is Regime.SMOOTH:
        warnings.warn(
            "smooth regime: no step-size bound certifies contraction; "
            "the sensitivity bound grows as (1 + eta*beta)^steps",
            stacklevel=2,
        )
    return prepared


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
    manifest = _read_json(manifest_path, "config_hash")
    if manifest["config_hash"] != prepared.digest.hex():
        raise ConfigError(
            f"artifacts in {directory} were produced by a different config"
        )


def _read_bytes(path: Path) -> bytes:
    """The bytes of `path`, refusing an unreadable file as missing artifacts."""
    try:
        return path.read_bytes()
    except OSError as err:
        raise MissingArtifactsError(f"{path} is unreadable ({err}); re-run the command that wrote it") from err


def _read_json(path: Path, key: str) -> dict:
    """The JSON object in `path`, refusing a damaged file or one without
    `key` as missing artifacts."""
    try:
        doc = json.loads(_read_bytes(path))
    except ValueError as err:
        raise MissingArtifactsError(f"{path} is damaged ({err}); re-run the command that wrote it") from err
    if not isinstance(doc, dict) or key not in doc:
        raise MissingArtifactsError(f"{path} holds no {key!r}; re-run the command that wrote it")
    return doc


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(config: ExperimentConfig, out_root: Path | None = None) -> Path:
    """Train the full federation, recording the ledger, metrics and model history.

    The manifest is written last, so a train that stops early leaves a
    directory that later commands refuse.
    """
    t_start = time.perf_counter()
    prepared = prepared_for(config)
    prepare_seconds = time.perf_counter() - t_start
    run_dir = run_dir_for(config, out_root)
    train_dir = run_dir / "train"
    if train_dir.exists():
        shutil.rmtree(train_dir)
    train_dir.mkdir(parents=True)
    _store_config(run_dir, config)
    history, ledger, metrics = _train(prepared)
    write_checkpoint(train_dir / "history.ckpt", config.rounds, np.array(history.models), prepared.digest)
    if config.rounds:  # the checkpoint format holds no empty block
        write_checkpoint(train_dir / LEDGER_FILE, config.rounds, ledger.deltas, prepared.digest)
    _write_text(train_dir / "metrics.jsonl", metrics)
    _write_timings(train_dir, {"train_seconds": time.perf_counter() - t_start, "prepare_seconds": prepare_seconds})
    _write_manifest(train_dir, prepared, "train")
    return train_dir


def _train(prepared: PreparedExperiment) -> tuple[TrainingHistory, SensitivityLedger, str]:
    """Train the full federation for the config's rounds in one fixed-round
    all-client `retrain_until` call; returns the model history, the ledger
    and the text of train's metrics.jsonl, each round's largest delta and Psi."""
    rounds = prepared.config.rounds
    history = TrainingHistory(prepared.theta0)
    ledger = SensitivityLedger(prepared.contraction, prepared.config.local_steps, prepared.client_count)
    retrain_until(
        prepared.spec,
        prepared.fed,
        prepared.theta0,
        range(prepared.client_count),
        StoppingRule(math.inf, rounds, rounds),
        ledger=ledger,
        history=history,
    )
    per_round = zip(ledger.deltas.max(axis=1).tolist(), ledger.psi[1:].max(axis=1).tolist())
    rows = [{"round": n, "max_delta": delta, "max_psi": psi} for n, (delta, psi) in enumerate(per_round)]
    return history, ledger, dumps17_rows(rows)


def _load_train(
    train_dir: Path, prepared: PreparedExperiment, with_ledger: bool
) -> tuple[TrainingHistory, SensitivityLedger | None]:
    """The model history train wrote and, if asked, its ledger, each checked
    against the train manifest and the config; Psi is rebuilt from the deltas."""
    _check_manifest_hash(train_dir, prepared)
    rounds = prepared.config.rounds
    kept = _read_train_block(train_dir / "history.ckpt", prepared, rounds + 1, prepared.spec.param_count)
    history = TrainingHistory.from_models(kept)
    if not with_ledger:
        return history, None
    if not rounds:  # train wrote no file for an empty ledger
        return history, SensitivityLedger(prepared.contraction, prepared.config.local_steps, prepared.client_count)
    path = train_dir / LEDGER_FILE
    block = _read_train_block(path, prepared, rounds, prepared.client_count)
    try:
        ledger = SensitivityLedger.from_deltas(prepared.contraction, prepared.config.local_steps, block)
    except ValueError as err:
        raise MissingArtifactsError(f"{path} {err}; re-run the command that wrote it") from err
    return history, ledger


def _read_train_block(path: Path, prepared: PreparedExperiment, rows: int, width: int) -> np.ndarray:
    """The (rows, width) block of a train checkpoint, refusing one that does
    not end at the config's last round as missing artifacts."""
    position, values = _read_checkpoint(path, prepared)
    values = np.atleast_2d(values)
    rounds = prepared.config.rounds
    if position != rounds or values.shape != (rows, width):
        raise MissingArtifactsError(
            f"{path} holds a {values.shape[0]}x{values.shape[1]} block ending at round {position},"
            f" expected {rows}x{width} ending at round {rounds}"
        )
    return values


def _read_checkpoint(path: Path, prepared: PreparedExperiment) -> tuple[int, np.ndarray]:
    """Position and values of a checkpoint this config wrote, refusing a
    missing or damaged file as missing artifacts and another config's as a
    config error."""
    try:
        position, values, digest = read_checkpoint(path)
    except (OSError, ValueError) as err:
        raise MissingArtifactsError(f"{err}; re-run the command that wrote it") from err
    if digest != prepared.digest:
        raise ConfigError(f"checkpoint {path} was produced by a different config")
    return position, values


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
    prepared = prepared_for(config)
    prepare_seconds = time.perf_counter() - t_start
    run_dir = run_dir_for(config, out_root)
    out_dir = run_dir / f"unlearn_{method}"

    # load and check every train artifact before the run directory is touched
    inputs = _train_inputs(run_dir, prepared, method)

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    _store_config(run_dir, config)

    state, outcome_rows = _run_requests(prepared, *inputs, method)
    _write_text(out_dir / "outcomes.json", dumps17({"method": method, "outcomes": outcome_rows}, indent=2) + "\n")
    write_checkpoint(out_dir / "final_model.ckpt", state.history.end_position, state.history.final_model, prepared.digest)
    _write_timings(out_dir, {"unlearn_seconds": time.perf_counter() - t_start, "prepare_seconds": prepare_seconds})
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
) -> tuple[UnlearningState, list[dict]]:
    """Process the config's request sequence on the loaded train artifacts,
    which it extends in place; returns the state and the outcome rows."""
    config = prepared.config
    state = UnlearningState.from_training(
        history, ledger, config.budget, prepared.client_count, config.federation_seed, method
    )
    outcome_rows = []
    for u, targets in enumerate(config.requests, start=1):
        outcome = sifu(
            state, UnlearningRequest(u, frozenset(targets)), prepared.spec, prepared.fed, config.stopping
        )
        outcome_rows.append(_outcome_row(outcome))
    return state, outcome_rows


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
    prepared = prepared_for(config)
    prepare_seconds = time.perf_counter() - t_start
    run_dir = run_dir_for(config, out_root)
    # refuse bad artifacts before the oracle runs
    history, ledger = _load_train(run_dir / "train", prepared, with_ledger=True)
    metrics = _read_bytes(run_dir / "train" / "metrics.jsonl")
    audits = _audit_unlearn_runs(prepared, run_dir, history, ledger)
    checks = []

    psi_cap = None
    if prepared.constants.regime is Regime.SMOOTH:
        psi_cap = _PSI_CAP_FACTOR * max(1.0, float(np.linalg.norm(prepared.theta0)))
    alphas, psi = empirical_sensitivity(prepared.fed, prepared.spec, history), ledger.psi
    for client in range(prepared.client_count):
        report = check_bound(alphas[:, client], psi[:, client], tol=1e-8, psi_cap=psi_cap)
        check = {
            "name": f"bound:client{client}",
            "pass": report.passed,
            "worst_slack": report.worst_slack,
            "tightness": report.tightness,
        }
        if not report.passed:
            check["first_violation"] = report.first_violation
        checks.append(check)

    # training re-run from the config must give what train wrote, bit for bit
    rerun_history, rerun_ledger, rerun_metrics = _train(prepared)
    reproduced = (
        np.array(rerun_history.models).tobytes() == np.array(history.models).tobytes()
        and rerun_ledger.deltas.tobytes() == ledger.deltas.tobytes()
        and rerun_metrics.encode() == metrics
    )
    checks.append({"name": "rerun:train", "pass": reproduced, "worst_slack": None, "tightness": None})
    worst = contraction_slack(prepared.fed, prepared.spec, prepared.contraction)
    checks.append({"name": "contractivity", "pass": worst <= 1e-9, "worst_slack": worst, "tightness": None})
    checks.extend(audits)

    ok = all(c["pass"] for c in checks)
    report = {"config_hash": prepared.digest.hex(), "pass": ok, "checks": checks}
    _write_text(run_dir / "verify_report.json", dumps17(report, indent=2) + "\n")
    _write_timings(run_dir, {"verify_seconds": time.perf_counter() - t_start, "prepare_seconds": prepare_seconds})
    return report, ok


def _audit_unlearn_runs(
    prepared: PreparedExperiment, run_dir: Path, history: TrainingHistory, train_ledger: SensitivityLedger
) -> list[dict]:
    """Audit each unlearn run against the loaded train artifacts, which are
    left as they are."""
    checks = []
    for method, out_dir in _unlearn_runs(run_dir):
        outcomes, final_model = _load_unlearn(out_dir, prepared, method)
        # the same requests re-run on the same train inputs must give the same run
        inputs = _train_inputs(run_dir, prepared, method, (history, train_ledger))
        state, rows = _run_requests(prepared, *inputs, method)
        reproduced = rows == outcomes and state.history.final_model.tobytes() == final_model.tobytes()
        checks.append(_audit_one_run(prepared, method, state.ledger, rows, reproduced))
    return checks


def _unlearn_runs(run_dir: Path) -> list[tuple[str, Path]]:
    """(method, directory) of each unlearn run under `run_dir`: verify and
    report read unlearn_<method> for each method in METHODS and no other."""
    return [(method, run_dir / f"unlearn_{method}") for method in METHODS if (run_dir / f"unlearn_{method}").is_dir()]


def _load_unlearn(out_dir: Path, prepared: PreparedExperiment, method: str) -> tuple[list[dict], np.ndarray]:
    """An unlearn run's outcomes and final model, checked against its
    manifest, the config and each other."""
    _check_manifest_hash(out_dir, prepared)
    outcomes_path, final_path = out_dir / "outcomes.json", out_dir / "final_model.ckpt"
    if not (outcomes_path.exists() and final_path.exists()):
        raise MissingArtifactsError(
            f"{out_dir} is missing outcomes.json or final_model.ckpt; re-run the unlearn command"
        )
    outcomes = _read_json(outcomes_path, "outcomes")["outcomes"]
    _check_outcome_rows(outcomes_path, outcomes)
    # scratch's timeline starts empty, every other method's after train's rounds
    end = 0 if method == "scratch" else prepared.config.rounds
    if outcomes:
        end = outcomes[-1]["rollback_position"] + outcomes[-1]["retrain_rounds"]
    position, final_model = _read_checkpoint(final_path, prepared)
    if position != end:
        raise MissingArtifactsError(f"{final_path} ends at {position} but the timeline at {end}")
    return outcomes, final_model


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # 17-digit JSON writes a whole float such as 0.0 as an integer
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the keys of each outcome row (_outcome_row) and the test its value must pass
_OUTCOME_FIELDS = {
    "request_index": _is_int,
    "targets": lambda value: isinstance(value, list) and all(_is_int(c) for c in value),
    "rollback_position": _is_int,
    "sigma": _is_number,
    "retrain_rounds": _is_int,
    "final_retained_loss": _is_number,
    "converged": lambda value: isinstance(value, bool),
}


def _check_outcome_rows(path: Path, outcomes) -> None:
    """Refuse, as missing artifacts, outcomes that are not a list of rows
    with every key of _outcome_row holding a value of its type."""
    if not isinstance(outcomes, list):
        raise MissingArtifactsError(f"{path} holds no list of outcomes; re-run the command that wrote it")
    for u, row in enumerate(outcomes):
        problem = _outcome_row_problem(row)
        if problem:
            raise MissingArtifactsError(f"{path} outcome {u} {problem}; re-run the command that wrote it")


def _outcome_row_problem(row) -> str | None:
    if not isinstance(row, dict):
        return "is not an object"
    for key, valid in _OUTCOME_FIELDS.items():
        if key not in row:
            return f"has no {key!r}"
        if not valid(row[key]):
            return f"has {key!r} = {row[key]!r}"
    return None


def _audit_one_run(prepared, method, ledger, outcomes, reproduced: bool) -> dict:
    """Passes when re-running the method reproduced the run and, for sifu and
    ifu (last never truncates; scratch and finetune have no budget), each
    request's targets stay within psi* at the perturbation that covers them in
    the surviving timeline.  `ledger` and `outcomes` are the re-run's.
    worst_slack is None where no psi* comparison ran."""
    if ledger is None:
        return {"name": f"rerun:{method}", "pass": reproduced, "worst_slack": None, "tightness": None}
    psi_star = prepared.config.budget.psi_star
    passed, worst = reproduced, None
    positions = [row["rollback_position"] for row in outcomes]
    if method != "last" and outcomes:
        # the perturbation covering request u sits at the smallest rollback
        # position among request u and all later ones
        worst = max(
            ledger.set_sensitivity(row["targets"], min(positions[u:])) - psi_star
            for u, row in enumerate(outcomes)
        )
        passed = passed and worst <= 1e-9
    return {"name": f"budget_audit:{method}", "pass": passed, "worst_slack": worst, "tightness": None}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(run_dir: Path) -> Path:
    """Summarise completed unlearning runs into per-metric CSV files."""
    t_start = time.perf_counter()
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        raise MissingArtifactsError(f"missing config copy: {config_path}")
    config = parse_config(config_path.read_text())
    t_prepare = time.perf_counter()
    prepared = prepared_for(config)
    prepare_seconds = time.perf_counter() - t_prepare
    spec = prepared.spec

    methods = {method: _load_unlearn(out_dir, prepared, method) for method, out_dir in _unlearn_runs(run_dir)}
    if not methods:
        raise MissingArtifactsError(f"no completed unlearning runs under {run_dir}")

    forgotten = sorted({c for req in config.requests for c in req})
    # the config leaves a client of positive weight after every request
    survivors = prepared.fed.cohort(set(range(prepared.client_count)) - set(forgotten), spec)
    report_dir = run_dir / "report"
    if report_dir.exists():  # no table of an earlier report may outlive it
        shutil.rmtree(report_dir)
    report_dir.mkdir()

    rounds_rows = []
    retained_rows = []
    forget_rows = []
    for method in sorted(methods):
        outcomes, final_model = methods[method]
        total_rounds = sum(row["retrain_rounds"] for row in outcomes)
        retained = federation_loss(survivors, final_model)
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
    _write_timings(report_dir, {"report_seconds": time.perf_counter() - t_start, "prepare_seconds": prepare_seconds})
    return report_dir


def _metric_kind(spec) -> str:
    return "accuracy" if spec.kind is ModelKind.LOGISTIC else "mse"


def _forget_metric(spec, prepared, forgotten, theta) -> float:
    """Mean metric of the final model over the forgotten clients, each of
    which holds the same number of samples."""
    if not forgotten:
        return float("nan")
    fed = prepared.fed
    share = 1.0 / len(forgotten)
    value = 0.0
    for c in forgotten:
        if spec.kind is ModelKind.LOGISTIC:
            value += share * models.accuracy(spec, fed.features[c], fed.targets[c], theta)
        else:
            value += share * 2.0 * models.data_loss(spec, fed.features[c], fed.targets[c], theta)
    return value
