import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_near, round_increments
from fedunlearn import models, oracle, runner, unlearn
from fedunlearn.cli import main
from fedunlearn.config import load_config, parse_config
from fedunlearn.engine import kernel_round, read_checkpoint, renormalized_weights, write_checkpoint
from fedunlearn.errors import DivergedTrainingError
from fedunlearn.runner import prepare
from fedunlearn.sensitivity import SensitivityLedger
from fedunlearn.serialize import dumps17


def base_doc(name="cli_unit"):
    return {
        "name": name,
        "model": {"kind": "ridge", "dims": [3], "l2": 0.1},
        "data": {
            "clients": 3,
            "samples_per_client": 10,
            "features": 3,
            "heterogeneity": 0.5,
            "seed": 7,
            "noise": 0.1,
        },
        "federation": {
            "eta": "2/(beta+mu)",
            "local_steps": 1,
            "rounds": 6,
            "seed": 3,
            "init": "normal",
        },
        "budget": {"epsilon": 1.0, "delta": 0.05, "sigma": 0.4},
        "checkpoint_interval": 1,
        "requests": [[0]],
        "stopping": {"loss_threshold": "inf", "min_rounds": 2, "max_rounds": 10},
    }


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDUNLEARN_OUT", str(tmp_path / "runs"))
    return tmp_path


def write_doc(workdir, doc):
    path = workdir / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_dir(workdir, doc):
    return Path(workdir / "runs" / doc["name"])


def snapshot(root: Path, skip=("timings.json",)):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def test_train_writes_the_advertised_artifacts(workdir):
    doc = base_doc()
    assert main(["train", write_doc(workdir, doc)]) == 0
    train = run_dir(workdir, doc) / "train"
    assert (train / "ledger.ckpt").exists()
    assert (train / "manifest.json").exists()
    assert (train / "timings.json").exists()
    assert (run_dir(workdir, doc) / "config.json").exists()
    end, models_kept, _ = read_checkpoint(train / "history.ckpt")
    assert (end, models_kept.shape) == (6, (7, 3))
    metrics = (train / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 6
    first = json.loads(metrics[0])
    assert set(first) == {"round", "max_delta", "max_psi"}
    assert not (train / "rollback").exists()


def test_train_artifacts_match_a_hand_written_round_loop(workdir):
    doc = base_doc("cli_hand")
    doc["federation"]["rounds"] = 7
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    train = run_dir(workdir, doc) / "train"

    prepared = prepare(load_config(config))
    spec, fed, rounds = prepared.spec, prepared.fed, prepared.config.rounds
    everyone = fed.cohort(range(fed.client_count), spec)
    # the weights kernel_round aggregates with, renormalised even with no client out
    assert everyone.weights.tobytes() == renormalized_weights(fed.weights, set()).tobytes()
    # train steps this ridge cohort by its aggregate map: it meets the
    # per-round loop to rounding
    assert everyone.affine is not None
    ledger = SensitivityLedger(prepared.contraction, fed.local_steps, fed.client_count)
    theta, rows, kept = prepared.theta0, [], [prepared.theta0]
    for n in range(rounds):
        client_models, theta = kernel_round(everyone, theta, n)
        deltas = dict(enumerate(round_increments(everyone, client_models, theta).tolist()))
        ledger.extend([[deltas[c] for c in everyone.active]])
        rows.append({"round": n, "max_delta": max(deltas.values()), "max_psi": float(ledger.psi[-1].max())})
        kept.append(theta)

    end, block, digest = read_checkpoint(train / "ledger.ckpt")
    assert (end, digest, block.shape) == (rounds, prepared.digest, ledger.deltas.shape)
    assert_near(block, ledger.deltas)
    # loading rebuilds the file's deltas and their Psi recurrence bit for bit
    _, loaded = runner._load_train(train, prepared, with_ledger=True)
    looped = SensitivityLedger(prepared.contraction, fed.local_steps, fed.client_count)
    for row in block:
        looped.extend([row])
    assert loaded.deltas.tobytes() == block.tobytes()
    assert loaded.psi.tobytes() == looped.psi.tobytes()
    assert_near(loaded.psi, ledger.psi)
    written_rows = [json.loads(line) for line in (train / "metrics.jsonl").read_text().splitlines()]
    assert [sorted(row) for row in written_rows] == [sorted(row) for row in rows]
    assert [row["round"] for row in written_rows] == list(range(rounds))
    for key in ("max_delta", "max_psi"):
        assert_near([row[key] for row in written_rows], [row[key] for row in rows])
    assert [row["max_delta"] for row in written_rows] == loaded.deltas.max(axis=1).tolist()
    assert [row["max_psi"] for row in written_rows] == loaded.psi[1:].max(axis=1).tolist()
    end, written, digest = read_checkpoint(train / "history.ckpt")
    assert (end, digest, len(kept)) == (7, prepared.digest, 8)
    assert written[0].tobytes() == prepared.theta0.tobytes()
    assert_near(written, np.array(kept))


def test_train_twice_is_byte_identical(workdir):
    doc = base_doc()
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    first = snapshot(run_dir(workdir, doc))
    assert main(["train", config]) == 0
    second = snapshot(run_dir(workdir, doc))
    assert first == second


def test_zero_round_training(workdir):
    doc = base_doc("cli_zero")
    doc["federation"]["rounds"] = 0
    doc["requests"] = []
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    train = run_dir(workdir, doc) / "train"
    end, theta0, _ = read_checkpoint(train / "history.ckpt")
    assert end == 0
    assert theta0.tobytes() == prepare(load_config(config)).theta0.tobytes()
    # no rounds, no ledger file: the checkpoint format holds no empty block
    assert not (train / "ledger.ckpt").exists()
    assert (train / "metrics.jsonl").read_text() == ""
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    assert main(["verify", config]) == 0


def test_unlearn_sifu_artifacts(workdir):
    doc = base_doc()
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    out = run_dir(workdir, doc) / "unlearn_sifu"
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["method"] == "sifu"
    assert [row["request_index"] for row in outcomes["outcomes"]] == [1]
    assert outcomes["outcomes"][0]["targets"] == [0]
    round_index, values, _ = read_checkpoint(out / "final_model.ckpt")
    assert values.shape == (3,)
    # the final model ends the retraining that follows the rollback
    assert round_index == outcomes["outcomes"][0]["rollback_position"] + outcomes["outcomes"][0]["retrain_rounds"]
    assert not (out / "ledger.ckpt").exists()
    assert not (out / "metrics.jsonl").exists()


def test_unlearn_all_methods_and_report(workdir):
    doc = base_doc()
    doc["requests"] = [[0], [2]]
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch", "finetune", "last"):
        assert main(["unlearn", config, "--method", method]) == 0
    # last's final model ends its retraining rounds, after train's six
    last = run_dir(workdir, doc) / "unlearn_last"
    retrained = sum(row["retrain_rounds"] for row in json.loads((last / "outcomes.json").read_text())["outcomes"])
    end, _, _ = read_checkpoint(last / "final_model.ckpt")
    assert end == 6 + retrained
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    report = run_dir(workdir, doc) / "report"
    rounds = (report / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "method,total_retrain_rounds"
    assert {line.split(",")[0] for line in rounds[1:]} == {"sifu", "scratch", "finetune", "last"}
    retained = (report / "retained_loss.csv").read_text().splitlines()
    assert retained[0] == "method,retained_loss"
    forget = (report / "forget.csv").read_text().splitlines()
    assert forget[0] == "method,forget_metric,metric_kind"
    assert all(line.endswith(",mse") for line in forget[1:])
    distance = dict(
        line.split(",") for line in (report / "distance_to_scratch.csv").read_text().splitlines()[1:]
    )
    assert distance["scratch"] == "0"


def test_report_without_scratch_skips_distances(workdir):
    doc = base_doc("cli_nodist")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    assert not (run_dir(workdir, doc) / "report" / "distance_to_scratch.csv").exists()


def test_report_tabulates_only_the_runs_verify_audits(workdir):
    doc = base_doc("cli_report_methods")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch"):
        assert main(["unlearn", config, "--method", method]) == 0
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    report = run_dir(workdir, doc) / "report"
    honest = snapshot(report)
    # a copied run whose suffix names no method is neither audited nor tabulated
    shutil.copytree(run_dir(workdir, doc) / "unlearn_sifu", run_dir(workdir, doc) / "unlearn_sifu_old")
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    assert snapshot(report) == honest
    assert main(["verify", config]) == 0


def test_report_drops_the_tables_of_a_run_deleted_since_the_last_report(workdir):
    doc = base_doc("cli_report_fresh")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch"):
        assert main(["unlearn", config, "--method", method]) == 0
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    report = run_dir(workdir, doc) / "report"
    assert (report / "distance_to_scratch.csv").exists()
    shutil.rmtree(run_dir(workdir, doc) / "unlearn_scratch")
    (report / "stale.csv").write_text("method\n")
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    # every table is of the runs the directory holds now
    assert sorted(p.name for p in report.iterdir()) == ["forget.csv", "retained_loss.csv", "rounds.csv", "timings.json"]
    for table in ("forget.csv", "retained_loss.csv", "rounds.csv"):
        assert [line.split(",")[0] for line in (report / table).read_text().splitlines()[1:]] == ["sifu"]


def test_a_request_naming_a_client_twice_is_refused(workdir, capsys):
    doc = base_doc("cli_repeated_client")
    doc["requests"] = [[1, 1], [2]]
    config = write_doc(workdir, doc)
    for command in (["train", config], ["unlearn", config, "--method", "sifu"], ["unlearn", config, "--method", "ifu"]):
        assert main(command) == 2
        assert "request [1, 1] names a client more than once" in capsys.readouterr().err
    assert not run_dir(workdir, doc).exists()


def test_scratch_needs_no_training_artifacts(workdir):
    doc = base_doc("cli_scratch")
    config = write_doc(workdir, doc)
    assert main(["unlearn", config, "--method", "scratch"]) == 0
    outcomes = json.loads(
        (run_dir(workdir, doc) / "unlearn_scratch" / "outcomes.json").read_text()
    )
    row = outcomes["outcomes"][0]
    assert row["rollback_position"] == 0
    assert row["sigma"] == 0.0


def test_empty_request_list_is_a_no_op(workdir):
    doc = base_doc("cli_empty")
    doc["requests"] = []
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "last", "scratch", "finetune"):
        assert main(["unlearn", config, "--method", method]) == 0
        out = run_dir(workdir, doc) / f"unlearn_{method}"
        assert json.loads((out / "outcomes.json").read_text())["outcomes"] == []
        # no unlearn run writes a ledger file
        assert not (out / "ledger.ckpt").exists()
        assert "ledger.ckpt" not in json.loads((out / "manifest.json").read_text())["outputs"]
    # scratch's final model sits at position 0, every other method's at rounds
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    assert main(["verify", config]) == 0
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    names = {check["name"] for check in report["checks"]}
    assert {"budget_audit:sifu", "budget_audit:last", "rerun:scratch", "rerun:finetune"} <= names
    # no request, so no psi* comparison ran and no slack is reported; nor
    # does the re-run of train, the fifth
    audits = [check for check in report["checks"] if check["name"].startswith(("budget_audit:", "rerun:"))]
    assert [check["worst_slack"] for check in audits] == [None] * 5


def test_only_a_psi_star_comparison_reports_a_budget_slack(workdir, capsys):
    doc = base_doc("cli_audit_slack")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "last"):
        assert main(["unlearn", config, "--method", method]) == 0
    assert main(["verify", config]) == 0
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    slack = {check["name"]: check["worst_slack"] for check in report["checks"]}
    # last never truncates, so its audit compares nothing with psi*
    assert slack["budget_audit:last"] is None
    assert slack["budget_audit:sifu"] <= 1e-9
    assert "PASS budget_audit:last worst_slack=None" in capsys.readouterr().out


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_the_budget_audit_reads_the_set_psi_of_the_rerun_ledger(workdir, monkeypatch, sigma):
    """worst_slack is the max over requests u of Psi(min(positions[u:]), S_u)
    - psi*, with Psi(n, S) the max over S of the re-run ledger's psi row.
    sigma 1.0 rolls back inside the run, 2.0 to its end."""
    doc = base_doc("cli_audit_set")
    doc["data"]["clients"] = 5
    doc["federation"]["rounds"] = 10
    doc["budget"]["sigma"] = sigma
    doc["requests"] = [[0, 3], [1]]
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    reruns = []

    def recording(*args):
        state, rows = run_requests(*args)
        reruns.append((state.ledger, rows))
        return state, rows

    run_requests = runner._run_requests
    monkeypatch.setattr(runner, "_run_requests", recording)
    assert main(["verify", config]) == 0
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    (audit,) = [check for check in report["checks"] if check["name"] == "budget_audit:sifu"]
    ((ledger, rows),) = reruns
    psi, psi_star = ledger.psi, load_config(config).budget.psi_star
    positions = [row["rollback_position"] for row in rows]
    covering = [min(positions[u:]) for u in range(len(rows))]
    worst = [float(psi[n, row["targets"]].max()) for n, row in zip(covering, rows)]
    assert worst == [ledger.set_sensitivity(row["targets"], n) for n, row in zip(covering, rows)]
    assert audit["worst_slack"] == max(value - psi_star for value in worst)


def test_verify_passes_on_honest_runs(workdir, capsys):
    doc = base_doc()
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    assert main(["verify", config]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert "FAIL" not in out
    assert (run_dir(workdir, doc) / "verify_report.json").exists()


def rewrite_ledger(path: Path, edit) -> None:
    """Rewrite a ledger file through edit(end, block) -> (end, block), keeping its digest."""
    end, block, digest = read_checkpoint(path)
    end, block = edit(end, block.reshape(-1, block.shape[-1]).copy())
    write_checkpoint(path, end, block, digest)


def halve_a_positive_delta(ledger_path: Path) -> None:
    """Halve the first positive delta of the file."""

    def edit(end, block):
        row, column = np.argwhere(block > 0)[0]
        block[row, column] *= 0.5
        return end, block

    rewrite_ledger(ledger_path, edit)


@pytest.mark.parametrize(
    "method, edit",
    # sigma: one outcome's sigma one ulp up; outcomes.json: its retained loss; final_model.ckpt: every value
    [("sifu", "sigma"), ("last", "sigma"), ("last", "final_model.ckpt"), ("sifu", "outcomes.json")],
)
def test_verify_reruns_each_ledger_method(workdir, capsys, method, edit):
    doc = base_doc(f"cli_rerun_{method}_{edit.split('.')[0]}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", method]) == 0
    assert main(["verify", config]) == 0
    out = run_dir(workdir, doc) / f"unlearn_{method}"
    if edit == "final_model.ckpt":
        end, model, digest = read_checkpoint(out / edit)
        write_checkpoint(out / edit, end, model + 1e-12, digest)
    else:
        doc_out = json.loads((out / "outcomes.json").read_text())
        row = doc_out["outcomes"][0]
        if edit == "sigma":
            row["sigma"] = float(np.nextafter(row["sigma"], np.inf))
        else:
            row["final_retained_loss"] *= 1 + 1e-15
        (out / "outcomes.json").write_text(dumps17(doc_out, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", config]) == 1
    assert f"FAIL budget_audit:{method}" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["scratch", "finetune"])
def test_verify_reruns_the_methods_without_a_ledger(workdir, capsys, method):
    doc = base_doc(f"cli_rerun_{method}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", method]) == 0
    assert main(["verify", config]) == 0
    path = run_dir(workdir, doc) / f"unlearn_{method}" / "final_model.ckpt"
    end, model, digest = read_checkpoint(path)
    model[0] *= 2.0
    write_checkpoint(path, end, model, digest)
    capsys.readouterr()
    assert main(["verify", config]) == 1
    assert f"FAIL rerun:{method}" in capsys.readouterr().out


def test_a_stale_unlearn_ledger_is_ignored(workdir):
    # earlier versions wrote unlearn_<method>/ledger.ckpt; verify rebuilds the
    # run's ledger by re-running it and reads no such file
    doc = base_doc("cli_stale_unlearn_ledger")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    assert main(["verify", config]) == 0
    report = run_dir(workdir, doc) / "verify_report.json"
    honest = report.read_bytes()
    (run_dir(workdir, doc) / "unlearn_sifu" / "ledger.ckpt").write_bytes(b"stale")
    assert main(["verify", config]) == 0
    assert report.read_bytes() == honest


def test_verify_catches_a_tampered_train_ledger(workdir, capsys):
    doc = base_doc("cli_train_ledger")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    halve_a_positive_delta(run_dir(workdir, doc) / "train" / "ledger.ckpt")
    assert main(["verify", config]) == 1
    assert "FAIL rerun:train" in capsys.readouterr().out


def test_verify_holds_the_train_ledger_bit_for_bit(workdir, capsys):
    # verify re-runs training and requires every ledger delta bit for bit,
    # so one ulp fails the re-run and nothing else
    doc = base_doc("cli_train_ulp")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0

    def nudge(end, block):
        row, column = np.argwhere(block > 0)[-1]
        block[row, column] = np.nextafter(block[row, column], np.inf)
        return end, block

    rewrite_ledger(run_dir(workdir, doc) / "train" / "ledger.ckpt", nudge)
    assert main(["verify", config]) == 1
    out = capsys.readouterr().out
    assert "FAIL rerun:train" in out
    assert out.count("FAIL ") == 1


def test_verify_reports_the_contractivity_margin(workdir):
    doc = base_doc("cli_contractivity")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["verify", config]) == 0
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    (check,) = [check for check in report["checks"] if check["name"] == "contractivity"]
    assert check["pass"] and check["worst_slack"] < 0.0


@pytest.mark.parametrize("position", [0, 3, 6])
def test_verify_catches_a_tampered_train_history(workdir, capsys, position):
    doc = base_doc(f"cli_train_history_{position}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    path = run_dir(workdir, doc) / "train" / "history.ckpt"
    blob = bytearray(path.read_bytes())
    offset = 52 + 8 * 3 * position  # the first value of the model at `position`
    value = np.frombuffer(blob, dtype="<f8", count=1, offset=offset)[0]
    blob[offset : offset + 8] = np.array([value + 1e-9], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    assert main(["verify", config]) == 1
    assert "FAIL rerun:train" in capsys.readouterr().out


def ridge_benchmark_with(name, weights, requests):
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "scripts" / "ridge_benchmark.json").read_text())
    doc["name"] = name
    doc["federation"]["weights"] = weights
    doc["requests"] = requests
    return doc


def test_verify_passes_a_client_at_nearly_full_weight(workdir, capsys):
    # the checked-in ridge benchmark with client 0 at weight 1 - 1e-6, where
    # the closed-form increment p/(1 - p) * ||theta_c - theta_agg|| loses
    # digits to cancellation; verify still passes the run train recorded
    doc = ridge_benchmark_with("cli_near_full_weight", [0.999999] + [2.5e-7] * 4, [[1]])
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    capsys.readouterr()
    assert main(["verify", config]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "weights, requests, client, where",
    [
        ([1 - 1e-8] + [2.5e-9] * 4, [[1]], 0, "in the federation"),
        ([1 - 1e-9] + [2.5e-10] * 4, [[1]], 0, "in the federation"),
        ([1 - 1e-8] + [2.5e-9] * 4, [], 0, "in the federation"),
        # without client 0, client 1 carries 1 - 6e-9
        ([0.5, 0.5 - 3e-9, 1e-9, 1e-9, 1e-9], [[0], [2]], 1, "after request 1"),
    ],
    ids=["1e-8", "1e-9", "1e-8-no-requests", "renormalised-by-a-request"],
)
def test_a_client_within_1e_6_of_the_full_weight_is_refused(workdir, capsys, weights, requests, client, where):
    # at 1 - 1e-8 and 1 - 1e-9, train used to pass and verify then failed
    # bound:client0 at round 1: the closed-form increment's cancelled gap,
    # scaled by p / (1 - p), lost digits
    doc = ridge_benchmark_with("cli_near_full_refused", weights, requests)
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 2
    err = capsys.readouterr().err
    assert f"client {client} carries weight 0.99999999" in err
    assert f"{where}, within 1e-06 of the full aggregation weight" in err
    assert not run_dir(workdir, doc).exists()


def test_a_cohort_whose_weight_sits_on_one_client_books_no_increments(workdir, capsys):
    # without client 0, client 1 carries the whole weight: no run without it
    # to bound, as for a cohort of one client
    doc = ridge_benchmark_with("cli_one_weighted_survivor", [0.5, 0.5, 0.0, 0.0, 0.0], [[0]])
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch"):
        assert main(["unlearn", config, "--method", method]) == 0
    capsys.readouterr()
    assert main(["verify", config]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "weights, requests, message",
    [
        ([1.0, 0.0, 0.0, 0.0, 0.0], [[1]], "at least two clients must carry positive weight"),
        ([0.5, 0.5, 0.0, 0.0, 0.0], [[0, 1]], "every client of positive weight"),
        ([0.5, 0.5, 0.0, 0.0, 0.0], [[0], [1]], "every client of positive weight"),
    ],
    ids=["one-weighted-client", "request-removes-the-weight", "requests-remove-the-weight"],
)
def test_weights_that_leave_one_client_nothing_to_certify_are_refused(workdir, capsys, weights, requests, message):
    doc = ridge_benchmark_with("cli_refused_weights", weights, requests)
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 2
    assert message in capsys.readouterr().err
    assert main(["unlearn", config, "--method", "sifu"]) == 2
    assert not run_dir(workdir, doc).exists()


def test_verify_holds_the_train_metrics_bit_for_bit(workdir, capsys):
    doc = base_doc("cli_train_metrics")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    path = run_dir(workdir, doc) / "train" / "metrics.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[3])
    row["max_psi"] = float(np.nextafter(row["max_psi"], np.inf))
    lines[3] = dumps17(row) + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["verify", config]) == 1
    out = capsys.readouterr().out
    assert "FAIL rerun:train" in out
    assert out.count("FAIL ") == 1


@pytest.mark.parametrize("damage", ["missing", "directory"])
def test_verify_refuses_unreadable_train_metrics(workdir, capsys, damage):
    doc = base_doc(f"cli_train_metrics_{damage}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    path = run_dir(workdir, doc) / "train" / "metrics.jsonl"
    path.unlink()
    if damage == "directory":
        path.mkdir()
    capsys.readouterr()
    assert main(["verify", config]) == 2
    assert "re-run the command that wrote it" in capsys.readouterr().err
    assert not (run_dir(workdir, doc) / "verify_report.json").exists()


def with_a_segment_column(segment):
    """An edit to the earlier (rows, 1 + C) ledger layout, each row led by the
    index of the request whose retraining recorded it."""
    return lambda end, block: (end, np.column_stack((np.full(len(block), segment), block)))


def set_cell(row, column, value):
    def edit(end, block):
        block[row, column] = value
        return end, block

    return edit


def assert_train_ledger_refused(workdir, capsys, doc, message):
    """verify and the ledger-backed unlearn methods exit 2 naming `message`,
    and write neither verify_report.json nor an unlearn directory."""
    config = str(workdir / f"{doc['name']}.json")
    capsys.readouterr()
    assert main(["verify", config]) == 2
    assert message in capsys.readouterr().err
    assert not (run_dir(workdir, doc) / "verify_report.json").exists()
    for method in ("sifu", "last"):
        assert main(["unlearn", config, "--method", method]) == 2
        assert message in capsys.readouterr().err
        assert not (run_dir(workdir, doc) / f"unlearn_{method}").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_cell(4, 0, np.nan), "ledger.ckpt round 4: non-finite increment for client 0"),
        (set_cell(2, 2, np.inf), "ledger.ckpt round 2: non-finite increment for client 2"),
        (set_cell(3, 1, -0.5), "ledger.ckpt round 3: negative increment for client 1"),
        (lambda end, block: (end, block[:, :2]), "ledger.ckpt holds a 6x2 block ending at round 6, expected 6x3"),
        (lambda end, block: (end - 1, block[:-1]), "holds a 5x3 block ending at round 5, expected 6x3 ending at round 6"),
        (lambda end, block: (10**15, block), f"holds a 6x3 block ending at round {10**15}, expected 6x3 ending at round 6"),
        (with_a_segment_column(0.0), "ledger.ckpt holds a 6x4 block ending at round 6, expected 6x3"),
    ],
    ids=["nan-delta", "inf-delta", "negative-delta", "narrow", "short", "position", "segment-column"],
)
def test_a_damaged_train_ledger_is_a_usage_error(workdir, capsys, edit, message):
    doc = base_doc("cli_damaged_ledger")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    rewrite_ledger(run_dir(workdir, doc) / "train" / "ledger.ckpt", edit)
    assert_train_ledger_refused(workdir, capsys, doc, message)


@pytest.mark.parametrize("directory", ["train"])
def test_a_truncated_ledger_is_refused(workdir, capsys, directory):
    doc = base_doc(f"cli_cut_ledger_{directory}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    path = run_dir(workdir, doc) / directory / "ledger.ckpt"
    path.write_bytes(path.read_bytes()[:-4])
    assert_train_ledger_refused(workdir, capsys, doc, "ledger.ckpt: truncated checkpoint")


def test_an_unlearn_run_starting_after_train_is_refused(workdir, capsys):
    doc = base_doc("cli_late_start")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "last"]) == 0
    # an outcomes.json whose one request rolls back after train's rounds, where
    # the final model ends: it loads, but re-running last does not give it
    path = run_dir(workdir, doc) / "unlearn_last" / "outcomes.json"
    outcomes = json.loads(path.read_text())
    row = outcomes["outcomes"][0]
    row["rollback_position"], row["retrain_rounds"] = row["rollback_position"] + row["retrain_rounds"], 0
    path.write_text(dumps17(outcomes, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", config]) == 1
    assert "FAIL budget_audit:last" in capsys.readouterr().out


def test_a_ledger_of_another_config_is_refused(workdir, capsys):
    doc = base_doc("cli_ledger_digest")
    config = write_doc(workdir, doc)
    other = base_doc("cli_ledger_digest_other")
    other["budget"]["sigma"] = 0.2
    assert main(["train", config]) == 0
    assert main(["train", write_doc(workdir, other)]) == 0
    own = run_dir(workdir, doc) / "train" / "ledger.ckpt"
    own.write_bytes((run_dir(workdir, other) / "train" / "ledger.ckpt").read_bytes())
    assert_train_ledger_refused(workdir, capsys, doc, "ledger.ckpt was produced by a different config")


def test_verify_before_train_is_a_usage_error(workdir, capsys):
    doc = base_doc("cli_verify_first")
    config = write_doc(workdir, doc)
    assert main(["verify", config]) == 2
    assert "missing manifest" in capsys.readouterr().err
    assert not (run_dir(workdir, doc) / "verify_report.json").exists()


def test_a_crashed_unlearn_leaves_a_directory_verify_and_report_refuse(workdir, capsys, monkeypatch):
    doc = base_doc("cli_unlearn_crash")
    doc["requests"] = [[0], [2]]
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    real_sifu = runner.sifu

    def crashing(state, request, *args):
        if request.request_index == 2:
            raise DivergedTrainingError("diverged on the second request")
        return real_sifu(state, request, *args)

    monkeypatch.setattr(runner, "sifu", crashing)
    assert main(["unlearn", config, "--method", "sifu"]) == 3
    assert not (run_dir(workdir, doc) / "unlearn_sifu" / "manifest.json").exists()
    capsys.readouterr()
    assert main(["verify", config]) == 2
    assert "missing manifest" in capsys.readouterr().err
    assert main(["report", str(run_dir(workdir, doc))]) == 2
    assert "missing manifest" in capsys.readouterr().err


def test_verify_flags_partial_unlearn_directories(workdir):
    doc = base_doc()
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    (run_dir(workdir, doc) / "unlearn_sifu" / "outcomes.json").unlink()
    assert main(["verify", config]) == 2


def test_verify_names_the_first_violating_round(workdir, capsys, monkeypatch):
    doc = base_doc("cli_violation")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["verify", config]) == 0
    honest = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    assert all("first_violation" not in check for check in honest["checks"])
    capsys.readouterr()

    # a ledger trained with a shrunk per-round decay undershoots the true gap
    monkeypatch.setattr(SensitivityLedger, "round_decay", 0.01)
    assert main(["train", config]) == 0
    assert main(["verify", config]) == 1
    out = capsys.readouterr().out
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    prepared = prepare(load_config(config))
    train = run_dir(workdir, doc) / "train"
    history, ledger = runner._load_train(train, prepared, with_ledger=True)
    alphas = oracle.empirical_sensitivity(prepared.fed, prepared.spec, history)
    failed = [check for check in report["checks"] if not check["pass"]]
    assert failed and all(check["name"].startswith("bound:client") for check in failed)
    for check in failed:
        client = int(check["name"].removeprefix("bound:client"))
        first = oracle.check_bound(alphas[:, client], ledger.psi[:, client], tol=1e-8).first_violation
        assert check["first_violation"] == first >= 1
        assert f"FAIL {check['name']} worst_slack=" in out
        assert f"first_violation=round {first}\n" in out
    for check in report["checks"]:
        assert ("first_violation" in check) == (not check["pass"])


def count_verify_federations(workdir, monkeypatch, doc):
    """retrain_until calls and all-client rounds of one verify after train."""
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    calls = {"retrain_until": 0, "all-client rounds": 0}
    real_retrain, real_round, real_affine = unlearn.retrain_until, unlearn.kernel_round, unlearn.affine_round

    def retrain(*args, **kwargs):
        calls["retrain_until"] += 1
        return real_retrain(*args, **kwargs)

    def counted_round(cohort, theta, n, first_grads=None):
        calls["all-client rounds"] += cohort.active == (0, 1, 2)
        return real_round(cohort, theta, n, first_grads)

    def affine_round(cohort, theta, n):
        # a ridge cohort's round: its aggregate map instead of kernel_round
        calls["all-client rounds"] += cohort.active == (0, 1, 2)
        return real_affine(cohort, theta, n)

    for module in (runner, oracle):
        monkeypatch.setattr(module, "retrain_until", retrain)
    monkeypatch.setattr(unlearn, "kernel_round", counted_round)
    monkeypatch.setattr(unlearn, "affine_round", affine_round)
    assert main(["verify", config]) == 0
    return calls


def test_verify_runs_the_federation_once_per_client(workdir, monkeypatch):
    doc = base_doc("cli_calls")
    doc["model"] = {"kind": "logistic", "dims": [3], "l2": 0.0}
    doc["federation"]["eta"] = "1/beta"
    # one leave-one-out run per client, and one re-run of train; the oracle
    # reads the all-client run from train's artifacts
    assert count_verify_federations(workdir, monkeypatch, doc) == {
        "retrain_until": 3 + 1,
        "all-client rounds": doc["federation"]["rounds"],
    }


def test_verify_runs_no_leave_one_out_federation_for_ridge(workdir, monkeypatch):
    doc = base_doc("cli_calls_ridge")
    # ridge takes the leave-one-out runs from the closed form; the one
    # retrain_until call is the re-run of train
    assert count_verify_federations(workdir, monkeypatch, doc) == {
        "retrain_until": 1,
        "all-client rounds": doc["federation"]["rounds"],
    }


def test_verify_certifies_the_psi_that_train_records(workdir, monkeypatch):
    doc = base_doc("cli_same_psi")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    gaps, checked = [], []
    original, original_check = runner.empirical_sensitivity, runner.check_bound

    def recording(*args):
        gaps.append(original(*args))
        return gaps[-1]

    def recording_check(alphas, psis, **kwargs):
        checked.append((alphas, psis))
        return original_check(alphas, psis, **kwargs)

    monkeypatch.setattr(runner, "empirical_sensitivity", recording)
    monkeypatch.setattr(runner, "check_bound", recording_check)
    assert main(["verify", config]) == 0
    prepared = prepare(load_config(config))
    ledger = SensitivityLedger(prepared.contraction, prepared.config.local_steps, prepared.client_count)
    for row in read_checkpoint(run_dir(workdir, doc) / "train" / "ledger.ckpt")[1]:
        ledger.extend([row])
    assert len(gaps) == 1 and gaps[0].shape == ledger.psi.shape == (doc["federation"]["rounds"] + 1, 3)
    assert len(checked) == 3
    for client, (alphas, psis) in enumerate(checked):
        assert alphas.tobytes() == gaps[0][:, client].tobytes()
        assert psis.tobytes() == ledger.psi[:, client].tobytes()


def test_verify_and_report_refuse_unlearn_runs_of_another_config(workdir, capsys):
    doc = base_doc("cli_stale")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    doc["budget"]["sigma"] = 0.01
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    capsys.readouterr()
    assert main(["verify", config]) == 2
    assert "unlearn_sifu were produced by a different config" in capsys.readouterr().err
    assert not (run_dir(workdir, doc) / "verify_report.json").exists()
    assert main(["report", str(run_dir(workdir, doc))]) == 2
    assert "unlearn_sifu were produced by a different config" in capsys.readouterr().err


def test_refused_unlearn_leaves_the_run_untouched(workdir, capsys):
    doc = base_doc("cli_refused")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    before = snapshot(run_dir(workdir, doc), skip=())

    changed = json.loads(json.dumps(doc))
    changed["budget"]["sigma"] = 0.2
    other = workdir / "cli_refused_sigma.json"
    other.write_text(json.dumps(changed))
    assert main(["unlearn", str(other), "--method", "sifu"]) == 2
    assert "different config" in capsys.readouterr().err
    assert snapshot(run_dir(workdir, doc), skip=()) == before
    assert main(["verify", config]) == 0


def test_checkpoints_from_another_config_are_refused(workdir, capsys):
    doc = base_doc("cli_digest")
    config = write_doc(workdir, doc)
    other = base_doc("cli_digest_other")
    other["budget"]["sigma"] = 0.2
    assert main(["train", config]) == 0
    assert main(["train", write_doc(workdir, other)]) == 0
    foreign = run_dir(workdir, other) / "train" / "history.ckpt"
    own = run_dir(workdir, doc) / "train" / "history.ckpt"
    assert foreign.read_bytes()[52:] == own.read_bytes()[52:]
    own.write_bytes(foreign.read_bytes())
    for method in ("sifu", "finetune"):
        assert main(["unlearn", config, "--method", method]) == 2
        assert "history.ckpt was produced by a different config" in capsys.readouterr().err
        assert not (run_dir(workdir, doc) / f"unlearn_{method}").exists()

    # a final model with this run's position and values but another config's digest
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    final = run_dir(workdir, doc) / "unlearn_sifu" / "final_model.ckpt"
    blob = final.read_bytes()
    final.write_bytes(blob[:20] + foreign.read_bytes()[20:52] + blob[52:])
    before = snapshot(run_dir(workdir, doc), skip=())
    capsys.readouterr()
    for command in (["verify", config], ["report", str(run_dir(workdir, doc))]):
        assert main(command) == 2
        assert "final_model.ckpt was produced by a different config" in capsys.readouterr().err
    assert snapshot(run_dir(workdir, doc), skip=()) == before


def test_a_ledger_shorter_than_the_checkpoints_is_refused(workdir, capsys):
    doc = base_doc("cli_short_ledger")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    ledger_path = run_dir(workdir, doc) / "train" / "ledger.ckpt"
    rewrite_ledger(ledger_path, lambda end, block: (end, block[:-1]))  # drop the last round, keep the header's
    message = "ledger.ckpt holds a 5x3 block ending at round 6, expected 6x3 ending at round 6"
    assert_train_ledger_refused(workdir, capsys, doc, message)


def test_a_checkpoint_interval_other_than_one_is_refused(workdir, capsys):
    doc = base_doc("cli_sparse")
    doc["checkpoint_interval"] = 2
    config = write_doc(workdir, doc)
    for command in (["train", config], ["unlearn", config, "--method", "scratch"], ["verify", config]):
        assert main(command) == 2
        assert "checkpoint_interval must be 1" in capsys.readouterr().err
    assert not run_dir(workdir, doc).exists()


def test_ifu_requires_singleton_requests(workdir):
    doc = base_doc("cli_ifu")
    doc["requests"] = [[0, 1]]
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "ifu"]) == 2
    assert not (run_dir(workdir, doc) / "unlearn_ifu").exists()


def test_usage_errors(workdir, tmp_path):
    assert main(["nonsense"]) == 2
    assert main(["unlearn", "whatever.json"]) == 2
    assert main(["train", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["train", str(bad)]) == 2
    assert main(["report", str(tmp_path / "nowhere")]) == 2
    # a client forgotten twice, and a request list that forgets everyone
    for requests in ([[0], [0]], [[0, 1], [2]]):
        doc = base_doc("cli_bad_requests")
        doc["requests"] = requests
        config = write_doc(workdir, doc)
        assert main(["train", config]) == 2
        for method in ("sifu", "scratch"):
            assert main(["unlearn", config, "--method", method]) == 2
        assert not run_dir(workdir, doc).exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("budget", "sigma", math.nan),
        ("budget", "epsilon", math.nan),
        ("federation", "eta", math.nan),
        ("model", "l2", math.nan),
        ("data", "heterogeneity", math.nan),
        ("data", "noise", math.nan),
        ("federation", "weights", [0.25, 0.25, math.nan]),
        ("federation", "weights", [0.5, 0.75, -0.25]),
    ],
    ids=["sigma", "epsilon", "eta", "l2", "heterogeneity", "noise", "nan-weight", "negative-weight"],
)
def test_a_nan_number_or_a_negative_weight_is_refused_at_train(workdir, capsys, section, key, value):
    doc = base_doc("cli_refused_value")
    doc[section][key] = value
    assert main(["train", write_doc(workdir, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not run_dir(workdir, doc).exists()


@pytest.mark.parametrize(
    "section, key", [("data", "heterogeneity"), ("data", "noise"), ("model", "l2")], ids=["heterogeneity", "noise", "l2"]
)
def test_an_infinite_data_or_model_number_is_refused_at_train(workdir, capsys, section, key):
    # refused as the config is read, not as a diverged run or a bad step size
    doc = base_doc("cli_infinite_value")
    doc[section][key] = math.inf
    assert main(["train", write_doc(workdir, doc)]) == 2
    assert f"{key} must be finite and non-negative, got inf" in capsys.readouterr().err
    assert not run_dir(workdir, doc).exists()


def test_unlearn_before_train_is_a_usage_error(workdir):
    doc = base_doc("cli_order")
    config = write_doc(workdir, doc)
    assert main(["unlearn", config, "--method", "sifu"]) == 2
    assert not run_dir(workdir, doc).exists()


@pytest.mark.filterwarnings("ignore:smooth regime")
def test_diverging_training_is_a_runtime_error(workdir):
    doc = base_doc("cli_diverge")
    doc["model"] = {"kind": "tiny_mlp", "dims": [3, 2, 1], "l2": 0.0}
    doc["federation"]["eta"] = 80.0
    doc["federation"]["rounds"] = 60
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 3


@pytest.mark.filterwarnings("ignore:smooth regime")
def test_diverging_training_leaves_no_empty_output_files(workdir):
    # train writes its outputs, the manifest last, only after the rounds
    doc = base_doc("cli_diverge_outputs")
    doc["model"] = {"kind": "tiny_mlp", "dims": [3, 2, 1], "l2": 0.0}
    doc["federation"]["eta"] = 80.0
    doc["federation"]["rounds"] = 60
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 3
    train = run_dir(workdir, doc) / "train"
    assert list(train.rglob("*")) == []
    assert main(["unlearn", config, "--method", "sifu"]) == 2
    assert not (run_dir(workdir, doc) / "unlearn_sifu").exists()


@pytest.mark.parametrize("rounds", [0, 6])
def test_train_writes_exactly_the_files_its_manifest_lists(workdir, rounds):
    # and so does unlearn, with and without requests
    doc = base_doc(f"cli_layout_{rounds}")
    doc["federation"]["rounds"] = rounds
    for requests in ([], [[0]]):
        doc["requests"] = requests
        config = write_doc(workdir, doc)
        assert main(["train", config]) == 0
        # the checkpoint format holds no empty block, so an empty ledger has no file
        expected = {"train": ["history.ckpt", *(["ledger.ckpt"] if rounds else []), "metrics.jsonl"]}
        # no unlearn run writes a ledger, with or without requests
        for method in unlearn.METHODS:
            assert main(["unlearn", config, "--method", method]) == 0
            expected[f"unlearn_{method}"] = ["final_model.ckpt", "outcomes.json"]
        for name, files in expected.items():
            directory = run_dir(workdir, doc) / name
            listed = json.loads((directory / "manifest.json").read_text())["outputs"]
            assert sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*")) == listed
            assert listed == sorted([*files, "manifest.json", "timings.json"])


@pytest.mark.parametrize("cut", [4, 8 * 3])  # mid-model, and one whole model short
def test_a_truncated_history_is_refused(workdir, capsys, cut):
    doc = base_doc(f"cli_cut_history_{cut}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    history = run_dir(workdir, doc) / "train" / "history.ckpt"
    history.write_bytes(history.read_bytes()[:-cut])
    before = snapshot(run_dir(workdir, doc), skip=())
    for method in ("sifu", "finetune"):
        assert main(["unlearn", config, "--method", method]) == 2
        assert "history.ckpt" in capsys.readouterr().err
    assert snapshot(run_dir(workdir, doc), skip=()) == before


def test_a_truncated_final_model_is_refused(workdir, capsys):
    doc = base_doc("cli_cut_final")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    final = run_dir(workdir, doc) / "unlearn_sifu" / "final_model.ckpt"
    intact = final.read_bytes()
    _, kept, digest = read_checkpoint(run_dir(workdir, doc) / "train" / "history.ckpt")
    write_checkpoint(workdir / "early.ckpt", 3, kept[3], digest)  # a whole model, at the wrong position
    damaged = {
        "final_model.ckpt: truncated checkpoint": intact[:-4],
        "final_model.ckpt ends at 3 but the timeline at": (workdir / "early.ckpt").read_bytes(),
    }
    for message, blob in damaged.items():
        final.write_bytes(blob)
        before = snapshot(run_dir(workdir, doc), skip=())
        capsys.readouterr()
        assert main(["verify", config]) == 2
        assert message in capsys.readouterr().err
        assert main(["report", str(run_dir(workdir, doc))]) == 2
        assert message in capsys.readouterr().err
        assert snapshot(run_dir(workdir, doc), skip=()) == before
        final.write_bytes(intact)


@pytest.mark.parametrize(
    "command,damaged,damage",
    [
        ("verify", "unlearn_sifu/outcomes.json", lambda text: '{"method": "sifu"}'),
        ("report", "unlearn_sifu/outcomes.json", lambda text: text[:1]),
        ("report", "unlearn_sifu/manifest.json", lambda text: text[:1]),
        ("unlearn", "train/manifest.json", lambda text: text[:1]),
    ],
    ids=["verify-keyless-outcomes", "report-cut-outcomes", "report-cut-manifest", "unlearn-cut-manifest"],
)
def test_a_damaged_json_artifact_is_a_usage_error(workdir, capsys, command, damaged, damage):
    doc = base_doc("cli_json")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    path = run_dir(workdir, doc) / damaged
    path.write_text(damage(path.read_text()))
    before = snapshot(run_dir(workdir, doc), skip=())
    capsys.readouterr()
    args = {
        "verify": ["verify", config],
        "report": ["report", str(run_dir(workdir, doc))],
        "unlearn": ["unlearn", config, "--method", "sifu"],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "re-run the command that wrote it" in err
    assert snapshot(run_dir(workdir, doc), skip=()) == before


def _drop_retrain_rounds(row):
    del row["retrain_rounds"]


def _retrain_rounds_as_text(row):
    row["retrain_rounds"] = "7"


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop_retrain_rounds, "has no 'retrain_rounds'"),
        (_retrain_rounds_as_text, "has 'retrain_rounds' = '7'"),
        (lambda row: row.update(converged=1), "has 'converged' = 1"),
        (lambda row: row.update(targets=[True]), "has 'targets' = [True]"),
    ],
    ids=["deleted", "string", "int-converged", "bool-target"],
)
def test_a_damaged_outcome_row_is_a_usage_error(workdir, capsys, command, edit, message):
    doc = base_doc("cli_outcome_row")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    path = run_dir(workdir, doc) / "unlearn_sifu" / "outcomes.json"
    outcomes = json.loads(path.read_text())
    edit(outcomes["outcomes"][-1])
    path.write_text(dumps17(outcomes, indent=2) + "\n")
    before = snapshot(run_dir(workdir, doc), skip=())
    capsys.readouterr()
    args = ["verify", config] if command == "verify" else ["report", str(run_dir(workdir, doc))]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err and "re-run the command that wrote it" in err
    assert snapshot(run_dir(workdir, doc), skip=()) == before


def test_report_builds_no_ridge_operators(workdir, monkeypatch):
    doc = base_doc("cli_report_operators")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    calls = []
    real = models.ridge_operators

    def counted(spec, moments, samples, eta, steps):
        calls.append((len(moments[0]), samples, moments[0].shape[2]))
        return real(spec, moments, samples, eta, steps)

    monkeypatch.setattr(models, "ridge_operators", counted)
    # a report in a process of its own: the survivors' retained loss reads
    # their data, never their operators
    monkeypatch.setattr(runner, "_shared", None)
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    assert calls == []
    # one in-process train -> unlearn -> report builds the operators of the
    # one data-shape group once
    monkeypatch.setattr(runner, "_shared", None)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch"):
        assert main(["unlearn", config, "--method", method]) == 0
    assert main(["report", str(run_dir(workdir, doc))]) == 0
    assert calls == [(3, 10, 3)]


def run_every_command(workdir, doc) -> None:
    """train, unlearn with every method, verify and report in this process."""
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in unlearn.METHODS:
        assert main(["unlearn", config, "--method", method]) == 0
    assert main(["verify", config]) == 0
    assert main(["report", str(run_dir(workdir, doc))]) == 0


def count_preparations(monkeypatch) -> dict:
    """Calls of generate_data and regime_constants from now on."""
    calls = {"generate_data": 0, "regime_constants": 0}
    for name in calls:
        real = getattr(runner, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(runner, name, counted)
    return calls


def test_one_process_prepares_a_config_once(workdir, monkeypatch):
    calls = count_preparations(monkeypatch)
    run_every_command(workdir, base_doc("cli_prepared_once"))
    assert calls == {"generate_data": 1, "regime_constants": 1}


def test_a_command_given_the_held_config_object_hashes_nothing(workdir, monkeypatch):
    doc = base_doc("cli_same_object")
    config = load_config(write_doc(workdir, doc))
    runner.cmd_train(config)
    hashes = []
    real = runner.config_hash

    def counted(config):
        hashes.append(config.name)
        return real(config)

    monkeypatch.setattr(runner, "config_hash", counted)
    calls = count_preparations(monkeypatch)
    runner.cmd_unlearn(config, "sifu")
    assert hashes == []
    # an equal config of its own still finds the entry, through its digest
    runner.cmd_unlearn(load_config(write_doc(workdir, doc)), "last")
    assert hashes == ["cli_same_object"]
    assert calls == {"generate_data": 0, "regime_constants": 0}


def test_another_data_seed_under_the_same_name_prepares_again(workdir, monkeypatch):
    doc = base_doc("cli_reseeded")
    calls = count_preparations(monkeypatch)
    run_every_command(workdir, doc)
    first = snapshot(run_dir(workdir, doc))
    doc["data"]["seed"] += 1
    run_every_command(workdir, doc)
    assert calls == {"generate_data": 2, "regime_constants": 2}
    shared = snapshot(run_dir(workdir, doc))
    assert shared["train/history.ckpt"] != first["train/history.ckpt"]
    # the same config in a fresh process writes the same bytes
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    fresh = workdir / "fresh"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "run_pipeline.py"), write_doc(workdir, doc), "--out", str(fresh)],
        env=env,
        check=True,
        capture_output=True,
    )
    assert snapshot(fresh / doc["name"]) == shared


def reachable_arrays(value, seen=None) -> list:
    """Every ndarray reachable from `value` through containers and the
    attributes of fedunlearn objects."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        children = value
    elif isinstance(value, dict):
        children = value.values()
    elif type(value).__module__.startswith("fedunlearn.") and hasattr(value, "__dict__"):
        children = vars(value).values()
    else:
        return []
    return [array for child in children for array in reachable_arrays(child, seen)]


def test_the_shared_prepared_experiment_is_read_only(workdir):
    doc = base_doc("cli_read_only")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    prepared = runner.prepared_for(load_config(config))
    fed = prepared.fed
    built = reachable_arrays(fed._moments) + reachable_arrays(fed._operators)
    assert len(built) == 4  # the stack's X^T X, X^T y, A and b
    # one memo entry per cohort run, all clients and the survivors of [[0]],
    # each its weights, M, m and p / (1 - p); train reads no loss, so only
    # the survivors' final loss builds an anchor, its gradient and H
    memo = reachable_arrays(fed._cohorts)
    assert [active for active, _ in fed._cohorts] == [(0, 1, 2), (1, 2)]
    assert len(memo) == 4 + 7
    built += memo
    arrays = reachable_arrays(prepared)
    assert {id(array) for array in built} <= {id(array) for array in arrays}
    # theta0, the weights, the stacked features and targets: the data once
    assert len(arrays) == 1 + 1 + 2 + len(built)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_prepare_holds_the_clients_data_once():
    # ridge_fleet's stack: 40 clients of 100 samples and 20 features
    doc = base_doc("cli_held_once")
    doc["model"]["dims"] = [20]
    doc["data"].update(clients=40, samples_per_client=100, features=20)
    config = parse_config(json.dumps(doc))
    prepare(config)  # warm-up: imports and caches are not the data
    tracemalloc.start()
    try:
        prepared = prepare(config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = prepared.fed.features.nbytes + prepared.fed.targets.nbytes
    assert held <= 1.5 * stack, (held, stack)


def test_every_command_warns_of_the_smooth_regime(workdir, monkeypatch):
    doc = base_doc("cli_smooth_warning")
    doc["model"] = {"kind": "tiny_mlp", "dims": [3, 2, 1], "l2": 0.0}
    doc["federation"]["eta"] = 0.05
    config = write_doc(workdir, doc)
    calls = count_preparations(monkeypatch)
    for args in (["train", config], ["unlearn", config, "--method", "sifu"], ["verify", config]):
        with pytest.warns(UserWarning, match="smooth regime"):
            assert main(args) == 0
    # unlearn and verify warn from the shared PreparedExperiment
    assert calls == {"generate_data": 1, "regime_constants": 1}


def test_verify_flags_a_rollback_beyond_the_budget(workdir, capsys, monkeypatch):
    doc = base_doc("cli_over_budget")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    # sifu rolling back to the end of the timeline, as last does, skips the psi* scan
    monkeypatch.setattr(SensitivityLedger, "rollback_index", lambda self, clients, threshold: len(self))
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    capsys.readouterr()
    assert main(["verify", config]) == 1
    assert "FAIL budget_audit:sifu" in capsys.readouterr().out
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    audit = next(check for check in report["checks"] if check["name"] == "budget_audit:sifu")
    assert audit["worst_slack"] > 1e-9
