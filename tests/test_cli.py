import json
import re
import threading
from pathlib import Path

import pytest

from fedunlearn import oracle, runner, unlearn
from fedunlearn.cli import main
from fedunlearn.config import load_config
from fedunlearn.engine import fedavg_round, federation_loss, read_checkpoint, write_checkpoint
from fedunlearn.runner import prepare
from fedunlearn.sensitivity import SensitivityLedger, client_increments_fast
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
    assert (train / "ledger.csv").exists()
    assert (train / "manifest.json").exists()
    assert (train / "timings.json").exists()
    assert (run_dir(workdir, doc) / "config.json").exists()
    checkpoints = sorted((train / "checkpoints").glob("*.ckpt"))
    assert [p.name for p in checkpoints] == [f"round_{k:05d}.ckpt" for k in range(7)]
    metrics = (train / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 6
    first = json.loads(metrics[0])
    assert set(first) == {"round", "segment", "global_loss", "delta", "psi"}
    assert not (train / "rollback").exists()


def test_train_artifacts_match_a_hand_written_round_loop(workdir):
    doc = base_doc("cli_hand")
    doc["federation"]["rounds"] = 7
    doc["checkpoint_interval"] = 2
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    train = run_dir(workdir, doc) / "train"

    prepared = prepare(load_config(config))
    spec, fed, rounds = prepared.spec, prepared.federation(), prepared.config.rounds
    everyone = tuple(range(fed.client_count))
    ledger = SensitivityLedger(prepared.contraction, fed.local_steps, fed.client_count)
    reference = workdir / "reference"
    reference.mkdir()
    write_checkpoint(reference / "round_00000.ckpt", 0, prepared.theta0, prepared.digest)
    theta, rows = prepared.theta0, []
    for n in range(rounds):
        record = fedavg_round(spec, fed, theta, everyone, n)
        theta = record.global_after
        deltas = dict(enumerate(client_increments_fast(record, fed.weights).tolist()))
        ledger.record_round([deltas[c] for c in everyone], 0)
        rows.append(
            {
                "round": n,
                "segment": 0,
                "global_loss": federation_loss(spec, fed, theta),
                "delta": {str(c): deltas[c] for c in everyone},
                "psi": {str(c): float(ledger.psi[-1, c]) for c in everyone},
            }
        )
        if (n + 1) % 2 == 0 or n + 1 == rounds:
            write_checkpoint(reference / f"round_{n + 1:05d}.ckpt", n + 1, theta, prepared.digest)
    ledger.export_csv(reference / "ledger.csv")

    assert (train / "ledger.csv").read_bytes() == (reference / "ledger.csv").read_bytes()
    assert (train / "metrics.jsonl").read_text() == "".join(dumps17(row) + "\n" for row in rows)
    written = snapshot(train / "checkpoints")
    assert written == snapshot(reference, skip=("ledger.csv",))
    assert sorted(written) == [f"round_{k:05d}.ckpt" for k in (0, 2, 4, 6, 7)]


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
    assert main(["train", write_doc(workdir, doc)]) == 0
    train = run_dir(workdir, doc) / "train"
    assert (train / "checkpoints" / "round_00000.ckpt").exists()
    assert (train / "ledger.csv").read_text().splitlines() == ["round,segment,client,delta,psi"]
    assert (train / "metrics.jsonl").read_text() == ""


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
    assert (out / "ledger.csv").exists()
    round_index, values, _ = read_checkpoint(out / "final_model.ckpt")
    assert values.shape == (3,)
    assert (out / "metrics.jsonl").read_text() != ""


def test_unlearn_all_methods_and_report(workdir):
    doc = base_doc()
    doc["requests"] = [[0], [2]]
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    for method in ("sifu", "scratch", "finetune", "last"):
        assert main(["unlearn", config, "--method", method]) == 0
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
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    outcomes = json.loads(
        (run_dir(workdir, doc) / "unlearn_sifu" / "outcomes.json").read_text()
    )
    assert outcomes["outcomes"] == []


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


def test_verify_catches_a_tampered_ledger(workdir, capsys):
    doc = base_doc()
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 0
    ledger_path = run_dir(workdir, doc) / "unlearn_sifu" / "ledger.csv"
    lines = ledger_path.read_text().splitlines()
    row = next(k for k, line in enumerate(lines[1:], 1) if float(line.split(",")[3]) > 0)
    head, segment, client, delta, psi = lines[row].split(",")
    lines[row] = ",".join([head, segment, client, str(float(delta) * 0.5), psi])
    ledger_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", config]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "verification FAILED" in out


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

    # a ledger built with a shrunk per-round decay undershoots the true gap
    monkeypatch.setattr(SensitivityLedger, "round_decay", 0.01)
    assert main(["verify", config]) == 1
    out = capsys.readouterr().out
    report = json.loads((run_dir(workdir, doc) / "verify_report.json").read_text())
    prepared = prepare(load_config(config))
    _, ledger, history = runner._run_federation(prepared)
    traces = oracle.empirical_sensitivity(prepared.federation(), prepared.spec, history, ledger)
    failed = [check for check in report["checks"] if not check["pass"]]
    assert failed and all(check["name"].startswith("bound:client") for check in failed)
    for check in failed:
        client = int(check["name"].removeprefix("bound:client"))
        first = oracle.check_bound(traces[client], tol=1e-8).first_violation
        assert check["first_violation"] == first >= 1
        assert f"FAIL {check['name']} worst_slack=" in out
        assert f"first_violation=round {first}\n" in out
    for check in report["checks"]:
        assert ("first_violation" in check) == (not check["pass"])


def test_verify_runs_the_federation_once_plus_once_per_client(workdir, monkeypatch):
    doc = base_doc("cli_calls")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    calls = {"retrain_until": 0, "all-client rounds": 0}
    real_retrain, real_round = unlearn.retrain_until, unlearn.fedavg_round

    def retrain(*args, **kwargs):
        calls["retrain_until"] += 1
        return real_retrain(*args, **kwargs)

    def round_(spec, fed, theta, active, n):
        calls["all-client rounds"] += tuple(active) == (0, 1, 2)
        return real_round(spec, fed, theta, active, n)

    for module in (runner, oracle):
        monkeypatch.setattr(module, "retrain_until", retrain)
    for module in (runner, unlearn):
        monkeypatch.setattr(module, "fedavg_round", round_)
    assert main(["verify", config]) == 0
    # one shared all-client run, one leave-one-out run per client, and the
    # proxy check's replay of the shared run's rounds
    assert calls == {"retrain_until": 3 + 1, "all-client rounds": 2 * doc["federation"]["rounds"]}


def test_verify_certifies_the_psi_that_train_records(workdir, monkeypatch):
    doc = base_doc("cli_same_psi")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    traces = []
    original = runner.empirical_sensitivity

    def recording(*args):
        traces.extend(original(*args))
        return traces

    monkeypatch.setattr(runner, "empirical_sensitivity", recording)
    assert main(["verify", config]) == 0
    prepared = prepare(load_config(config))
    _, recorded = SensitivityLedger.from_csv(
        run_dir(workdir, doc) / "train" / "ledger.csv",
        prepared.contraction,
        prepared.config.local_steps,
        prepared.client_count,
    )
    assert [trace.client for trace in traces] == [0, 1, 2]
    for trace in traces:
        assert trace.psis[0] == 0.0
        assert trace.psis[1:].tobytes() == recorded[:, trace.client].tobytes()


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


@pytest.mark.parametrize("method", ["sifu", "last"])
def test_verify_refuses_an_unlearn_ledger_missing_its_last_round(workdir, capsys, method):
    doc = base_doc(f"cli_cut_{method}")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", method]) == 0
    assert main(["verify", config]) == 0
    ledger_path = run_dir(workdir, doc) / f"unlearn_{method}" / "ledger.csv"
    lines = ledger_path.read_text().splitlines(keepends=True)
    ledger_path.write_text("".join(lines[:-3]))  # drop the last round's three clients
    capsys.readouterr()
    assert main(["verify", config]) == 2
    cut = re.search(r"records (\d+) rounds but the timeline ends at (\d+)", capsys.readouterr().err)
    assert cut and int(cut[1]) + 1 == int(cut[2])


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
    foreign = run_dir(workdir, other) / "train" / "checkpoints" / "round_00003.ckpt"
    own = run_dir(workdir, doc) / "train" / "checkpoints" / "round_00003.ckpt"
    assert foreign.read_bytes()[52:] == own.read_bytes()[52:]
    own.write_bytes(foreign.read_bytes())
    for method in ("sifu", "finetune"):
        assert main(["unlearn", config, "--method", method]) == 2
        assert "round_00003.ckpt was produced by a different config" in capsys.readouterr().err
        assert not (run_dir(workdir, doc) / f"unlearn_{method}").exists()


def test_a_ledger_shorter_than_the_checkpoints_is_refused(workdir, capsys):
    doc = base_doc("cli_short_ledger")
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    ledger_path = run_dir(workdir, doc) / "train" / "ledger.csv"
    lines = ledger_path.read_text().splitlines(keepends=True)
    ledger_path.write_text("".join(lines[:-3]))  # drop the last round's three clients
    for method in ("sifu", "last"):
        assert main(["unlearn", config, "--method", method]) == 2
        assert "ledger.csv records 5 rounds but the checkpoints 6" in capsys.readouterr().err
        assert not (run_dir(workdir, doc) / f"unlearn_{method}").exists()


def test_sparse_checkpoints_block_rollback_unlearning(workdir, capsys):
    doc = base_doc("cli_sparse")
    doc["checkpoint_interval"] = 2
    config = write_doc(workdir, doc)
    assert main(["train", config]) == 0
    assert main(["unlearn", config, "--method", "sifu"]) == 2
    assert "checkpoint_interval=1" in capsys.readouterr().err
    assert main(["unlearn", config, "--method", "scratch"]) == 0


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
    # train creates its checkpoint and metric files while the rounds run; a
    # run that stops early removes them again
    doc = base_doc("cli_diverge_outputs")
    doc["model"] = {"kind": "tiny_mlp", "dims": [3, 2, 1], "l2": 0.0}
    doc["federation"]["eta"] = 80.0
    doc["federation"]["rounds"] = 60
    assert main(["train", write_doc(workdir, doc)]) == 3
    train = run_dir(workdir, doc) / "train"
    assert sorted(p.relative_to(train).as_posix() for p in train.rglob("*")) == ["checkpoints", "manifest.json"]


def test_train_leaves_no_thread_running(workdir):
    before = threading.active_count()
    assert main(["train", write_doc(workdir, base_doc())]) == 0
    assert threading.active_count() == before
