"""Phase-and-layer benchmark for fedunlearn: train, unlearn, verify, report.

    python3 perfbench/run.py --workload ridge_fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/.  One workload per process, one thread.  A run generates the
workload's config from the seed, times set-up, runs one warm-up cycle that
fixes the reference artifacts, then repeats the whole pipeline (train, every
method's unlearn, verify where the workload has it, report) through the
public runner entry points until --seconds have passed.  With --trace 0 it
reports the end-to-end metrics from untraced cycles; with --trace 1 it
alternates untraced and traced cycles and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  A
failed phase or correctness check exits 1; a checkout without the package
exits 2.  See perfbench/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, config_doc, regime_violations

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 9
MIN_TRACE_COVERAGE = 0.9  # share of traced pipeline_s the layers' self time must cover
TIMINGS = "timings.json"  # the program's one non-deterministic artifact


class BenchError(Exception):
    """The checkout cannot be benchmarked; nothing was measured."""


def metric_units() -> tuple[dict, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def program_package() -> Path:
    package = ROOT / "src" / "fedunlearn"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no fedunlearn package at {package}")
    return package


def import_program():
    """Fresh import of fedunlearn from the checkout; returns (config, runner)."""
    package = program_package()
    src = package.parent
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "fedunlearn" or m.startswith("fedunlearn.")]:
        del sys.modules[name]
    config = importlib.import_module("fedunlearn.config")
    runner = importlib.import_module("fedunlearn.runner")
    if Path(runner.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported fedunlearn from {runner.__file__}, not from {package}")
    return config, runner


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# artifacts: digest, work counters, outcome checks
# ---------------------------------------------------------------------------


def artifact_files(run_dir: Path) -> list[Path]:
    return sorted(p for p in run_dir.rglob("*") if p.is_file() and p.name != TIMINGS)


def artifact_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in artifact_files(run_dir):
        h.update(str(path.relative_to(run_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_outcomes(run_dir: Path, method: str) -> list[dict]:
    return json.loads((run_dir / f"unlearn_{method}" / "outcomes.json").read_text())["outcomes"]


def work_counters(run_dir: Path, workload, cfg) -> dict:
    """Exact work done in one cycle, read back from its artifacts."""
    files = artifact_files(run_dir)
    ckpts = [p for p in files if p.suffix == ".ckpt"]
    ledgers = [p for p in files if p.name == "ledger.csv"]
    trained = (run_dir / "train" / "metrics.jsonl").read_bytes().count(b"\n")
    counters = {
        "work.rounds_trained": trained,
        "work.artifact_bytes": sum(p.stat().st_size for p in files),
        "work.checkpoints": len(ckpts),
        "work.checkpoint_bytes": sum(p.stat().st_size for p in ckpts),
        "work.ledger_rows": sum(p.read_bytes().count(b"\n") - 1 for p in ledgers),
        "work.ledger_bytes": sum(p.stat().st_size for p in ledgers),
    }
    client_rounds = cfg.data.clients * trained
    for method in tracing.METHODS:
        rounds, removed = 0, set()
        for row in read_outcomes(run_dir, method) if method in workload.methods else ():
            removed |= set(row["targets"])
            rounds += row["retrain_rounds"]
            client_rounds += row["retrain_rounds"] * (cfg.data.clients - len(removed))
        counters[f"work.rounds_retrained.{method}"] = rounds
    counters["work.local_steps"] = client_rounds * cfg.local_steps
    positions = [row["rollback_position"] for row in read_outcomes(run_dir, "sifu")]
    counters["work.sifu_rollback_min"] = min(positions)
    counters["work.sifu_rollback_max"] = max(positions)
    # checkpoint header: 4-byte magic, then the little-endian int64 position
    final = (run_dir / "unlearn_sifu" / "final_model.ckpt").read_bytes()
    kept = int.from_bytes(final[4:12], "little", signed=True)
    counters["unlearn.sifu.kept_round_ratio"] = kept / (trained + counters["work.rounds_retrained.sifu"])
    return counters


def outcome_problems(run_dir: Path, workload, cfg, method: str) -> list[str]:
    rows = read_outcomes(run_dir, method)
    problems = []
    if len(rows) != len(cfg.requests):
        problems.append(f"{method}: {len(rows)} outcomes for {len(cfg.requests)} requests")
    bad = [row["retrain_rounds"] for row in rows if row["retrain_rounds"] != workload.retrain_rounds]
    if bad:
        problems.append(f"{method}: retrain_rounds {bad}, expected {workload.retrain_rounds}")
    return problems


# ---------------------------------------------------------------------------
# one cycle of the pipeline
# ---------------------------------------------------------------------------


def run_cycle(runner, cfg, workload, out_root: Path, tracer=None) -> dict:
    """Train, unlearn with every method, verify if the workload does, report.

    Returns per-phase wall seconds, the same scaled to the reference machine
    speed, the phases attempted and failed, and what failed.  The first
    failing phase ends the cycle.
    """
    run_dir = runner.run_dir_for(cfg, out_root)
    phases = [("train", "runner.cmd_train", lambda: runner.cmd_train(cfg, out_root))]
    for method in workload.methods:
        call = lambda m=method: runner.cmd_unlearn(cfg, m, out_root)  # noqa: E731
        phases.append((f"unlearn_{method}", f"runner.cmd_unlearn.{method}", call))
    if workload.verify:
        phases.append(("verify", "runner.cmd_verify", lambda: runner.cmd_verify(cfg, out_root)))
    phases.append(("report", "runner.cmd_report", lambda: runner.cmd_report(run_dir)))

    seconds, calibration, problems, attempted = {}, [], [], 0
    for phase, span, call in phases:
        attempted += 1
        calibration.append(calibration_seconds())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                with tracer.span(span):
                    result = call()
        except Exception as err:  # a raising phase is a counted failure, not a crash
            problems.append(f"{phase} raised {type(err).__name__}: {err}")
            break
        seconds[phase] = time.perf_counter() - t0
        if phase == "verify" and not result[1]:
            problems.append(f"verify failed {[c['name'] for c in result[0]['checks'] if not c['pass']]}")
        elif phase.startswith("unlearn_"):
            problems += outcome_problems(run_dir, workload, cfg, phase.removeprefix("unlearn_"))
        if problems:
            break
    calibration.append(calibration_seconds())
    return {
        "seconds": seconds,
        "scaled": dict(zip(seconds, calibrated(list(seconds.values()), calibration))),
        "attempted": attempted,
        "failed": 1 if problems else 0,
        "problems": problems,
        "run_dir": run_dir,
    }


def phase_metrics(s: dict, workload) -> dict:
    return {
        "train_s": s["train"],
        "unlearn_sifu_s": s["unlearn_sifu"],
        "unlearn_s": sum(s[f"unlearn_{m}"] for m in workload.methods),
        "verify_s": s.get("verify"),
        "report_s": s["report"],
        "pipeline_s": sum(s.values()),
        "train_client_steps_per_s": workload.client_steps_trained / s["train"],
    }


def medians(rows: list[dict]) -> dict:
    """name -> (median, sample count) over the rows that have the metric."""
    out = {}
    for name in rows[0]:
        samples = [row[name] for row in rows if row[name] is not None]
        if samples:
            out[name] = (statistics.median(samples), len(samples))
    return out


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

# Timings are reported at a reference machine speed.  A fixed calibration task
# runs before every timed step (set-up repetition or phase) and after the
# last one, and each step's wall time is scaled by CALIBRATION_REF_S over the
# mean of the two samples around it.  On a shared host the same code runs up
# to twice as slow, switching between discrete speed levels within seconds;
# the calibration task slows with it (over 128 ridge_fleet cycles, pipeline
# wall time against the cycle's mean calibration time: correlation 0.91,
# elasticity 0.91), so the scaled figures move with the program and not with
# the neighbours.
CALIBRATION_REF_S = 0.025
_CAL_STEPS = 2000
_CAL_X = np.random.default_rng(0).standard_normal((100, 20))
_CAL_Y = np.random.default_rng(1).standard_normal(100)


def calibration_seconds() -> float:
    """Wall time of a fixed CPU task that shares no code with the program.

    It mimics the program's hot loop: small numpy mat-vecs dispatched from
    Python, a finiteness check and 17-digit float formatting.
    """
    theta = np.zeros(_CAL_X.shape[1])
    t0 = time.perf_counter()
    for _ in range(_CAL_STEPS):
        theta = theta - 1e-3 * (_CAL_X.T @ (_CAL_X @ theta - _CAL_Y))
        if not np.isfinite(theta).all():
            raise ArithmeticError("calibration task diverged")
        format(float(theta[0]), ".17g")
    return time.perf_counter() - t0


def calibrated(walls: list[float], samples: list[float]) -> list[float]:
    """Scale walls[i] by the reference time over the mean of samples i and i+1."""
    return [t * 2 * CALIBRATION_REF_S / (samples[i] + samples[i + 1]) for i, t in enumerate(walls)]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts attempted and failed operations over a run.

    An operation is one phase of a cycle or one cycle's artifact check.  The
    first cycle's artifact digest and work counters are the reference that
    every later cycle must reproduce exactly, and its sifu rollbacks must sit
    in the workload's stated regime.
    """

    def __init__(self, workload, cfg):
        self.workload, self.cfg = workload, cfg
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def counters(self) -> dict:
        return self.reference[1]

    def check(self, cycle: dict) -> bool:
        """Account for one cycle; False once anything in it failed."""
        self.attempted += cycle["attempted"]
        self.failed += cycle["failed"]
        self.problems += cycle["problems"]
        if cycle["failed"]:
            return False
        self.attempted += 1
        run_dir = cycle["run_dir"]
        seen = (artifact_digest(run_dir), work_counters(run_dir, self.workload, self.cfg))
        problems = []
        if self.reference is None:
            self.reference = seen
            positions = [row["rollback_position"] for row in read_outcomes(run_dir, "sifu")]
            print(f"sifu rollback positions {positions} (regime: {self.workload.rollback_regime})")
            problems = [f"workload left its regime: {p}" for p in regime_violations(self.workload, positions)]
        elif seen != self.reference:
            problems = ["artifacts or work counters differ from the first cycle's"]
        self.problems += problems
        self.failed += bool(problems)
        return not problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    end_units, layer_units = metric_units()
    program_package()
    workload = WORKLOADS[workload_name]
    print("env " + json.dumps(environment(), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=SCRATCH))
    try:
        config_path = out_root / "config.json"
        config_path.write_text(json.dumps(config_doc(workload, seed), indent=2))

        setup, calibration = [], [calibration_seconds()]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            config_mod, runner = import_program()
            cfg = config_mod.load_config(config_path)
            runner.prepare(cfg)
            setup.append(time.perf_counter() - t0)
            calibration.append(calibration_seconds())

        gate = Gate(workload, cfg)
        plain, traced, layer_cycles, pooled = [], [], [], {}
        tracer = tracing.Tracer() if trace else None
        # Each cycle's outputs are deleted right after its check, before the
        # kernel writes them back to disk (after ~30 s); left in place, they
        # were flushed during later cycles and slowed their file creation by
        # up to 50% over a few minutes of runs.
        cycle_root = out_root / "cycle"
        running = gate.check(run_cycle(runner, cfg, workload, cycle_root))
        shutil.rmtree(cycle_root, ignore_errors=True)
        deadline = time.perf_counter() + seconds
        while running and (time.perf_counter() < deadline or not plain or (trace and not traced)):
            use_trace = trace and len(traced) < len(plain)
            if use_trace:
                tracer.reset()
                restore = tracing.install(tracer)
                try:
                    cycle = run_cycle(runner, cfg, workload, cycle_root, tracer)
                finally:
                    restore()
            else:
                cycle = run_cycle(runner, cfg, workload, cycle_root)
            running = gate.check(cycle)
            shutil.rmtree(cycle_root, ignore_errors=True)
            if not running:
                break
            (traced if use_trace else plain).append(cycle)
            if use_trace:
                stats, durations = tracer.summary()
                layer_cycles.append((stats, sum(cycle["seconds"].values())))
                for name, values in durations.items():
                    pooled.setdefault(name, []).append(values)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for problem in gate.problems:
            print(f"FAIL {problem}")
        print(
            f"failed_ops_ratio = {gate.failed / max(gate.attempted, 1):.4f} "
            f"({gate.failed} of {gate.attempted} phases and artifact checks failed)"
        )
        if not gate.ok:
            return {"correct": False, "attempted": max(gate.attempted, 1), "failed": gate.failed, "metrics": {}}

        counters = gate.counters
        for name, value in sorted(counters.items()):
            print(f"counter {name} = {value}")
        walls = medians([phase_metrics(c["seconds"], workload) for c in plain])
        walls["setup_s"] = (statistics.median(setup), len(setup))
        plain = [phase_metrics(c["scaled"], workload) for c in plain]
        traced = [phase_metrics(c["scaled"], workload) for c in traced]
        values = medians(plain)
        values["setup_s"] = (statistics.median(calibrated(setup, calibration)), len(setup))
        for name, (value, n) in sorted(values.items()):
            wall = walls[name][0]
            print(f"metric {name} = {value:.6g} {end_units.get(name, 's')} (median of {n}; wall {wall:.6g})")
        values["artifact_mb"] = (counters["work.artifact_bytes"] / 1e6, None)
        values["peak_rss_mb"] = (peak_rss_mb, None)
        print(f"metric artifact_mb = {values['artifact_mb'][0]:.6g} MB (same in every cycle)")
        print(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB (process peak)")

        if not trace:
            metrics, units = {name: values[name][0] for name in end_units}, end_units
        else:
            metrics, units = layer_metrics(layer_cycles, pooled, counters, plain, traced, cfg), layer_units
            missing = sorted(set(units) - set(metrics))
            if missing:
                raise BenchError(f"per-layer metrics not computed: {missing}")
            for name, unit in units.items():
                print(f"layer {name} = {metrics[name]:.6g} {unit}")
            for name in tracer.missing:
                print(f"layer {name} not found in the program; reported as 0")
            if metrics["trace.coverage"] < MIN_TRACE_COVERAGE:
                print(f"FAIL traced layers cover {metrics['trace.coverage']:.3f} of pipeline_s")
                return {"correct": False, "attempted": gate.attempted, "failed": 1, "metrics": {}}
            (SCRATCH / "traces").mkdir(exist_ok=True)
            np.savez(SCRATCH / "traces" / f"{workload_name}.npz", names=np.array(tracer.names), **tracer.arrays())
        return {
            "correct": True,
            "attempted": gate.attempted,
            "failed": 0,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def layer_metrics(layer_cycles, pooled, counters, plain, traced, cfg) -> dict:
    """Per-layer figures: medians over traced cycles; latencies pooled over them."""
    out = {}
    for name in layer_cycles[0][0]:
        for stat in ("calls", "self_s", "total_s", "bytes"):
            pick = statistics.median_low if stat in ("calls", "bytes") else statistics.median
            out[f"{name}.{stat}"] = pick(c[0][name][stat] for c in layer_cycles)
    for name, chunks in pooled.items():
        durations = np.concatenate(chunks)
        p50, p99 = np.percentile(durations, [50, 99]) if durations.size else (0.0, 0.0)
        out[f"{name}.p50_us"], out[f"{name}.p99_us"] = float(p50), float(p99)
    out.update(counters)
    out["unlearn.retrain_until.rounds"] = sum(counters[f"work.rounds_retrained.{m}"] for m in tracing.METHODS)
    out["oracle.run_fedavg.per_client"] = out["engine.run_fedavg.calls"] / cfg.data.clients
    out["trace.coverage"] = statistics.median(
        sum(s["self_s"] for s in stats.values()) / pipeline for stats, pipeline in layer_cycles
    )
    out["trace.overhead_s"] = statistics.median(c["pipeline_s"] for c in traced) - statistics.median(
        c["pipeline_s"] for c in plain
    )
    return out


def run_all(args) -> int:
    """Every workload, each in its own child process, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode or int(not result["correct"])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
