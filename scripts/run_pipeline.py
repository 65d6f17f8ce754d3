"""Drive one experiment config through the full pipeline.

Trains, runs every requested unlearning method, re-derives the certified
claims, and writes the comparison report.  Exit status follows verification.
By default every method runs, except ifu when a request names more than one
client.

    python3 scripts/run_pipeline.py scripts/ridge_benchmark.json
"""
import argparse
import sys
import time
from pathlib import Path

from fedunlearn.config import load_config
from fedunlearn.runner import cmd_report, cmd_train, cmd_unlearn, cmd_verify, run_dir_for
from fedunlearn.unlearn import METHODS


def main():
    parser = argparse.ArgumentParser(description="train, unlearn, verify and report one experiment")
    parser.add_argument("config", help="experiment config (json)")
    parser.add_argument("--out", default=None, help="output root (default FEDUNLEARN_OUT or ./runs)")
    parser.add_argument("--methods", nargs="+", default=None, choices=METHODS)
    args = parser.parse_args()

    config = load_config(args.config)
    methods = args.methods
    if methods is None:
        singletons = all(len(req) == 1 for req in config.requests)
        methods = [m for m in METHODS if m != "ifu" or singletons]
    out_root = Path(args.out) if args.out is not None else None

    t0 = time.perf_counter()
    cmd_train(config, out_root)
    print(f"train: {config.rounds} rounds in {time.perf_counter() - t0:.2f}s")

    for method in methods:
        t0 = time.perf_counter()
        out = cmd_unlearn(config, method, out_root)
        print(f"unlearn/{method}: {out} in {time.perf_counter() - t0:.2f}s")

    report, ok = cmd_verify(config, out_root)
    for check in report["checks"]:
        slack = check.get("worst_slack")
        tail = "" if slack is None else f" worst_slack={slack:.3e}"
        print(f"{'PASS' if check['pass'] else 'FAIL'} {check['name']}{tail}")

    report_dir = cmd_report(run_dir_for(config, out_root))
    print(f"report: {report_dir}")
    print("verification passed" if ok else "verification FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
