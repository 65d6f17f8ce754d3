"""Command-line interface.

    fedunlearn train <config.json>
    fedunlearn unlearn <config.json> --method {sifu,ifu,scratch,finetune,last}
    fedunlearn verify <config.json>
    fedunlearn report <run-dir>

Artifacts land under $FEDUNLEARN_OUT (default ./runs), one directory per
config name.  Exit codes: 0 success, 1 verification check failed, 2 usage or
configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import (
    ConfigError,
    FedUnlearnError,
    InvalidRequestError,
    MissingArtifactsError,
    StepSizeError,
)
from .runner import METHODS, cmd_report, cmd_train, cmd_unlearn, cmd_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedunlearn",
        description="deterministic federated training with certified client unlearning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the federation and record the ledger")
    train.add_argument("config", help="experiment config JSON file")

    unlearn = sub.add_parser("unlearn", help="process the config's unlearning requests")
    unlearn.add_argument("config", help="experiment config JSON file")
    unlearn.add_argument("--method", required=True, choices=METHODS)

    verify = sub.add_parser("verify", help="re-derive and check every certifiable claim")
    verify.add_argument("config", help="experiment config JSON file")

    report = sub.add_parser("report", help="summarise completed runs into CSV tables")
    report.add_argument("run_dir", help="run directory produced by train/unlearn")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK

    try:
        if args.command == "train":
            out = cmd_train(load_config(args.config))
            print(f"train artifacts written to {out}")
        elif args.command == "unlearn":
            out = cmd_unlearn(load_config(args.config), args.method)
            print(f"unlearn[{args.method}] artifacts written to {out}")
        elif args.command == "verify":
            report, ok = cmd_verify(load_config(args.config))
            for check in report["checks"]:
                state = "PASS" if check["pass"] else "FAIL"
                line = f"{state} {check['name']} worst_slack={check['worst_slack']}"
                if "first_violation" in check:
                    line += f" first_violation=round {check['first_violation']}"
                print(line)
            if not ok:
                print("verification FAILED")
                return EXIT_CHECK_FAILED
            print("verification passed")
        else:
            out = cmd_report(args.run_dir)
            print(f"report written to {out}")
    except (ConfigError, StepSizeError, InvalidRequestError, MissingArtifactsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FedUnlearnError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as err:  # pragma: no cover - defensive
        print(f"unexpected error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
