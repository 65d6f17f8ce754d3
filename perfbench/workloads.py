"""Seeded experiment configs for the three benchmark workloads.

Each workload is a fixed shape (model, federation size, budget, request
pattern, methods) plus values drawn from the workload seed: the data seed,
the federation seed and which clients the requests name.  The program under
test only ever sees the config JSON written from `config_doc`.

Retraining runs a fixed R rounds per request (threshold "inf",
min_rounds = max_rounds = R): a fixed loss threshold does not carry over
between seeds, and would make one seed retrain 0 rounds and another hit the
round cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SEED_TAG = 0xBE7C4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    features: int
    clients: int
    samples: int
    heterogeneity: float
    local_steps: int
    rounds: int
    eta: float | str
    l2: float
    sigma: float
    request_sizes: tuple[int, ...]
    retrain_rounds: int
    methods: tuple[str, ...]
    verify: bool
    # "end": every sifu rollback lands at the end of the current timeline;
    # "interior": every sifu rollback lands at or before rounds // 4
    rollback_regime: str

    @property
    def client_steps_trained(self) -> int:
        return self.clients * self.rounds * self.local_steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ridge_fleet",
            kind="ridge",
            features=20,
            clients=40,
            samples=100,
            heterogeneity=0.3,
            local_steps=5,
            rounds=150,
            eta=0.01,
            l2=0.05,
            sigma=0.5,
            request_sizes=(1, 1, 1, 1),
            retrain_rounds=12,
            methods=("sifu", "ifu", "scratch", "finetune", "last"),
            verify=False,
            rollback_regime="end",
        ),
        Workload(
            name="ridge_audit",
            kind="ridge",
            features=20,
            clients=12,
            samples=100,
            heterogeneity=0.3,
            local_steps=5,
            rounds=80,
            eta="2/(beta+mu)",
            l2=0.05,
            sigma=0.5,
            request_sizes=(1, 1),
            retrain_rounds=10,
            methods=("sifu", "last"),
            verify=True,
            rollback_regime="end",
        ),
        Workload(
            name="logistic_churn",
            kind="logistic",
            features=5,
            clients=100,
            samples=20,
            heterogeneity=1.0,
            local_steps=1,
            rounds=200,
            eta="1/beta",
            l2=0.01,
            sigma=0.0076,
            request_sizes=(1, 1, 2, 1, 2, 1, 2, 1),
            retrain_rounds=20,
            methods=("sifu", "last"),
            verify=False,
            rollback_regime="interior",
        ),
    )
}


def config_doc(workload: Workload, seed: int) -> dict:
    """The experiment config for one workload seed, as a JSON-ready dict."""
    ss = np.random.SeedSequence([_SEED_TAG, list(WORKLOADS).index(workload.name), int(seed)])
    data_seed, fed_seed = (int(s) for s in ss.generate_state(2))
    rng = np.random.default_rng(ss.spawn(1)[0])
    picked = rng.choice(workload.clients, size=sum(workload.request_sizes), replace=False)
    requests, start = [], 0
    for size in workload.request_sizes:
        requests.append(sorted(int(c) for c in picked[start : start + size]))
        start += size
    r = workload.retrain_rounds
    return {
        "name": f"{workload.name}_{seed}",
        "model": {"kind": workload.kind, "dims": [workload.features], "l2": workload.l2},
        "data": {
            "clients": workload.clients,
            "samples_per_client": workload.samples,
            "features": workload.features,
            "heterogeneity": workload.heterogeneity,
            "seed": data_seed,
            "noise": 0.1,
        },
        "federation": {
            "eta": workload.eta,
            "local_steps": workload.local_steps,
            "rounds": workload.rounds,
            "seed": fed_seed,
            "init": "normal",
        },
        "budget": {"epsilon": 10.0, "delta": 0.05, "sigma": workload.sigma},
        "checkpoint_interval": 1,
        "requests": requests,
        "stopping": {"loss_threshold": "inf", "min_rounds": r, "max_rounds": r},
    }


def regime_violations(workload: Workload, positions: list[int]) -> list[str]:
    """Why the sifu rollback positions leave the workload's stated regime, if they do."""
    problems = []
    if len(positions) != len(workload.request_sizes):
        return [f"{len(positions)} rollbacks for {len(workload.request_sizes)} requests"]
    end = workload.rounds
    for u, position in enumerate(positions, start=1):
        if workload.rollback_regime == "end" and position != end:
            problems.append(f"request {u} rolled back to {position}, not to the timeline end {end}")
        if workload.rollback_regime == "interior" and position > workload.rounds // 4:
            problems.append(
                f"request {u} rolled back to {position}, past rounds/4 = {workload.rounds // 4}"
            )
        end = position + workload.retrain_rounds
    return problems
