"""Span tracing around fedunlearn's public functions, patched from outside.

`install` wraps each function in LAYERS at every fedunlearn module that bound
it by name (runner, unlearn and oracle import engine functions directly), and
each method in CLASS_LAYERS on its class.  A span is (name, start, end,
parent); spans live in flat int64 arrays until the cycle ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _ckpt_bytes(values) -> int:
    # engine's checkpoint layout: 52-byte header, then float64 values
    return 52 + 8 * len(values)


# (span name, module, attribute, modules to patch or None for all, bytes(args, result))
LAYERS = (
    ("models.grad", "models", "grad", None, None),
    ("models.loss", "models", "loss", None, None),
    ("models.regime_constants", "models", "regime_constants", None, None),
    ("engine.local_update", "engine", "local_update", None, None),
    ("engine.fedavg_round", "engine", "fedavg_round", None, None),
    ("engine.aggregate", "engine", "aggregate", None, None),
    ("engine.federation_loss", "engine", "federation_loss", None, None),
    ("engine.run_fedavg", "engine", "run_fedavg", None, None),
    ("engine.write_checkpoint", "engine", "write_checkpoint", None, lambda a, r: _ckpt_bytes(a[2])),
    ("engine.read_checkpoint", "engine", "read_checkpoint", None, lambda a, r: _ckpt_bytes(r[1])),
    ("sensitivity.client_increment_fast", "sensitivity", "client_increment_fast", None, None),
    # dumps17 recurses through its own module global; only top-level calls are spans
    ("serialize.dumps17", "serialize", "dumps17", ("runner",), None),
    ("datagen.generate_data", "datagen", "generate_data", None, None),
    ("config.parse_config", "config", "parse_config", None, None),
    ("runner.prepare", "runner", "prepare", None, None),
    ("unlearn.retrain_until", "unlearn", "retrain_until", None, None),
    ("unlearn.sifu", "unlearn", "sifu", None, None),
    ("oracle.empirical_sensitivity", "oracle", "empirical_sensitivity", None, None),
    ("oracle.check_bound", "oracle", "check_bound", None, None),
)

# (module, class, method, bytes(args, result)); classmethods keep their binding
CLASS_LAYERS = (
    ("sensitivity", "SensitivityLedger", "record_round", None),
    ("sensitivity", "SensitivityLedger", "export_csv", lambda a, r: os.path.getsize(a[1])),
    ("sensitivity", "SensitivityLedger", "from_csv", lambda a, r: os.path.getsize(a[1])),
    ("sensitivity", "SensitivityLedger", "rollback_index", None),
    ("sensitivity", "SensitivityLedger", "truncate", None),
    ("sensitivity", "SensitivityLedger", "set_sensitivity", None),
    ("history", "TrainingHistory", "truncate", None),
    ("history", "TrainingHistory", "model_at", None),
    ("history", "TrainingHistory", "from_positions", None),
)

METHODS = ("sifu", "ifu", "scratch", "finetune", "last")

# spans the benchmark opens itself around each phase call
PHASE_SPANS = (
    "runner.cmd_train",
    *(f"runner.cmd_unlearn.{method}" for method in METHODS),
    "runner.cmd_verify",
    "runner.cmd_report",
)

# functions whose per-call latency is reported as p50/p99
PERCENTILE_SPANS = ("models.grad", "engine.fedavg_round")


class Tracer:
    """In-memory span store for one traced cycle."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.bytes = dict.fromkeys(self.bytes, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, measure=None):
        nid = self._id(name)
        if measure is not None:
            self.bytes.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.bytes[name] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def register(self, names) -> None:
        for name in names:
            self._id(name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def summary(self) -> tuple[dict[str, dict], dict[str, np.ndarray]]:
        """Per-span-name calls/self_s/total_s/bytes, plus raw durations (us)
        for the PERCENTILE_SPANS."""
        spans = self.arrays()
        ids, parent = spans["name_id"], spans["parent"]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.shape[0])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_ns = np.bincount(ids, weights=own, minlength=k)
        total_ns = np.bincount(ids, weights=dur, minlength=k)
        stats = {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_ns[i]) / 1e9,
                "total_s": float(total_ns[i]) / 1e9,
                "bytes": self.bytes.get(name, 0),
            }
            for i, name in enumerate(self.names)
        }
        durations = {
            name: dur[ids == self._ids[name]] / 1e3 for name in PERCENTILE_SPANS if name in self._ids
        }
        return stats, durations


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fedunlearn" or name.startswith("fedunlearn."))
    ]


def install(tracer: Tracer):
    """Patch every listed layer; returns a callable that restores the originals.

    A layer the program no longer has is reported with zero calls, and its
    name is added to tracer.missing.
    """
    modules = {mod.__name__.removeprefix("fedunlearn."): mod for mod in _package_modules()}
    undo = []
    tracer.missing = []
    for name, module, attr, sites, measure in LAYERS:
        original = getattr(modules.get(module), attr, None)
        if original is None:
            tracer.missing.append(name)
            tracer.register([name])
            continue
        wrapped = tracer.wrap(name, original, measure)
        for site_name, site in modules.items():
            if sites is not None and site_name not in sites:
                continue
            if site.__dict__.get(attr) is original:
                undo.append((site, attr, original))
                setattr(site, attr, wrapped)
    for module, cls_name, attr, measure in CLASS_LAYERS:
        name = f"{module}.{cls_name}.{attr}"
        cls = getattr(modules.get(module), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            tracer.missing.append(name)
            tracer.register([name])
            continue
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__, measure))
        else:
            replacement = tracer.wrap(name, original, measure)
        undo.append((cls, attr, original))
        setattr(cls, attr, replacement)
    tracer.register(PHASE_SPANS)

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore
