"""The three benchmark workloads: their set-up, their measured unit of work,
and the checks on each unit's outputs.

A workload's measured phase repeats one fixed unit (an experiment, or a
training round) while time remains. Every repeat does identical work from
identical inputs, so every repeat must write the same output digest, and a
digest compares across commits and between traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from secflow import cli, datagen, detection, rl, severity, sim
from secflow.datagen import DatasetKind
from secflow.model import TenantConfig

KINDS = (DatasetKind.NTD, DatasetKind.CLF)

# The workflow is the workload's fixed input size: the one `secflow compare`
# draws for the class at its default seed (seed 0 + 100 + class index). A
# workflow drawn from --seed would have 10-50 (medium) or 50-100 (large)
# tasks, so instance times would differ up to 5x between seeds. --seed varies
# the telemetry, the fitted models, the cloud and every run seed.
SIM = {
    "simulate-medium": {"wf_class": sim.WorkflowClass.MEDIUM, "class_index": 1,
                        "strategy": "lowest-cost", "rate": 0.3},
    "adapt-large": {"wf_class": sim.WorkflowClass.LARGE, "class_index": 2,
                    "strategy": "adaptive", "rate": 0.8},
}

# Sizes per workload. `tiny` exists for the smoke test only.
SIZES = {
    "full": {
        "simulate-medium": {"train_n": 1500, "n_trees": 50, "n_runs": 200, "burn_in": None,
                            "setup_repeats": 5},
        "adapt-large": {"train_n": 1500, "n_trees": 50, "n_runs": 30, "burn_in": None,
                        "setup_repeats": 5},
        "train-detect": {"train_n": 4000, "n_trees": 50, "setup_repeats": 25},
    },
    "tiny": {
        "simulate-medium": {"train_n": 300, "n_trees": 3, "n_runs": 4, "burn_in": 2,
                            "setup_repeats": 2},
        "adapt-large": {"train_n": 300, "n_trees": 3, "n_runs": 4, "burn_in": 2,
                        "setup_repeats": 2},
        "train-detect": {"train_n": 300, "n_trees": 3, "setup_repeats": 2},
    },
}


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


@dataclass
class Tally:
    """Outcome of every operation: a workflow instance or a training round."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    instance_s: list = field(default_factory=list)
    injected: int = 0
    detected: int = 0
    adapted: int = 0
    false_alarms: int = 0
    episode_adapted: int = 0

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def on_instance(self, result, seconds, episode):
        self.attempted += 1
        self.instance_s.append(seconds)
        problems = run_result_problems(result)
        if problems:
            self.fail(f"instance {self.attempted}: " + "; ".join(problems))
            return
        self.injected += result.injected
        self.detected += result.detected
        self.adapted += result.adapted
        self.false_alarms += result.false_alarms
        if episode:
            self.episode_adapted += result.adapted


def run_result_problems(r) -> list:
    """Identities every RunResult must satisfy."""
    outcomes = {}
    for e in r.events:
        outcomes[e["outcome"]] = outcomes.get(e["outcome"], 0) + 1
    out = []
    if r.injected != r.detected + outcomes.get("undetected", 0):
        out.append(f"injected {r.injected} != detected {r.detected} + undetected events")
    detected_events = sum(outcomes.get(k, 0) for k in ("adapted", "unmitigable", "below-threshold"))
    if r.detected != detected_events:
        out.append(f"detected {r.detected} != {detected_events} detected-outcome events")
    if r.adapted != outcomes.get("adapted", 0):
        out.append(f"adapted {r.adapted} != adapted events")
    if r.unmitigated != outcomes.get("unmitigable", 0):
        out.append(f"unmitigated {r.unmitigated} != unmitigable events")
    for name in ("price", "time"):
        v = getattr(r, name)
        if not (math.isfinite(v) and v >= 0.0):
            out.append(f"{name} {v!r} is not finite and non-negative")
    return out


# ---------------------------------------------------------------------------
# simulate-medium, adapt-large


@dataclass
class SimSetup:
    workflow: object
    cloud: object
    detectors: dict
    severity_model: object
    held_out: dict
    setup_s: float
    fit_s: float


def sim_setup(workload, seed, size, clock):
    """What `cli.run_compare` fits and generates before its experiments."""
    spec = SIM[workload]
    clock.restart()
    start = clock.total
    datasets = {
        kind: datagen.generate(kind, size["train_n"], cli.DEFAULT_MIX, seed + i)
        for i, kind in enumerate(KINDS)
    }
    clock.lap()
    fit_start = clock.total
    detectors, held_out = {}, {}
    for kind, ds in datasets.items():
        train, held_out[kind] = datagen.split(ds, 0.8, seed)
        detectors[kind] = detection.train_random_forest(
            train, n_trees=size["n_trees"], seed=seed)
        clock.lap()
    sev = severity.fit_severity(datasets, seed)
    clock.lap()
    fit_s = clock.total - fit_start
    workflow = sim.generate_workflow_class(spec["wf_class"], 100 + spec["class_index"])
    cloud = sim.generate_multicloud(seed + 200 + spec["class_index"])
    clock.lap()
    return SimSetup(workflow, cloud, detectors, sev, held_out, clock.total - start, fit_s)


def sim_unit(workload, seed, size, setup, clock):
    """One experiment; returns (scaled seconds, output digest, Q-table or None)."""
    spec = SIM[workload]
    table = rl.QTable() if spec["strategy"] == "adaptive" else None
    kwargs = {} if size["burn_in"] is None else {"burn_in": size["burn_in"]}
    clock.restart()
    start = clock.total
    result = sim.run_experiment(
        setup.workflow, setup.cloud, setup.detectors, setup.severity_model,
        TenantConfig(), size["n_runs"], spec["strategy"], spec["rate"],
        seed=seed + 300 + spec["class_index"], qtable=table, **kwargs,
    )
    clock.lap()
    text = result.aggregate_csv(spec["strategy"], spec["wf_class"].value)
    digest = _sha256(text.encode(), cli._events_jsonl(result.runs).encode())
    return clock.total - start, digest, table


# ---------------------------------------------------------------------------
# train-detect


def train_setup(seed, size, clock):
    """`secflow gen-data --n 4000`: one seed for both kinds. Returns the
    datasets and the scaled seconds."""
    clock.restart()
    datasets = {kind: datagen.generate(kind, size["train_n"], cli.DEFAULT_MIX, seed)
                for kind in KINDS}
    return datasets, clock.lap()


@dataclass
class Round:
    digest: str
    seconds: float  # the measured work only, not the checks after it
    eval_s: float
    eval_records: int
    rf_accuracy: float


def train_round(seed, size, datasets, models_path, clock):
    """`secflow train-detect` (0.7 split) plus `train-severity`, then the
    model file round trip. Returns the Round and its list of problems."""
    clock.restart()
    start = clock.total
    models, rows, tests = {}, [], {}
    eval_s, eval_records, rf_acc = 0.0, 0, []
    for kind, ds in datasets.items():
        train, tests[kind] = datagen.split(ds, 0.7, seed)
        fitted = {
            "random_forest": detection.train_random_forest(
                train, n_trees=size["n_trees"], seed=seed),
            "linear": detection.train_linear(train),
        }
        for name, m in fitted.items():
            models[f"{kind.value}/{name}"] = m
            clock.lap()
            metrics = detection.evaluate(m, tests[kind])
            eval_s += clock.lap()
            eval_records += len(tests[kind])
            if name == "random_forest":
                rf_acc.append(metrics.accuracy)
            for cls in m.classes:
                rows.append([kind.value, name, cls, repr(metrics.accuracy),
                             repr(metrics.f1[cls]), repr(metrics.far.get(cls, 0.0))])
    sev_obj = severity.severity_to_obj(severity.fit_severity(datasets, seed))
    detection.save_models(models_path, models, sev_obj)
    loaded, loaded_sev = detection.load_models(models_path)
    clock.lap()
    seconds = clock.total - start

    problems = []
    for key, m in models.items():
        X = tests[DatasetKind(m.dataset_kind)].X
        if not np.array_equal(m.predict_batch(X), loaded[key].predict_batch(X)):
            problems.append(f"reloaded {key} predicts the held-out rows differently")
    if loaded_sev != sev_obj:
        problems.append("reloaded severity model differs from the fitted one")
    with open(models_path, "rb") as fh:
        digest = _sha256(cli._metrics_csv(rows).encode(), fh.read())
    os.remove(models_path)
    rnd = Round(digest, seconds, eval_s, eval_records, float(np.mean(rf_acc)))
    return rnd, problems
