"""Shared builders for small deterministic fixtures used across the suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from secflow import rl
from secflow.decision import cost_rank
from secflow.model import (
    ActionKind,
    AttackType,
    MultiCloud,
    SchedulingPlan,
    SecurityVector,
    Service,
    Task,
    TenantConfig,
    Workflow,
)


class NoNoise:
    """An overhead-noise stream whose every draw is 0.0. exp(0.0) == 1.0, so a
    ledger fed by it records each adaptation's nominal price and time."""

    def normal(self, loc=0.0, scale=1.0):
        return 0.0


def make_task(tid="t0", cia=(0.5, 0.5, 0.5), value=1.0, kinds=None):
    if kinds is None:
        kinds = list(ActionKind)
    return Task(
        id=tid,
        requirements=SecurityVector(*cia),
        value=value,
        feasible_actions={k: None for k in kinds},
    )


def make_service(
    sid="p0-s0",
    provider="p0",
    price=2.0,
    time=10.0,
    guarantees=(1.0, 1.0, 1.0),
    afr=0.5,
):
    rates = afr if isinstance(afr, dict) else {at: afr for at in AttackType}
    return Service(
        id=sid,
        provider_id=provider,
        price=price,
        response_time=time,
        guarantees=SecurityVector(*guarantees),
        afr=rates,
    )


def make_cloud(services):
    by_provider = {}
    for s in services:
        by_provider.setdefault(s.provider_id, []).append(s)
    return MultiCloud(
        providers=tuple((pid, tuple(ss)) for pid, ss in by_provider.items())
    )


def make_plan(workflow, service_id):
    return SchedulingPlan(bindings={t.id: service_id for t in workflow.tasks})


@pytest.fixture
def single_task_workflow():
    return Workflow(tasks=(make_task(),), control_edges=(), data_edges=())


@pytest.fixture
def default_tenant():
    return TenantConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


#: A label mix with so few normal records that a small forest labels many
#: clean records as attacks, so every RunResult counter, `false_alarms`
#: included, comes out nonzero.
WEAK_MIX = {"normal": 0.02, "dos": 0.245, "probe": 0.245, "u2r": 0.245, "r2l": 0.245}


def weak_models(seed=7, n=100, n_trees=5):
    """(detectors, severity model) fitted on `n` WEAK_MIX records a kind."""
    from secflow.datagen import DatasetKind, generate
    from secflow.detection import train_random_forest
    from secflow.severity import fit_severity

    datasets = {kind: generate(kind, n, WEAK_MIX, seed + i)
                for i, kind in enumerate(DatasetKind)}
    detectors = {kind: train_random_forest(ds, n_trees=n_trees, seed=seed)
                 for kind, ds in datasets.items()}
    return detectors, fit_severity(datasets, seed)


def greedy_choice(table, event):
    """The kind `rl.predict` picks over `table` for an adapted event: its state
    is the event's type and severity, and its candidates are the event's,
    ranked cheapest-first again with `decision.cost_rank`."""
    ranked = sorted((SimpleNamespace(total=c["cost"], mitigation=c["mitigation"],
                                     kind=ActionKind(c["kind"]))
                     for c in event["candidates"]), key=cost_rank)
    state = f"{event['type']}|{event['severity']}"
    return rl.predict(table, state, [b.kind for b in ranked]).value


def report_table(text, heading):
    """The header and rows of the markdown table under `## heading` in the
    report `text`, each cell as written."""
    table = text.split(f"## {heading}\n\n", 1)[1].split("\n\n", 1)[0]
    header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                        for line in table.splitlines())
    return header, rows
