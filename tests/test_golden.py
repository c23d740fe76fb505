"""Golden digests: the determinism contract checked against stored SHA-256
digests of the bytes each pipeline writes, not only by running it twice.

A change that alters any of these bytes must update the digest here and say
why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import pytest

from secflow import cli, datagen, detection, rl, sim
from secflow.model import ACTION_ORDER, TenantConfig
from tests.conftest import greedy_choice, report_table, weak_models

GOLDEN = {
    "compare/results.csv":
        "db26f6abdf964fde8114a65f5bff061126a762bc1512d944e1d6b8a77fe81c67",
    "compare/windows.csv":
        "9e3860fcf4cfb09daab9c2d2fd909fb09a8620220e2f04b06988a4a9073a6c65",
    "compare/events.jsonl":
        "37cbacf7885829753306369c668f2f4fe4a246fe2fadb6194b52ab614837b29a",
    "gen-data/ntd.csv":
        "de92904bddc424b9feea98ed4a1a884784f2b402aa72573e851701779e648761",
    "gen-data/ntd.meta.csv":
        "5849939ef022b09f91aa8031bb8007dede90505a9a1b20c787cb95e5fe005bb2",
    "gen-data/clf.csv":
        "6937736dae469fb0e80df70cb4bb4789b6de1c740590d6f4b285b471fd232efa",
    "gen-data/clf.meta.csv":
        "188096d72704e2c4e451ea75c159a159a23ac78ff8b1ad977a349cf37a7ac3cf",
    "train/metrics.csv":
        "4b8205f7d2bdf44351bb82f1c35212608f839d2a857e7242081e977175c31a27",
    "train/models.json":
        "d24f00ecd8e681ece3ff34d6d9cac66de9cc9887ad7b7f67f1f1f4f6a7f82e3d",
    "simulate-fresh/qtable.json":
        "bd9cf0d8f5d045431f1cf317252a8fed10c0f0cffafb138b1960b43a79bde893",
    "simulate-lowest-cost/results.csv":
        "df177b02903183b4e760c3d0ed52e93de72953e597ad0c6f9d40586a04856e7c",
    "simulate-lowest-cost/events.jsonl":
        "bbfe51b670afaaf1795da98f92b0cd82d9d9aba68b5eacf332ab757ebdbef317",
    "simulate-adaptive/results.csv":
        "8c08286cf2f8cddd242bf7ceb43a7339fe9ad1efc1eeee34c88656098dee2a02",
    "simulate-adaptive/events.jsonl":
        "e2f52f34138ec73d558618ca73d8ddc168796170327d4015d3e3e8ec189756a7",
    "simulate-frozen/results.csv":
        "9a8de827515e01c09c75cade4243d2a1471805e0da0a0c417bb596a8cc21cc42",
    "simulate-frozen/events.jsonl":
        "b6ec83158bd2037e27edeeb9da170717a3c37059bdf1cb4a1e8ef30e4763a5e8",
}

SEED = "5"
RUNTIME = ["--wf-class", "small", "--rate", "0.8", "--seed", SEED]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every output of the pipelines, keyed like GOLDEN."""
    root = tmp_path_factory.mktemp("golden")
    out = {}

    compare_cfg = {"seed": 5, "runs": 12, "rate": 0.8, "classes": "small", "train_n": 300}
    results_csv, experiments = cli.run_compare(compare_cfg)
    out["compare/results.csv"] = results_csv.encode()
    # compare's rolling windows, as report computes them from its results.csv
    (root / "results.csv").write_text(results_csv)
    assert cli.main(["report", "--results", str(root / "results.csv"), "--window", "5",
                     "--out", str(root / "report.md")]) == 0
    windows = report_table((root / "report.md").read_text(), "Rolling windows")
    out["compare/windows.csv"] = datagen.csv_text(*windows).encode()
    out["compare/events.jsonl"] = b"".join(
        cli._events_jsonl(experiments[key].runs).encode() for key in sorted(experiments)
    )

    data, art = root / "data", root / "art"
    models = str(art / "models.json")
    # the adaptive run from a fresh table trains the table the others deploy
    qtable = root / "simulate-fresh" / "qtable.json"
    steps = [
        ["gen-data", "--n", "300", "--seed", SEED, "--intensity-mode", "banded",
         "--out", str(data)],
        ["train-detect", "--data", str(data), "--out", str(art), "--seed", SEED],
        ["simulate", "--models", models, "--strategy", "adaptive", "--runs", "6",
         *RUNTIME, "--out", str(root / "simulate-fresh")],
        ["simulate", "--models", models, "--strategy", "lowest-cost", "--runs", "6",
         *RUNTIME, "--out", str(root / "simulate-lowest-cost")],
        ["simulate", "--models", models, "--strategy", "adaptive", "--runs", "6",
         "--qtable", str(qtable), *RUNTIME, "--out", str(root / "simulate-adaptive")],
        ["simulate", "--models", models, "--strategy", "frozen", "--runs", "6",
         "--qtable", str(qtable), *RUNTIME, "--out", str(root / "simulate-frozen")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    for fname in ("ntd.csv", "ntd.meta.csv", "clf.csv", "clf.meta.csv"):
        out[f"gen-data/{fname}"] = (data / fname).read_bytes()
    for fname in ("metrics.csv", "models.json"):
        out[f"train/{fname}"] = (art / fname).read_bytes()
    out["simulate-fresh/qtable.json"] = qtable.read_bytes()
    for name in ("simulate-lowest-cost", "simulate-adaptive", "simulate-frozen"):
        for fname in ("results.csv", "events.jsonl"):
            out[f"{name}/{fname}"] = (root / name / fname).read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert _sha(outputs[name]) == GOLDEN[name]


def _adapted_events(outputs, name):
    return [event for line in outputs[f"{name}/events.jsonl"].decode().splitlines()
            for event in json.loads(line)["events"] if event["outcome"] == "adapted"]


def test_adaptive_run_picks_a_non_cheapest_candidate(outputs):
    """At least one adapted event chose a kind other than the lowest-cost
    one, so the decision built from a learned choice is exercised."""
    order = {k.value: i for i, k in enumerate(ACTION_ORDER)}
    picked_other = 0
    for event in _adapted_events(outputs, "simulate-adaptive"):
        cheapest = min(
            event["candidates"],
            key=lambda c: (c["cost"], -c["mitigation"], order[c["kind"]]),
        )
        picked_other += event["chosen"] != cheapest["kind"]
    assert picked_other > 0


def test_frozen_run_deploys_the_trained_tables_greedy_choices(outputs):
    """Every decision of the deployed run is the trained table's greedy
    choice, and some of them are not the cheapest candidate."""
    table = rl.table_from_json(outputs["simulate-fresh/qtable.json"].decode())
    adapted = _adapted_events(outputs, "simulate-frozen")
    assert adapted
    assert all(event["chosen"] == greedy_choice(table, event) for event in adapted)
    assert any(event["chosen"] != greedy_choice(rl.QTable(), event) for event in adapted)


# results.csv carries neither `false_alarms` nor `unmitigated`, so the digests
# above cannot see them; this one covers every RunResult counter and float.
RUN_RESULT_GOLDEN = {
    "lowest-cost": "1ae40d6241f3f972dc372e7d635ff5644d6c581232fb11b1bb132d6df9b1fdcc",
    "adaptive": "b8554dfd4f1b202ff2304a50581b6f851e1f4a61608288fb846b0661ed9cbc19",
}


def _run_result_lines(runs):
    names = [f.name for f in dataclasses.fields(sim.RunResult) if f.name != "events"]
    return "".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                 for v in (getattr(r, name) for name in names)) + "\n"
        for r in runs
    )


@pytest.mark.parametrize("strategy", sorted(RUN_RESULT_GOLDEN))
def test_run_result_digest(strategy):
    detectors, severity_model = weak_models()
    workflow = sim.generate_workflow_class(sim.WorkflowClass.MEDIUM, 8)
    cloud = sim.generate_multicloud(4)
    exp = sim.run_experiment(
        workflow, cloud, detectors, severity_model, TenantConfig(), 20, strategy, 0.5,
        seed=9, burn_in=5,
    )
    for counter in ("false_alarms", "unmitigated", "failures"):
        assert sum(getattr(r, counter) for r in exp.runs) > 0, counter
    assert _sha(_run_result_lines(exp.runs).encode()) == RUN_RESULT_GOLDEN[strategy]


# The split search scores only the cuts that can be a node's first minimum;
# the margin by which a skipped cut loses shrinks as nodes grow, so these pin
# the forests fit on 8,400 rows (12,000 records, a 0.7 split), larger than
# any other fit here. Recorded before the search skipped any cut.
LARGE_FOREST_GOLDEN = {
    "ntd": "d027d2d29406ded522f4d6f11cc8ac7b11d07d981422ae118f6a637241a63deb",
    "clf": "44aa31b3087d545a2cca85bf51a6656705e6fbca3bdb87c812da2ff880ac0d80",
}


@pytest.mark.parametrize("kind", sorted(LARGE_FOREST_GOLDEN))
def test_large_forest_digest(kind):
    records = datagen.generate(datagen.DatasetKind(kind), 12000, cli.DEFAULT_MIX, 7)
    train = datagen.split(records, 0.7, seed=7)[0]
    assert len(train) == 8400
    model = detection.train_random_forest(train)
    assert _sha(json.dumps(detection.model_to_obj(model)).encode()) == LARGE_FOREST_GOLDEN[kind]
