"""Command-line surface: subcommand pipelines, config layering, exit codes."""

import csv
import json

import pytest

from secflow.cli import main


def _run(argv):
    return main(argv)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SECFLOW_SEED", raising=False)
    return tmp_path


def _gen_data(workdir, n=400, seed=42, extra=()):
    code = _run(
        ["gen-data", "--n", str(n), "--seed", str(seed), "--out", "data", *extra]
    )
    assert code == 0


class TestGenData:
    def test_writes_csvs_and_metadata(self, workdir):
        _gen_data(workdir)
        for kind in ("ntd", "clf"):
            assert (workdir / "data" / f"{kind}.csv").exists()
            assert (workdir / "data" / f"{kind}.meta.csv").exists()

    def test_rerun_byte_identical(self, workdir):
        _gen_data(workdir)
        first = (workdir / "data" / "ntd.csv").read_bytes()
        _gen_data(workdir)
        assert (workdir / "data" / "ntd.csv").read_bytes() == first

    def test_env_seed_overrides(self, workdir, monkeypatch):
        _gen_data(workdir, seed=1)
        baseline = (workdir / "data" / "ntd.csv").read_bytes()
        monkeypatch.setenv("SECFLOW_SEED", "2")
        # explicit flag still beats the environment
        code = _run(["gen-data", "--n", "400", "--seed", "1", "--out", "data"])
        assert code == 0
        assert (workdir / "data" / "ntd.csv").read_bytes() == baseline

    def test_env_seed_beats_config_file(self, workdir, monkeypatch):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "n": 400, "out": "a"}))
        code = _run(["gen-data", "--config", str(cfg)])
        assert code == 0
        monkeypatch.setenv("SECFLOW_SEED", "1")
        cfg.write_text(json.dumps({"seed": 999, "n": 400, "out": "b"}))
        code = _run(["gen-data", "--config", str(cfg)])
        assert code == 0
        assert (workdir / "a" / "ntd.csv").read_bytes() == (
            workdir / "b" / "ntd.csv"
        ).read_bytes()

    def test_bad_env_seed_is_usage_error(self, workdir, monkeypatch):
        monkeypatch.setenv("SECFLOW_SEED", "not-a-number")
        assert _run(["gen-data", "--n", "10"]) == 2


class TestTrainDetect:
    def test_metrics_csv_shape(self, workdir):
        _gen_data(workdir)
        code = _run(
            ["train-detect", "--data", "data", "--out", "art", "--seed", "42"]
        )
        assert code == 0
        with open(workdir / "art" / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "model", "class", "accuracy", "f1", "far"]
        models = {r[1] for r in rows[1:]}
        assert models == {"random_forest", "linear"}
        datasets = {r[0] for r in rows[1:]}
        assert datasets == {"ntd", "clf"}
        for r in rows[1:]:
            for col in (3, 4, 5):
                assert 0.0 <= float(r[col]) <= 1.0
        assert (workdir / "art" / "models.json").exists()

    def test_missing_data_is_runtime_error(self, workdir):
        assert _run(["train-detect", "--data", "nowhere", "--out", "art"]) == 1


class TestSeverityAndSimulate:
    def _pipeline(self, workdir, seed=42):
        _gen_data(workdir, n=600, seed=seed, extra=["--intensity-mode", "banded"])
        assert _run(["train-detect", "--data", "data", "--out", "art",
                     "--seed", str(seed)]) == 0
        assert _run(["train-severity", "--data", "data", "--out", "art",
                     "--seed", str(seed)]) == 0

    def test_severity_embedded_in_models(self, workdir):
        self._pipeline(workdir)
        doc = json.loads((workdir / "art" / "models.json").read_text())
        assert "severity" in doc
        assert doc["detectors"]  # detectors preserved

    def test_simulate_emits_results_and_events(self, workdir):
        self._pipeline(workdir)
        code = _run(
            ["simulate", "--models", "art/models.json", "--wf-class", "small",
             "--runs", "5", "--rate", "0.3", "--seed", "42", "--out", "res"]
        )
        assert code == 0
        with open(workdir / "res" / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6  # header + 5 runs
        assert rows[1][1] == "lowest-cost"
        events = (workdir / "res" / "events.jsonl").read_text().splitlines()
        assert len(events) == 5
        for line in events:
            json.loads(line)

    def test_simulate_qtable_with_lowest_cost_is_usage_error(self, workdir, capsys):
        (workdir / "qtable.json").write_text("{}")
        code = _run(
            ["simulate", "--models", "art/models.json", "--qtable", "qtable.json",
             "--strategy", "lowest-cost", "--runs", "1"]
        )
        assert code == 2
        assert "qtable.json" in capsys.readouterr().err

    def test_simulate_without_detector_is_usage_error(self, workdir, capsys):
        self._pipeline(workdir)
        code = _run(
            ["simulate", "--models", "art/models.json", "--runs", "1",
             "--set", "detector=svm"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'ntd/svm'" in err and "art/models.json" in err

    def test_simulate_without_severity_is_usage_error(self, workdir):
        _gen_data(workdir)
        assert _run(["train-detect", "--data", "data", "--out", "art",
                     "--seed", "42"]) == 0
        code = _run(
            ["simulate", "--models", "art/models.json", "--runs", "1"]
        )
        assert code == 2


class TestCompareAndReport:
    def test_compare_windows_per_class_and_strategy(self, workdir):
        code = _run(
            ["compare", "--runs", "30", "--window", "10", "--rate", "0.3",
             "--seed", "42", "--classes", "small", "--out", "res",
             "--set", "train_n=400"]
        )
        assert code == 0
        with open(workdir / "res" / "windows.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "strategy", "window", "price", "time",
                           "value", "mitigation"]
        per = {}
        for r in rows[1:]:
            per.setdefault((r[0], r[1]), []).append(r[2])
        assert set(per) == {("small", "lowest-cost"), ("small", "adaptive")}
        for windows in per.values():
            assert windows == ["0", "1", "2"]

    def test_report_consumes_emitted_csvs(self, workdir):
        code = _run(
            ["compare", "--runs", "20", "--window", "10", "--rate", "0.2",
             "--seed", "7", "--classes", "small", "--out", "res",
             "--set", "train_n=400"]
        )
        assert code == 0
        code = _run(
            ["report", "--results", "res/results.csv",
             "--windows", "res/windows.csv", "--out", "report.md"]
        )
        assert code == 0
        text = (workdir / "report.md").read_text()
        assert "## Execution summary" in text
        assert "## Rolling windows" in text
        assert "| small | lowest-cost |" in text

    def test_report_without_inputs_is_usage_error(self, workdir):
        assert _run(["report"]) == 2


class TestUsageErrors:
    def test_unknown_flag_exit_2(self, workdir):
        assert _run(["gen-data", "--frobnicate"]) == 2

    def test_unknown_subcommand_exit_2(self, workdir):
        assert _run(["transmogrify"]) == 2

    def test_bad_set_syntax_exit_2(self, workdir):
        assert _run(["gen-data", "--set", "novalue"]) == 2

    def test_invalid_config_json_exit_2(self, workdir, capsys):
        (workdir / "bad.json").write_text("{n: 10}")
        assert _run(["gen-data", "--config", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("secflow: usage error: config bad.json is not valid JSON")


@pytest.fixture(scope="module")
def models_file(tmp_path_factory):
    """A small detector + severity model file, built once for the
    input-file error tests."""
    root = tmp_path_factory.mktemp("models")
    data, art = str(root / "data"), str(root / "art")
    assert _run(["gen-data", "--n", "300", "--seed", "42", "--out", data]) == 0
    assert _run(["train-detect", "--data", data, "--out", art]) == 0
    assert _run(["train-severity", "--data", data, "--out", art]) == 0
    return root / "art" / "models.json"


class TestInputFileErrors:
    """A malformed Q-table or model file fails with one line naming the file
    and the JSON path."""

    def _error(self, capsys, argv):
        assert _run(["simulate", "--runs", "1", *argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        return err

    def _qtable_error(self, workdir, capsys, models_file, doc):
        (workdir / "q.json").write_text(json.dumps(doc))
        return self._error(capsys, ["--models", str(models_file), "--strategy",
                                    "adaptive", "--qtable", "q.json"])

    def test_qtable_entry_without_q(self, workdir, capsys, models_file):
        doc = {"config": {}, "entries": [{"state": "s", "action": "skip", "n": 1}]}
        err = self._qtable_error(workdir, capsys, models_file, doc)
        assert "q.json: $.entries[0]: missing field 'q'" in err

    def test_qtable_array(self, workdir, capsys, models_file):
        err = self._qtable_error(workdir, capsys, models_file, [])
        assert "q.json: $: must be an object" in err

    def test_qtable_short_discretization(self, workdir, capsys, models_file):
        doc = {"config": {}, "entries": [], "discretization": {"time": [1.0]}}
        err = self._qtable_error(workdir, capsys, models_file, doc)
        assert "q.json: $.discretization.time: must be 3 ascending finite cuts" in err

    def test_models_not_json(self, workdir, capsys):
        (workdir / "m.json").write_text("not json")
        err = self._error(capsys, ["--models", "m.json"])
        assert "m.json: $: not valid JSON: Expecting value" in err

    def test_models_array(self, workdir, capsys):
        (workdir / "m.json").write_text("[]")
        err = self._error(capsys, ["--models", "m.json"])
        assert "m.json: $: must be an object" in err

    def test_severity_entry_without_centroids(self, workdir, capsys, models_file):
        doc = json.loads(models_file.read_text())
        del doc["severity"]["ntd/dos"]["centroids"]
        (workdir / "m.json").write_text(json.dumps(doc))
        err = self._error(capsys, ["--models", "m.json"])
        assert 'm.json: severity["ntd/dos"]: missing field \'centroids\'' in err


class TestGenBench:
    def test_emits_parseable_pair(self, workdir):
        from secflow.model import parse_multicloud, parse_workflow

        assert _run(["gen-bench", "--wf-class", "small", "--seed", "3",
                     "--out", "bench"]) == 0
        wf = parse_workflow((workdir / "bench" / "workflow.json").read_text())
        cloud = parse_multicloud((workdir / "bench" / "cloud.json").read_text())
        assert 3 <= len(wf.tasks) <= 10
        assert len(cloud.providers) == 5
