"""Command-line surface: subcommand pipelines, config layering, exit codes."""

import csv
import json

import pytest

from secflow import cli, detection, rl, severity, sim
from secflow.cli import main
from secflow.datagen import DatasetKind
from secflow.model import TenantConfig
from tests.conftest import report_table


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

    def test_set_takes_a_path_as_written(self, workdir):
        assert _run(["gen-data", "--n", "10", "--kind", "clf", "--set", "out=123"]) == 0
        assert (workdir / "123" / "clf.csv").exists()

    def test_negative_mix_fraction_is_runtime_error(self, workdir, capsys):
        code = _run(["gen-data", "--n", "10", "--kind", "clf", "--out", "out",
                     "--set", 'mix={"normal": 1.5, "dos": -0.5}'])
        assert code == 1
        assert capsys.readouterr().err == (
            "secflow: error: attack_mix fraction of 'dos' must be a finite number >= 0, "
            "got -0.5\n")
        assert not (workdir / "out").exists()


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

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r[:-1] + ["zzz"], "clf row 5: label 'zzz' is not one of normal, dos, probe, "
                                     "u2r, r2l"),
        (lambda r: ["xyz"] + r[1:], "clf row 5, column cpu_util: not a number 'xyz'"),
    ], ids=["label", "cell"])
    def test_malformed_row_names_file_and_row(self, workdir, capsys, edit, message):
        _gen_data(workdir, extra=["--kind", "clf"])
        path = workdir / "data" / "clf.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[6] = edit(rows[6])
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 1
        assert capsys.readouterr().err == f"secflow: error: data/clf.csv: {message}\n"
        assert not (workdir / "art" / "models.json").exists()

    def test_malformed_metadata_names_the_metadata_file(self, workdir, capsys):
        _gen_data(workdir, extra=["--kind", "clf"])
        (workdir / "data" / "clf.meta.csv").write_text("row,intensity\n0,1.5\n")
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 1
        assert capsys.readouterr().err == ("secflow: error: data/clf.meta.csv: clf metadata "
                                           "line 2 '0,1.5': intensity outside [0, 1]\n")

    def test_missing_metadata_names_the_metadata_file(self, workdir, capsys):
        """Without its .meta.csv every intensity would read as 0.0."""
        _gen_data(workdir, extra=["--kind", "clf"])
        (workdir / "data" / "clf.meta.csv").unlink()
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 1
        assert capsys.readouterr().err == ("secflow: error: [Errno 2] No such file or "
                                           "directory: 'data/clf.meta.csv'\n")
        assert not (workdir / "art" / "models.json").exists()

    def test_metadata_without_header_names_the_metadata_file(self, workdir, capsys):
        _gen_data(workdir, extra=["--kind", "clf"])
        meta = workdir / "data" / "clf.meta.csv"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(lines[1:]))
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 1
        assert capsys.readouterr().err == (
            "secflow: error: data/clf.meta.csv: clf metadata line 1: expected the header "
            f"'row,intensity', got {lines[1].strip()!r}\n")
        assert not (workdir / "art" / "models.json").exists()

    def test_failing_severity_fit_writes_nothing(self, workdir, capsys, monkeypatch):
        """The severity model is fitted after the detectors; when that fit
        fails, neither models.json nor metrics.csv is written."""
        def fail(datasets, seed):
            raise severity.FittingError("no severity today")

        _gen_data(workdir, extra=["--kind", "clf"])
        monkeypatch.setattr(severity, "fit_severity", fail)
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 1
        assert capsys.readouterr().err == "secflow: error: no severity today\n"
        assert not (workdir / "art" / "models.json").exists()
        assert not (workdir / "art" / "metrics.csv").exists()

    def test_one_kind_fits_that_kinds_detectors_and_severity(self, workdir):
        _gen_data(workdir, n=300, extra=["--kind", "clf"])
        assert _run(["train-detect", "--kind", "clf", "--data", "data", "--out", "art"]) == 0
        doc = json.loads((workdir / "art" / "models.json").read_text())
        assert sorted(doc["detectors"]) == ["clf/linear", "clf/random_forest"]
        assert doc["severity"] and all(key.startswith("clf/") for key in doc["severity"])

    def test_one_fit_writes_detectors_and_severity(self, workdir):
        """models.json holds the detectors of the training split and the
        severity model of the full datasets, at the same seed."""
        _gen_data(workdir, n=300)
        assert _run(["train-detect", "--data", "data", "--out", "art", "--seed", "3"]) == 0
        datasets = {kind: cli._load_dataset("data", kind) for kind in DatasetKind}
        severity_obj = severity.severity_to_obj(severity.fit_severity(datasets, 3))
        detectors, _ = detection.load_models("art/models.json")
        detection.save_models("expected.json", detectors, severity_obj)
        assert ((workdir / "art" / "models.json").read_bytes()
                == (workdir / "expected.json").read_bytes())


class TestSeverityAndSimulate:
    def _pipeline(self, workdir, seed=42):
        _gen_data(workdir, n=600, seed=seed, extra=["--intensity-mode", "banded"])
        assert _run(["train-detect", "--data", "data", "--out", "art",
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
        assert _run(["report", "--results", "res/results.csv", "--window", "2",
                     "--out", "report.md"]) == 0
        _, rows = report_table((workdir / "report.md").read_text(), "Rolling windows")
        assert [r[:3] for r in rows] == [["small", "lowest-cost", str(i)] for i in range(3)]

    def test_simulate_labels_rows_by_workflow_source(self, workdir):
        self._pipeline(workdir)
        assert _run(["gen-bench", "--out", "bench"]) == 0
        runs = {
            "generated": [],
            "small": ["--wf-class", "small"],
            "file": ["--workflow", "bench/workflow.json", "--cloud", "bench/cloud.json"],
        }
        for out, extra in runs.items():
            assert _run(["simulate", "--models", "art/models.json", "--runs", "2",
                         "--out", out, *extra]) == 0
        generated = (workdir / "generated" / "results.csv").read_text()
        assert generated == (workdir / "small" / "results.csv").read_text()
        assert {row["class"] for row in csv.DictReader(generated.splitlines())} == {"small"}
        with open(workdir / "file" / "results.csv") as fh:
            assert {row["class"] for row in csv.DictReader(fh)} == {"custom"}

    def test_simulate_qtable_with_lowest_cost_is_usage_error(self, workdir, capsys):
        (workdir / "qtable.json").write_text("{}")
        code = _run(
            ["simulate", "--models", "art/models.json", "--qtable", "qtable.json",
             "--strategy", "lowest-cost", "--runs", "1"]
        )
        assert code == 2
        assert "qtable.json" in capsys.readouterr().err

    @pytest.mark.parametrize("layer", [["--set", "qtable=q.json"], ["--config", "cfg.json"]],
                             ids=["set", "config"])
    def test_qtable_from_any_layer_with_lowest_cost_is_usage_error(self, workdir, capsys,
                                                                  layer):
        (workdir / "cfg.json").write_text(json.dumps({"qtable": "q.json"}))
        assert _run(["simulate", "--models", "art/models.json", "--runs", "1", *layer]) == 2
        assert capsys.readouterr().err == ("secflow: usage error: --qtable q.json needs "
                                           "--strategy adaptive or frozen; lowest-cost uses "
                                           "no Q-table\n")
        assert not (workdir / "results").exists()

    def test_missing_models_is_refused_before_the_qtable_rule(self, workdir, capsys):
        assert _run(["simulate", "--qtable", "q.json", "--runs", "1"]) == 2
        assert capsys.readouterr().err == ("secflow: usage error: missing required option "
                                           "'models'\n")

    def test_linear_detector_end_to_end(self, workdir):
        self._pipeline(workdir)
        linear = ["--models", "art/models.json", "--set", "detector=linear"]
        assert _run(["simulate", *linear, "--strategy", "adaptive", "--runs", "2",
                     "--out", "trained"]) == 0
        assert (workdir / "trained" / "qtable.json").exists()
        assert _run(["simulate", *linear, "--runs", "3", "--out", "res"]) == 0
        with open(workdir / "res" / "results.csv") as fh:
            assert [row["run"] for row in csv.DictReader(fh)] == ["0", "1", "2"]

    def test_simulate_frozen_without_qtable_is_usage_error(self, workdir, capsys):
        """Refused before the model file, which does not exist, is read."""
        code = _run(["simulate", "--models", "missing.json", "--strategy", "frozen",
                     "--runs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--qtable" in err and "missing.json" not in err
        assert not (workdir / "results").exists()

    def test_simulate_frozen_deploys_the_trained_table(self, workdir):
        self._pipeline(workdir)
        assert _run(["simulate", "--models", "art/models.json", "--strategy", "adaptive",
                     "--runs", "3", "--rate", "0.8", "--out", "trained"]) == 0
        trained = (workdir / "trained" / "qtable.json").read_bytes()
        assert _run(["simulate", "--models", "art/models.json", "--strategy", "frozen",
                     "--qtable", "trained/qtable.json", "--rate", "0.8", "--runs", "3",
                     "--out", "res"]) == 0
        assert (workdir / "trained" / "qtable.json").read_bytes() == trained
        with open(workdir / "res" / "results.csv") as fh:
            assert {row["strategy"] for row in csv.DictReader(fh)} == {"frozen"}

    @staticmethod
    def _train(table, runs):
        """rl.table_to_json of `table` after the adaptive experiment that
        simulate runs at seed 42 and rate 0.8 with art/models.json."""
        detectors_by_key, severity_obj = detection.load_models("art/models.json")
        detectors = {kind: detectors_by_key[f"{kind.value}/random_forest"]
                     for kind in DatasetKind}
        sim.run_experiment(
            sim.generate_workflow_class(sim.WorkflowClass.SMALL, 42), sim.generate_multicloud(42),
            detectors, severity.severity_from_obj(severity_obj), TenantConfig(), runs,
            "adaptive", 0.8, seed=42, qtable=table)
        return rl.table_to_json(table)

    @pytest.mark.parametrize("start", [False, True], ids=["fresh", "from-file"])
    def test_adaptive_writes_the_table_it_trained(self, workdir, start):
        """OUT/qtable.json is the table the run trained: a fresh one, or the
        --qtable one, whose file is left as it is."""
        self._pipeline(workdir)
        table, qtable, before = rl.QTable(), [], None
        if start:
            before = self._train(rl.QTable(), 2)
            (workdir / "start.json").write_text(before)
            table, qtable = rl.table_from_json(before), ["--qtable", "start.json"]
        assert _run(["simulate", "--models", "art/models.json", "--strategy", "adaptive",
                     *qtable, "--runs", "4", "--rate", "0.8", "--seed", "42",
                     "--out", "res"]) == 0
        assert (workdir / "res" / "qtable.json").read_text() == self._train(table, 4)
        if start:
            assert (workdir / "start.json").read_text() == before

    @pytest.mark.parametrize("strategy", ["lowest-cost", "frozen"])
    def test_non_adaptive_strategies_write_no_table(self, workdir, strategy):
        self._pipeline(workdir)
        assert _run(["simulate", "--models", "art/models.json", "--strategy", "adaptive",
                     "--runs", "2", "--out", "trained"]) == 0
        trained = (workdir / "trained" / "qtable.json").read_bytes()
        qtable = ["--qtable", "trained/qtable.json"] if strategy == "frozen" else []
        assert _run(["simulate", "--models", "art/models.json", "--strategy", strategy,
                     *qtable, "--runs", "2", "--out", "res"]) == 0
        assert sorted(p.name for p in (workdir / "res").iterdir()) == ["events.jsonl",
                                                                      "results.csv"]
        assert (workdir / "trained" / "qtable.json").read_bytes() == trained

    def test_adaptive_refuses_to_write_over_its_qtable(self, workdir, capsys):
        """Refused before any file is read, so the input table stays as it is."""
        (workdir / "res").mkdir()
        (workdir / "res" / "qtable.json").write_text("{}")
        assert _run(["simulate", "--models", "missing.json", "--strategy", "adaptive",
                     "--qtable", "res/qtable.json", "--runs", "1", "--out", "res"]) == 2
        assert capsys.readouterr().err == ("secflow: usage error: --qtable res/qtable.json is "
                                           "the table adaptive writes to --out res; give "
                                           "another --out\n")
        assert (workdir / "res" / "qtable.json").read_text() == "{}"

    def test_simulate_without_detector_is_usage_error(self, workdir, capsys):
        self._pipeline(workdir)
        code = _run(
            ["simulate", "--models", "art/models.json", "--runs", "1",
             "--set", "detector=svm"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'ntd/svm'" in err and "art/models.json" in err

    @pytest.mark.parametrize("extra, named", [
        (["--rate", "1.5"], "attack_rate must be in [0, 1], got 1.5"),
        (["--set", "w_price=NaN"], "must be finite and >= 0, got (nan,"),
        (["--strategy", "adaptive", "--qtable", "qtable.json"],
         "epsilon_decay must be in (0,1], got -1"),
    ], ids=["rate", "weight", "qtable-epsilon-decay"])
    def test_simulate_out_of_range_input_fails(self, workdir, capsys, extra, named):
        self._pipeline(workdir)
        (workdir / "qtable.json").write_text(
            json.dumps({"config": {"epsilon_decay": -1}, "entries": []}))
        code = _run(["simulate", "--models", "art/models.json", "--runs", "1", *extra])
        assert code != 0
        assert named in capsys.readouterr().err
        assert not (workdir / "results").exists()

    def test_simulate_without_severity_is_usage_error(self, workdir, capsys):
        self._pipeline(workdir)
        doc = json.loads((workdir / "art" / "models.json").read_text())
        del doc["severity"]
        (workdir / "art" / "models.json").write_text(json.dumps(doc))
        assert _run(["simulate", "--models", "art/models.json", "--runs", "1"]) == 2
        assert capsys.readouterr().err == ("secflow: usage error: model file art/models.json "
                                           "carries no severity model; run train-detect\n")


class TestCompareAndReport:
    def test_compare_windows_per_class_and_strategy(self, workdir):
        """compare writes results.csv alone; report averages its rounds
        `--window` at a time per (class, strategy), in file order."""
        code = _run(
            ["compare", "--runs", "30", "--rate", "0.3",
             "--seed", "42", "--classes", "small", "--out", "res",
             "--set", "train_n=400"]
        )
        assert code == 0
        assert [p.name for p in (workdir / "res").iterdir()] == ["results.csv"]
        assert _run(["report", "--results", "res/results.csv", "--window", "10",
                     "--out", "report.md"]) == 0
        header, rows = report_table((workdir / "report.md").read_text(), "Rolling windows")
        assert header == ["class", "strategy", "window", "price", "time", "value",
                          "mitigation"]
        assert [r[:3] for r in rows] == [["small", strategy, str(i)]
                                         for strategy in ("lowest-cost", "adaptive")
                                         for i in range(3)]

    def test_report_consumes_emitted_csvs(self, workdir):
        code = _run(
            ["compare", "--runs", "20", "--rate", "0.2",
             "--seed", "7", "--classes", "small", "--out", "res",
             "--set", "train_n=400"]
        )
        assert code == 0
        code = _run(
            ["report", "--results", "res/results.csv",
             "--window", "10", "--out", "report.md"]
        )
        assert code == 0
        text = (workdir / "report.md").read_text()
        assert "## Execution summary" in text
        assert "## Rolling windows" in text
        assert "| small | lowest-cost |" in text

    # two groups in file order, adaptive first: prices 1..5 and 10, 20
    RESULTS = ("class,strategy,price,time,value,mitigation,injected,detected,adapted,failed\n"
               + "".join(f"small,adaptive,{p}.0,1.0,0.5,0.25,1,1,1,0\n" for p in range(1, 6))
               + "small,lowest-cost,10.0,2.0,0.5,0.0,0,0,0,0\n"
               + "small,lowest-cost,20.0,2.0,0.5,0.0,0,0,0,0\n")

    def _windows(self, workdir, window):
        (workdir / "r.csv").write_text(self.RESULTS)
        assert _run(["report", "--results", "r.csv", "--window", str(window),
                     "--out", "report.md"]) == 0
        return report_table((workdir / "report.md").read_text(), "Rolling windows")[1]

    def test_window_longer_than_the_rounds_is_the_group_mean(self, workdir):
        assert self._windows(workdir, 10) == [
            ["small", "adaptive", "0", "3.0", "1.0", "0.5", "0.25"],
            ["small", "lowest-cost", "0", "15.0", "2.0", "0.5", "0.0"]]

    def test_uneven_last_window_is_shorter(self, workdir):
        assert [r[:4] for r in self._windows(workdir, 2)] == [
            ["small", "adaptive", "0", "1.5"], ["small", "adaptive", "1", "3.5"],
            ["small", "adaptive", "2", "5.0"], ["small", "lowest-cost", "0", "15.0"]]

    def test_report_without_inputs_is_usage_error(self, workdir):
        assert _run(["report"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["report", "--metrics", "r.csv", "--window", "2"],
         "--window needs --results, the rounds it averages"),
        (["report", "--results", "r.csv", "--window", "0"],
         "option 'window' must be >= 1, got 0"),
    ], ids=["without-results", "zero"])
    def test_bad_window_is_usage_error(self, workdir, capsys, argv, message):
        (workdir / "r.csv").write_text(self.RESULTS)
        assert _run(argv + ["--out", "report.md"]) == 2
        assert capsys.readouterr().err == f"secflow: usage error: {message}\n"
        assert not (workdir / "report.md").exists()

    def test_compare_has_no_window_option(self, workdir):
        assert _run(["compare", "--window", "10", "--out", "res"]) == 2
        assert not (workdir / "res").exists()

    @pytest.mark.parametrize("flag, text, message", [
        ("--results", "strategy,run,price\nadaptive,0,1.0\n",
         "r.csv: no 'class' column in the header"),
        ("--results", "", "r.csv: empty file, expected a CSV header"),
        ("--metrics", "", "r.csv: empty file, expected a CSV header"),
        ("--results", "class,strategy,price,time,value,mitigation,injected,detected,adapted,"
         "failed\nsmall,adaptive,1.0\n", "r.csv line 2: 3 fields, header has 10"),
        ("--results", "class,strategy,price,time,value,mitigation,injected,detected,adapted,"
         "failed\nsmall,adaptive,1.0,2.0,x,0.5,1,1,1,0\n",
         "r.csv line 2, column value: expected a number, got 'x'"),
        ("--results", "class,strategy,price,time,value,mitigation,injected,detected,adapted,"
         "failed\nsmall,adaptive,1.0,2.0,0.1,0.5,1,1.5,1,0\n",
         "r.csv line 2, column detected: expected an integer, got '1.5'"),
    ], ids=["results-without-class", "results-empty", "metrics-empty", "results-short-row",
            "results-bad-number", "results-bad-count"])
    def test_malformed_csv_is_usage_error_naming_the_file(self, workdir, capsys, flag, text,
                                                          message):
        (workdir / "r.csv").write_text(text)
        assert _run(["report", flag, "r.csv", "--out", "report.md"]) == 2
        assert capsys.readouterr().err == f"secflow: usage error: {message}\n"
        assert not (workdir / "report.md").exists()


class TestUsageErrors:
    def test_unknown_flag_exit_2(self, workdir):
        assert _run(["gen-data", "--frobnicate"]) == 2

    def test_unknown_subcommand_exit_2(self, workdir):
        assert _run(["transmogrify"]) == 2

    @pytest.mark.parametrize("command", ["train-severity", "train-rl"])
    def test_folded_commands_are_invalid_choices(self, workdir, capsys, command):
        """train-detect fits the severity model, and simulate's adaptive
        strategy writes the Q-table."""
        assert _run([command, "--out", "out"]) == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_bad_set_syntax_exit_2(self, workdir):
        assert _run(["gen-data", "--set", "novalue"]) == 2

    def test_invalid_config_json_exit_2(self, workdir, capsys):
        (workdir / "bad.json").write_text("{n: 10}")
        assert _run(["gen-data", "--config", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("secflow: usage error: bad.json: $: not valid JSON")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["gen-data", "--set", "n=many"], "option 'n' must be an integer, got 'many'"),
            (["report", "--set", "window=[1]"], "option 'window' must be an integer, got [1]"),
            (["gen-data", "--set", "seed=1e400"], "option 'seed' must be an integer, got inf"),
            (["compare", "--set", "rate=high"], "option 'rate' must be a number, got 'high'"),
            (["gen-data", "--set", "kind=xyz"],
             "option 'kind' must be one of ntd, clf, both, got 'xyz'"),
            (["gen-bench", "--set", "wf_class=huge"],
             "option 'wf_class' must be one of small, medium, large, got 'huge'"),
            (["compare", "--set", "classes=small,huge"],
             "option 'classes' must be one of small, medium, large, got 'huge'"),
            (["compare", "--set", "classes=5"],
             "option 'classes' must be a list or a comma-separated string of small, medium, "
             "large, got 5"),
            (["compare", "--classes", "small,medium,small"],
             "option 'classes' lists 'small' more than once"),
            (["compare", "--set", 'classes=["large", "large"]'],
             "option 'classes' lists 'large' more than once"),
            (["simulate", "--set", "strategy=greedy"],
             "option 'strategy' must be one of lowest-cost, adaptive, frozen, got 'greedy'"),
            (["gen-data", "--set", "intensity_mode=xyz"],
             "option 'intensity_mode' must be one of uniform, banded, got 'xyz'"),
            (["gen-data", "--set", "n=40.9"], "option 'n' must be an integer, got 40.9"),
            (["gen-data", "--set", "n=true"], "option 'n' must be an integer, got True"),
            (["compare", "--set", "rate=true"], "option 'rate' must be a number, got True"),
        ],
        ids=["int-word", "int-list", "int-overflow", "float-word", "kind", "wf-class",
             "classes", "classes-int", "classes-repeated",
             "classes-repeated-list", "strategy", "intensity-mode", "int-fraction",
             "int-bool", "float-bool"],
    )
    def test_bad_option_value_names_the_key(self, workdir, capsys, argv, line):
        assert _run(argv + ["--out", "out"]) == 2
        assert capsys.readouterr().err == f"secflow: usage error: {line}\n"
        assert not (workdir / "out").exists()

    def test_config_values_cast_as_flags(self, workdir):
        # a string integer and a float seed are cast with int(), as they always were
        (workdir / "cfg.json").write_text(json.dumps({"n": "400", "seed": 42.0, "out": "a"}))
        assert _run(["gen-data", "--config", "cfg.json"]) == 0
        _gen_data(workdir)
        for name in ("ntd.csv", "clf.csv"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "data" / name).read_bytes()


def _resolve(argv):
    """The typed options `argv` resolves to, without running the subcommand."""
    args = cli.build_parser().parse_args(argv)
    return cli._options(args.command, cli._load_config(args))


_FLAGGED = [(command, option) for command, (_, _, options) in cli.COMMANDS.items()
            for option in (cli.SEED, *options) if option[3]]


class TestOneTable:
    """Each option is declared once: its flag and its config key resolve
    alike, and a key no subcommand declares is refused."""

    @pytest.mark.parametrize("command, option", _FLAGGED,
                             ids=[f"{command}-{option[0]}" for command, option in _FLAGGED])
    def test_flag_and_set_resolve_alike(self, workdir, command, option):
        name, cast, default, _ = option
        if isinstance(cast, tuple):
            value = next(choice for choice in cast if choice != default)
        else:
            value = {int: "7", float: "0.5", cli._classes: "small,large"}.get(cast, "p.json")
        # keys of other subcommands are allowed: --models is required by simulate,
        # and simulate's --qtable needs the adaptive strategy
        base = [command, "--set", "models=m.json", "--set", "strategy=adaptive"]
        by_flag = _resolve([*base, "--" + name.replace("_", "-"), value])
        by_set = _resolve([*base, "--set", f"{name}={value}"])
        assert by_flag == by_set
        assert type(by_flag[name]) is type(by_set[name])
        assert by_flag[name] != default

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["simulate", "--workflow", "F", "--wf-class", "huge"],
             "secflow simulate: error: argument --wf-class: invalid choice: 'huge'"),
            (["gen-data", "--config", "cfg.json"],
             "secflow: usage error: option 'out' must be a string, got 5"),
            (["gen-data", "--set", "mix=5"],
             "secflow: usage error: option 'mix' must be a JSON object, got 5"),
        ],
        ids=["simulate-wf-class", "out", "mix"],
    )
    def test_mistyped_value_is_usage_error(self, workdir, capsys, argv, line):
        (workdir / "cfg.json").write_text(json.dumps({"out": 5}))
        assert _run(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(line)

    @pytest.mark.parametrize("layer", [["--set", "w_pirce=0.9"], ["--config", "cfg.json"]],
                             ids=["set", "config"])
    def test_unknown_key_is_usage_error(self, workdir, capsys, layer):
        (workdir / "cfg.json").write_text(json.dumps({"runs": 1, "w_pirce": 0.9}))
        assert _run(["simulate", *layer]) == 2
        assert capsys.readouterr().err == "secflow: usage error: unknown option 'w_pirce'\n"

    def test_folded_commands_options_are_unknown(self, workdir, capsys):
        """simulate's `runs` counts the rounds that train the adaptive table."""
        assert _run(["simulate", "--set", "episodes=3"]) == 2
        assert capsys.readouterr().err == "secflow: usage error: unknown option 'episodes'\n"

    def test_one_config_file_serves_two_subcommands(self, workdir):
        (workdir / "cfg.json").write_text(
            json.dumps({"n": 300, "data": "d", "train_fraction": 0.6}))
        assert _resolve(["gen-data", "--config", "cfg.json"])["n"] == 300
        assert _resolve(["train-detect", "--config", "cfg.json"])["train_fraction"] == 0.6


@pytest.fixture(scope="module")
def models_file(tmp_path_factory):
    """A small detector + severity model file, built once for the
    input-file error tests."""
    root = tmp_path_factory.mktemp("models")
    data, art = str(root / "data"), str(root / "art")
    assert _run(["gen-data", "--n", "300", "--seed", "42", "--out", data]) == 0
    assert _run(["train-detect", "--data", data, "--out", art]) == 0
    return root / "art" / "models.json"


def _edit(*keys, to):
    """A models-file case: the fitted document with the value at `keys`
    replaced by to(old value)."""
    def edit(doc):
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = to(parent[keys[-1]])
    return edit


def _rename_dos_entry(doc):
    doc["severity"]["ntd-dos"] = doc["severity"].pop("ntd/dos")


def _levels_against_intensity(doc):
    doc["severity"]["ntd/dos"].update(cluster_mean_intensity=[0.9, 0.1, 0.5],
                                      cluster_level=["high", "medium", "low"])


def _swap_forests(doc):
    detectors = doc["detectors"]
    detectors["ntd/random_forest"], detectors["clf/random_forest"] = (
        detectors["clf/random_forest"], detectors["ntd/random_forest"])


_DOS = ("severity", "ntd/dos")
_NTD_RF = ("detectors", "ntd/random_forest")

# the flags that hand `simulate` each input file; --models is always given
_FLAGS = {"wf.json": ["--workflow"], "cloud.json": ["--cloud"], "m.json": ["--models"],
          "q.json": ["--strategy", "adaptive", "--qtable"], "cfg.json": ["--config"]}


class TestInputFileErrors:
    """A malformed input file fails with one line naming the file and the
    JSON path: `secflow: error: <file>: $<path>: <message>`, or `usage error`
    with exit code 2 for --config."""

    def _fails_with(self, workdir, capsys, models_file, name, content, line):
        if callable(content):
            doc = json.loads(models_file.read_text())
            content(doc)
            content = json.dumps(doc)
        (workdir / name).write_text(content)
        argv = ["simulate", "--runs", "1", "--models", str(models_file), *_FLAGS[name], name]
        code, kind = (2, "usage error") if name == "cfg.json" else (1, "error")
        assert _run(argv) == code
        assert capsys.readouterr().err == f"secflow: {kind}: {line}\n"

    @pytest.mark.parametrize(
        "name, content, line",
        [
            ("wf.json", '{"tasks": [{"id": "t0"}]}', "wf.json: $.tasks[0]: missing field 'c'"),
            ("wf.json", '{"tasks": 5}', "wf.json: $.tasks: must be an array"),
            ("cloud.json", '{"providers": [{"id": "p0", "services": [{"id": "s0"}]}]}',
             "cloud.json: $.providers[0].services[0]: missing field 'price'"),
            ("cloud.json", "{", "cloud.json: $: not valid JSON: Expecting property name "
             "enclosed in double quotes: line 1 column 2 (char 1)"),
            ("m.json", '{"version": 2}', "m.json: $: missing field 'detectors'"),
            ("m.json", '{"version": 1, "detectors": {}}',
             "m.json: $.version: unsupported model file version 1; refit with `secflow "
             "train-detect`, which writes version 2"),
            ("q.json", '{"config": {"alpha": 2}, "entries": []}',
             "q.json: $.config: alpha must be in (0,1]"),
            ("q.json", '{"config": {"alpha": true}, "entries": []}',
             "q.json: $.config.alpha: must be a number, got true"),
            ("q.json", '{"config": {}, "entries": [{"state": "s", "action": "skip", '
             '"q": true, "n": 1}]}', "q.json: $.entries[0].q: must be a finite number, got True"),
            ("q.json", '{"config": {}, "entries": [{"state": "s", "action": "skip", '
             '"q": 0.5, "n": 1.5}]}',
             "q.json: $.entries[0].n: must be a non-negative integer, got 1.5"),
            ("q.json", '{"config": {}, "entries": [{"state": "s", "action": ["skip"], '
             '"q": 0.5, "n": 1}]}', "q.json: $.entries[0].action: must be a string, got ['skip']"),
            ("q.json", '{"config": {}, "entries": [{"state": "s", "action": "skip", '
             '"q": 0.5, "n": 1}, {"state": "s", "action": "skip", "q": 0.25, "n": 2}]}',
             "q.json: $.entries[1]: repeats the (state, action) pair of $.entries[0]"),
            ("cfg.json", "[1]", "cfg.json: $: must be an object"),
            ("m.json", _edit(*_NTD_RF, "kind", to=lambda _: "svm"),
             'm.json: $.detectors["ntd/random_forest"].kind: must be \'random_forest\' or '
             "'linear', got 'svm'"),
            ("m.json", _edit(*_NTD_RF, "classes", to=lambda _: 5),
             'm.json: $.detectors["ntd/random_forest"].classes: must be an array'),
            ("m.json", _edit("detectors", "ntd/linear", "weights", to=lambda w: w[:-1]),
             'm.json: $.detectors["ntd/linear"].weights: must be 9 × 5 finite numbers'),
            ("m.json", _rename_dos_entry,
             'm.json: $.severity["ntd-dos"]: key must be \'<dataset kind>/<attack type>\''),
            ("m.json", _edit(*_DOS, "feature_indices", to=lambda ix: [99] + ix[1:]),
             'm.json: $.severity["ntd/dos"].feature_indices: must be a non-empty array of '
             "feature indices in [0, 8)"),
            ("m.json", _edit(*_DOS, "scale_mean", to=lambda v: v[:-1]),
             'm.json: $.severity["ntd/dos"].scale_mean: must be 5 finite numbers'),
            ("m.json", _edit(*_DOS, "scale_std", to=lambda v: v[:-1]),
             'm.json: $.severity["ntd/dos"].scale_std: must be 5 finite numbers'),
            ("m.json", _edit(*_DOS, "centroids", to=lambda c: [[0.0]] * 3),
             'm.json: $.severity["ntd/dos"].centroids: must be 3 × 5 finite numbers'),
            ("m.json", _edit(*_DOS, "cluster_level", to=lambda v: v[:-1]),
             'm.json: $.severity["ntd/dos"].cluster_level: must be 3 severity levels'),
            ("m.json", _edit(*_DOS, "cluster_mean_intensity", to=lambda v: v[:-1]),
             'm.json: $.severity["ntd/dos"].cluster_mean_intensity: must be 3 finite numbers'),
            ("m.json", _levels_against_intensity,
             'm.json: $.severity["ntd/dos"].cluster_level: must rank cluster_mean_intensity '
             'ascending as low, medium, high: ["high", "low", "medium"], '
             'got ["high", "medium", "low"]'),
            ("m.json", _edit(*_DOS, "scale_std", to=lambda v: [0] * len(v)),
             'm.json: $.severity["ntd/dos"].scale_std[0]: must be > 0, got 0.0'),
            ("m.json", _edit(*_DOS, "scale_std", to=lambda v: v[:1] + [-1.0] + v[2:]),
             'm.json: $.severity["ntd/dos"].scale_std[1]: must be > 0, got -1.0'),
            ("m.json", _swap_forests,
             'm.json: $.detectors["ntd/random_forest"].feature_names: must be the 8 ntd '
             "features, got 3"),
        ],
        ids=["workflow-task-field", "workflow-tasks-array", "cloud-service-field",
             "cloud-not-json", "models-without-detectors", "models-version", "qtable-config-range",
             "qtable-config-boolean", "qtable-q-boolean", "qtable-n-fraction", "qtable-action-list",
             "qtable-repeated-pair", "config-array", "detector-kind", "detector-classes",
             "detector-weights-shape",
             "severity-key", "severity-index-range", "severity-scale-mean-length",
             "severity-scale-std-length", "severity-centroids-shape",
             "severity-cluster-level-length", "severity-intensity-length",
             "severity-cluster-level-order",
             "severity-scale-std-zero", "severity-scale-std-negative", "detectors-swapped"],
    )
    def test_one_line_names_file_and_path(self, workdir, capsys, models_file, name, content,
                                          line):
        self._fails_with(workdir, capsys, models_file, name, content, line)

    def test_qtable_entry_without_q(self, workdir, capsys, models_file):
        doc = {"config": {}, "entries": [{"state": "s", "action": "skip", "n": 1}]}
        self._fails_with(workdir, capsys, models_file, "q.json", json.dumps(doc),
                         "q.json: $.entries[0]: missing field 'q'")

    def test_qtable_array(self, workdir, capsys, models_file):
        self._fails_with(workdir, capsys, models_file, "q.json", "[]",
                         "q.json: $: must be an object")

    def test_qtable_with_bucketed_keys_refused(self, workdir, capsys, models_file):
        doc = {"config": {}, "entries": [], "discretization": {"time": [1.0, 2.0, 3.0]}}
        self._fails_with(workdir, capsys, models_file, "q.json", json.dumps(doc),
                         "q.json: $.discretization: a Q-table with bucketed state keys; "
                         "retrain it with simulate --strategy adaptive")

    def test_models_not_json(self, workdir, capsys, models_file):
        self._fails_with(workdir, capsys, models_file, "m.json", "not json",
                         "m.json: $: not valid JSON: Expecting value: line 1 column 1 (char 0)")

    def test_models_array(self, workdir, capsys, models_file):
        self._fails_with(workdir, capsys, models_file, "m.json", "[]",
                         "m.json: $: must be an object")

    def test_severity_entry_without_centroids(self, workdir, capsys, models_file):
        self._fails_with(workdir, capsys, models_file, "m.json",
                         lambda doc: doc["severity"]["ntd/dos"].pop("centroids"),
                         'm.json: $.severity["ntd/dos"]: missing field \'centroids\'')


class TestGenBench:
    def test_emits_parseable_pair(self, workdir):
        from secflow.model import parse_multicloud, parse_workflow

        assert _run(["gen-bench", "--wf-class", "small", "--seed", "3",
                     "--out", "bench"]) == 0
        wf = parse_workflow((workdir / "bench" / "workflow.json").read_text())
        cloud = parse_multicloud((workdir / "bench" / "cloud.json").read_text())
        assert 3 <= len(wf.tasks) <= 10
        assert len(cloud.providers) == 5
