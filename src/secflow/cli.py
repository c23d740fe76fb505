"""Experiment command line: data generation, detector/severity/policy
training, simulation, strategy comparison, and report emission.

Every subcommand is a pure function of (config, seed) to its output files;
re-running with the same inputs overwrites them byte-identically. Exit codes:
0 success, 1 runtime error, 2 usage error. The SECFLOW_SEED environment
variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datagen, detection, rl, severity, sim
from .datagen import DatasetKind
from .model import (
    TenantConfig,
    load_document,
    parse_file,
    parse_multicloud,
    parse_workflow,
    serialize_multicloud,
    serialize_workflow,
)

DEFAULT_MIX = {"normal": 0.5, "dos": 0.125, "probe": 0.125, "u2r": 0.125, "r2l": 0.125}
KIND_CHOICES = tuple(kind.value for kind in DatasetKind) + ("both",)
WF_CLASSES = tuple(wf_class.value for wf_class in sim.WorkflowClass)


class UsageError(ValueError):
    pass


def _parse_set(entries, command):
    """The --set KEY=VALUE entries as a dict, each value JSON-decoded unless it
    is a path or a name (an option of `command` cast by `str`) or not JSON."""
    text = {name for name, cast, *_ in COMMANDS[command][2] if cast is str}
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise UsageError(f"--set expects key=value, got {entry!r}")
        key, raw = entry.split("=", 1)
        try:
            out[key] = raw if key in text else json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _load_config(args):
    """Layered config: JSON file < --set overrides < explicit flags; the
    SECFLOW_SEED env var beats the file for the seed."""
    cfg = {}
    if args.config:
        cfg.update(parse_file(args.config, lambda text: load_document(text, UsageError)))
    env_seed = os.environ.get("SECFLOW_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"SECFLOW_SEED must be an integer, got {env_seed!r}")
    cfg.update(_parse_set(args.set, args.command))
    for key, value in vars(args).items():
        if key in ("config", "set", "command") or value is None:
            continue
        cfg[key] = value
    return cfg


def _options(command, cfg):
    """Every option of `command`: its value in the layered config `cfg`, else
    its default, through `_cast`. A key of `cfg` that no subcommand has as an
    option is a usage error."""
    unknown = sorted(set(cfg) - KNOWN_OPTIONS)
    if unknown:
        raise UsageError(f"unknown option {unknown[0]!r}")
    opts = {}
    for name, cast, default, _ in (SEED, *COMMANDS[command][2]):
        value = cfg.get(name, default)
        if value is REQUIRED:
            raise UsageError(f"missing required option {name!r}")
        if value is not None or default is not None:
            value = _cast(name, value, cast)
        opts[name] = value
    return opts


def _cast(key, value, cast):
    """`value` checked by `cast`: int and float convert it (int refuses a
    fraction, both refuse a boolean), str and dict check its type, a tuple
    lists the accepted strings, and any other callable is called as
    `cast(key, value)`. A value it refuses is a usage error naming the option
    `key`."""
    if isinstance(cast, tuple):
        if value in cast:
            return value
        what = "one of " + ", ".join(cast)
    elif cast in (str, dict):
        if isinstance(value, cast):
            return value
        what = "a string" if cast is str else "a JSON object"
    elif cast in (int, float):
        what = "an integer" if cast is int else "a number"
        whole = cast is float or not isinstance(value, float) or value.is_integer()
        if whole and not isinstance(value, bool):
            try:
                return cast(value)
            except (TypeError, ValueError, OverflowError):
                pass
    else:
        return cast(key, value)
    raise UsageError(f"option {key!r} must be {what}, got {value!r}")


def _classes(key, value):
    if isinstance(value, str):
        value = value.split(",")
    elif not isinstance(value, list):
        raise UsageError(f"option {key!r} must be a list or a comma-separated string of "
                         f"{', '.join(WF_CLASSES)}, got {value!r}")
    return [_cast(key, name, WF_CLASSES) for name in value]


def _write(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _kinds(opts):
    if opts["kind"] == "both":
        return [DatasetKind.NTD, DatasetKind.CLF]
    return [DatasetKind(opts["kind"])]


def _tenant_config(opts):
    return TenantConfig(**{name: opts[name] for name, *_ in WEIGHTS},
                        adapt_trigger_threshold=opts["threshold"])


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(opts):
    out = Path(opts["out"])
    for kind in _kinds(opts):
        ds = datagen.generate(kind, opts["n"], opts["mix"], opts["seed"],
                              intensity_mode=opts["intensity_mode"])
        _write(out / f"{kind.value}.csv", ds.to_csv())
        _write(out / f"{kind.value}.meta.csv", ds.metadata_csv())
    return 0


def _load_dataset(data_dir, kind):
    """The dataset of `kind` in `data_dir` with its `.meta.csv` intensities;
    a malformed row of either file raises DataConfigError prefixed with its path."""
    stem = Path(data_dir) / kind.value
    ds = parse_file(f"{stem}.csv", lambda text: datagen.dataset_from_csv(kind, text))
    return parse_file(f"{stem}.meta.csv", lambda text: datagen.with_metadata(ds, text))


def _metrics_csv(rows):
    return datagen.csv_text(["dataset", "model", "class", "accuracy", "f1", "far"], rows)


def cmd_train_detect(opts):
    out, seed = Path(opts["out"]), opts["seed"]
    out.mkdir(parents=True, exist_ok=True)
    models, rows = {}, []
    for kind in _kinds(opts):
        ds = _load_dataset(opts["data"], kind)
        train, test = datagen.split(ds, opts["train_fraction"], seed)
        fitted = {
            "random_forest": detection.train_random_forest(train, seed=seed),
            "linear": detection.train_linear(train),
        }
        for name, model in fitted.items():
            models[f"{kind.value}/{name}"] = model
            metrics = detection.evaluate(model, test)
            for cls in model.classes:
                rows.append(
                    [kind.value, name, cls, repr(metrics.accuracy),
                     repr(metrics.f1[cls]), repr(metrics.far.get(cls, 0.0))]
                )
    detection.save_models(out / "models.json", models)
    _write(out / "metrics.csv", _metrics_csv(rows))
    return 0


def cmd_train_severity(opts):
    out = Path(opts["out"])
    datasets = {kind: _load_dataset(opts["data"], kind) for kind in _kinds(opts)}
    model = severity.fit_severity(datasets, opts["seed"])
    out.mkdir(parents=True, exist_ok=True)
    models_path = out / "models.json"
    detectors = {}
    if models_path.exists():
        detectors, _ = detection.load_models(models_path)
    detection.save_models(models_path, detectors, severity.severity_to_obj(model))
    return 0


def _load_runtime(opts):
    """Workflow, cloud, detectors, severity model from files or generators."""
    seed = opts["seed"]
    if opts["workflow"]:
        workflow = parse_file(opts["workflow"], parse_workflow)
    else:
        wf_class = sim.WorkflowClass(opts["wf_class"] or "small")
        workflow = sim.generate_workflow_class(wf_class, seed)
    if opts["cloud"]:
        cloud = parse_file(opts["cloud"], parse_multicloud)
    else:
        cloud = sim.generate_multicloud(seed)
    models_path = opts["models"]
    detectors_by_key, severity_obj = detection.load_models(models_path)
    detectors = {}
    for kind in (DatasetKind.NTD, DatasetKind.CLF):
        key = f"{kind.value}/{opts['detector']}"
        if key not in detectors_by_key:
            raise UsageError(f"model file {models_path} carries no {key!r} detector; "
                             "run train-detect")
        detectors[kind] = detectors_by_key[key]
    if severity_obj is None:
        raise UsageError(f"model file {models_path} carries no severity model; "
                         "run train-severity")
    return workflow, cloud, detectors, severity.severity_from_obj(severity_obj)


def cmd_train_rl(opts):
    workflow, cloud, detectors, sev = _load_runtime(opts)
    table = rl.QTable()
    sim.run_experiment(
        workflow, cloud, detectors, sev, _tenant_config(opts), opts["episodes"],
        "adaptive", opts["rate"], seed=opts["seed"], qtable=table,
    )
    _write(opts["out"], rl.table_to_json(table))
    return 0


def _events_jsonl(results):
    lines = []
    for idx, r in enumerate(results):
        lines.append(json.dumps({"run": idx, "events": r.events}, sort_keys=True))
    return "\n".join(lines) + "\n"


def cmd_simulate(opts):
    out, strategy, path = Path(opts["out"]), opts["strategy"], opts["qtable"]
    if strategy == "lowest-cost" and path is not None:
        raise UsageError(f"--qtable {path} needs --strategy adaptive or frozen; "
                         "lowest-cost uses no Q-table")
    if strategy == "frozen" and path is None:
        raise UsageError("--strategy frozen needs --qtable, the trained table it deploys")
    workflow, cloud, detectors, sev = _load_runtime(opts)
    qtable = parse_file(path, rl.table_from_json) if path else None
    result = sim.run_experiment(
        workflow, cloud, detectors, sev, _tenant_config(opts), opts["runs"], strategy,
        opts["rate"], seed=opts["seed"], qtable=qtable,
    )
    _write(out / "results.csv", result.aggregate_csv(
        strategy, opts["wf_class"] or ("custom" if opts["workflow"] else "small")))
    _write(out / "events.jsonl", _events_jsonl(result.runs))
    return 0


def run_compare(cfg):
    """LowestCost-vs-Adaptive sweep over the workflow classes, from the
    compare options of `cfg`, which may be a raw, partial config; returns
    (results_csv_text, per-(class,strategy) ExperimentResult)."""
    opts = _options("compare", cfg)
    seed, runs, rate = opts["seed"], opts["runs"], opts["rate"]
    tenant = _tenant_config(opts)

    # self-contained model fitting from generated telemetry
    datasets = {
        kind: datagen.generate(kind, opts["train_n"], DEFAULT_MIX, seed + i)
        for i, kind in enumerate((DatasetKind.NTD, DatasetKind.CLF))
    }
    detectors = {}
    for kind, ds in datasets.items():
        train, _ = datagen.split(ds, 0.8, seed)
        detectors[kind] = detection.train_random_forest(train, seed=seed)
    sev = severity.fit_severity(datasets, seed)

    result_rows = []
    experiments = {}
    for ci, name in enumerate(opts["classes"]):
        wf_class = sim.WorkflowClass(name)
        workflow = sim.generate_workflow_class(wf_class, seed + 100 + ci)
        cloud = sim.generate_multicloud(seed + 200 + ci)
        for strategy in ("lowest-cost", "adaptive"):
            result = sim.run_experiment(
                workflow, cloud, detectors, sev, tenant, runs, strategy, rate,
                seed=seed + 300 + ci,
            )
            experiments[(name, strategy)] = result
            result_rows += result.rows(strategy, name)
    return datagen.csv_text(sim.RESULTS_HEADER, result_rows), experiments


def cmd_compare(opts):
    out = Path(opts["out"])
    results_csv, _ = run_compare(opts)
    _write(out / "results.csv", results_csv)
    return 0


def _read_csv(path, columns=()):
    """The header and rows of the CSV at `path`. An empty file, a header
    without one of `columns` and a row whose field count is not the header's
    are usage errors naming the file."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise UsageError(f"{path}: empty file, expected a CSV header")
    header, body = rows[0], rows[1:]
    for column in columns:
        if column not in header:
            raise UsageError(f"{path}: no {column!r} column in the header")
    for line, r in enumerate(body, start=2):
        if len(r) != len(header):
            raise UsageError(f"{path} line {line}: {len(r)} fields, header has {len(header)}")
    return header, body


def _cell(path, line, column, text, cast):
    """`cast(text)` of one results cell; a cell it refuses is a usage error."""
    try:
        return cast(text)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise UsageError(f"{path} line {line}, column {column}: "
                         f"expected {what}, got {text!r}") from None


def _md_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for r in rows:
        lines.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(lines)


def cmd_report(opts):
    """Markdown summary of previously emitted CSVs, with rolling means of
    results.csv's float columns over each `window` consecutive rounds."""
    floats, counts, window = sim.RESULTS_FLOATS, sim.RESULTS_COUNTS, opts["window"]
    if window is not None and not opts["results"]:
        raise UsageError("--window needs --results, the rounds it averages")
    if window is not None and window < 1:
        raise UsageError(f"option 'window' must be >= 1, got {window}")
    sections = []
    if opts["metrics"]:
        header, rows = _read_csv(opts["metrics"])
        sections.append("## Detection metrics\n\n" + _md_table(header, rows))
    if opts["results"]:
        path = opts["results"]
        header, rows = _read_csv(path, ("class", "strategy", *floats, *counts))
        idx = {name: header.index(name) for name in header}
        groups = {}
        for line, r in enumerate(rows, start=2):
            values = {c: _cell(path, line, c, r[idx[c]], float) for c in floats}
            values.update({c: _cell(path, line, c, r[idx[c]], int) for c in counts})
            groups.setdefault((r[idx["class"]], r[idx["strategy"]]), []).append(values)
        summary = []
        for (cls, strat), grp in sorted(groups.items()):
            means = [f"{np.mean([v[c] for v in grp]):.4f}" for c in floats]
            totals = [str(int(np.sum([v[c] for v in grp]))) for c in counts]
            summary.append([cls, strat, str(len(grp))] + means + totals)
        sections.append(
            "## Execution summary\n\n"
            + _md_table(["class", "strategy", "runs", *(f"mean {c}" for c in floats), *counts],
                        summary)
        )
        if window is not None:
            # groups in file order, each averaged `window` rounds at a time
            rolling = [[cls, strat, widx,
                        *(repr(float(np.mean([v[c] for v in grp[start:start + window]])))
                          for c in floats)]
                       for (cls, strat), grp in groups.items()
                       for widx, start in enumerate(range(0, len(grp), window))]
            sections.append("## Rolling windows\n\n" + _md_table(
                ["class", "strategy", "window", *floats], rolling))
    if not sections:
        raise UsageError("report needs at least one of --metrics/--results")
    _write(opts["out"], "# Experiment report\n\n" + "\n\n".join(sections) + "\n")
    return 0


def cmd_gen_bench(opts):
    """Emit a generated workflow/multicloud pair as JSON for reuse."""
    seed, out = opts["seed"], Path(opts["out"])
    wf_class = sim.WorkflowClass(opts["wf_class"])
    _write(out / "workflow.json",
           serialize_workflow(sim.generate_workflow_class(wf_class, seed)))
    _write(out / "cloud.json", serialize_multicloud(sim.generate_multicloud(seed)))
    return 0


# ---------------------------------------------------------------------------
# Options and argument parsing
#
# One table declares every option of every subcommand once, as
# (name, cast, default, flag): its config key, how `_cast` checks it, its
# default (None: absent; REQUIRED: a usage error when absent) and whether it
# also has a --name flag.

REQUIRED = object()
SEED = ("seed", int, 0, True)
KIND = ("kind", KIND_CHOICES, "both", True)
RATE = ("rate", float, 0.3, True)
RUNTIME = (("workflow", str, None, True), ("cloud", str, None, True),
           ("models", str, REQUIRED, True))
WEIGHTS = tuple((f"w_{name}", float, 0.25, False)
                for name in ("price", "time", "security", "value"))
TENANT = (*WEIGHTS, ("threshold", float, 0.1, False))
POLICY = (("detector", str, "random_forest", False), *TENANT)

COMMANDS = {
    "gen-data": ("generate labeled telemetry CSVs", cmd_gen_data, (
        KIND, ("n", int, 2000, True), ("intensity_mode", datagen.INTENSITY_MODES, "uniform", True),
        ("out", str, "data", True), ("mix", dict, DEFAULT_MIX, False))),
    "train-detect": ("fit detectors and emit metrics", cmd_train_detect, (
        KIND, ("data", str, "data", True), ("train_fraction", float, 0.7, True),
        ("out", str, "artifacts", True))),
    "train-severity": ("fit the severity model", cmd_train_severity, (
        KIND, ("data", str, "data", True), ("out", str, "artifacts", True))),
    "train-rl": ("train the adaptive action policy", cmd_train_rl, (
        *RUNTIME, ("wf_class", WF_CLASSES, "small", True), ("episodes", int, 300, True), RATE,
        ("out", str, "artifacts/qtable.json", True), *POLICY)),
    "simulate": ("run one strategy over a workflow", cmd_simulate, (
        ("strategy", tuple(sim.POLICIES), "lowest-cost", True), ("qtable", str, None, True),
        *RUNTIME, ("wf_class", WF_CLASSES, None, True), ("runs", int, 100, True), RATE,
        ("out", str, "results", True), *POLICY)),
    "compare": ("LowestCost vs Adaptive sweep", cmd_compare, (
        ("runs", int, 1000, True), RATE,
        ("classes", _classes, ["small", "medium", "large"], True), ("out", str, "results", True),
        ("train_n", int, 1500, False), *TENANT)),
    "report": ("markdown summary from emitted CSVs", cmd_report, (
        ("metrics", str, None, True), ("results", str, None, True), ("window", int, None, True),
        ("out", str, "report.md", True))),
    "gen-bench": ("emit a generated workflow/cloud pair", cmd_gen_bench, (
        ("wf_class", WF_CLASSES, "small", True), ("out", str, "bench", True))),
}
KNOWN_OPTIONS = {name for _, _, options in COMMANDS.values() for name, *_ in (SEED, *options)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secflow",
        description="security-aware workflow simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (a JSON value; a path or name as written)")
        for name, cast, _, flag in (SEED, *options):
            if not flag:
                continue
            check = ({"type": cast} if cast in (int, float)
                     else {"choices": cast} if isinstance(cast, tuple) else {})
            p.add_argument("--" + name.replace("_", "-"), **check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][1](_options(args.command, _load_config(args)))
    except UsageError as exc:
        print(f"secflow: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"secflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
