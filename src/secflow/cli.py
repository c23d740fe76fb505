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
import io
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


def _parse_set(entries):
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise UsageError(f"--set expects key=value, got {entry!r}")
        key, raw = entry.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _load_config(args):
    """Layered config: JSON file < --set overrides < explicit flags; the
    SECFLOW_SEED env var beats the file for the seed."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(parse_file(args.config, lambda text: load_document(text, UsageError)))
    env_seed = os.environ.get("SECFLOW_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"SECFLOW_SEED must be an integer, got {env_seed!r}")
    cfg.update(_parse_set(getattr(args, "set", None)))
    for key, value in vars(args).items():
        if key in ("config", "set", "func", "command") or value is None:
            continue
        cfg[key] = value
    return cfg


def _get(cfg, key, default=None, cast=None, required=False):
    """Option `key` of `cfg`, else `default`, through `_cast` when `cast` is
    given."""
    if key in cfg:
        value = cfg[key]
    elif required:
        raise UsageError(f"missing required option {key!r}")
    else:
        value = default
    return value if cast is None else _cast(key, value, cast)


def _cast(key, value, cast):
    """`value` as `cast` (int or float), or checked against `cast`, a tuple
    of the accepted strings; a value it refuses is a usage error naming the
    option `key`."""
    if isinstance(cast, tuple):
        if value in cast:
            return value
        what = "one of " + ", ".join(cast)
    else:
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            what = "an integer" if cast is int else "a number"
    raise UsageError(f"option {key!r} must be {what}, got {value!r}")


def _write(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _kinds(cfg):
    raw = _get(cfg, "kind", "both", KIND_CHOICES)
    if raw == "both":
        return [DatasetKind.NTD, DatasetKind.CLF]
    return [DatasetKind(raw)]


def _tenant_config(cfg):
    return TenantConfig(
        w_price=_get(cfg, "w_price", 0.25, float),
        w_time=_get(cfg, "w_time", 0.25, float),
        w_security=_get(cfg, "w_security", 0.25, float),
        w_value=_get(cfg, "w_value", 0.25, float),
        adapt_trigger_threshold=_get(cfg, "threshold", 0.1, float),
    )


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(cfg):
    out = Path(_get(cfg, "out", "data"))
    n = _get(cfg, "n", 2000, int)
    seed = _get(cfg, "seed", 0, int)
    mode = _get(cfg, "intensity_mode", "uniform", datagen.INTENSITY_MODES)
    mix = _get(cfg, "mix", DEFAULT_MIX)
    for kind in _kinds(cfg):
        ds = datagen.generate(kind, n, mix, seed, intensity_mode=mode)
        _write(out / f"{kind.value}.csv", ds.to_csv())
        _write(out / f"{kind.value}.meta.csv", ds.metadata_csv())
    return 0


def _load_dataset(data_dir, kind):
    data_path = Path(data_dir) / f"{kind.value}.csv"
    meta_path = Path(data_dir) / f"{kind.value}.meta.csv"
    meta_text = meta_path.read_text() if meta_path.exists() else None
    return datagen.dataset_from_csv(kind, data_path.read_text(), meta_text)


def _metrics_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dataset", "model", "class", "accuracy", "f1", "far"])
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def cmd_train_detect(cfg):
    data_dir = _get(cfg, "data", "data")
    out = Path(_get(cfg, "out", "artifacts"))
    seed = _get(cfg, "seed", 0, int)
    frac = _get(cfg, "train_fraction", 0.7, float)
    out.mkdir(parents=True, exist_ok=True)
    models, rows = {}, []
    for kind in _kinds(cfg):
        ds = _load_dataset(data_dir, kind)
        train, test = datagen.split(ds, frac, seed)
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


def cmd_train_severity(cfg):
    data_dir = _get(cfg, "data", "data")
    out = Path(_get(cfg, "out", "artifacts"))
    seed = _get(cfg, "seed", 0, int)
    datasets = {kind: _load_dataset(data_dir, kind) for kind in _kinds(cfg)}
    model = severity.fit_severity(datasets, seed)
    out.mkdir(parents=True, exist_ok=True)
    models_path = out / "models.json"
    detectors = {}
    if models_path.exists():
        detectors, _ = detection.load_models(models_path)
    detection.save_models(models_path, detectors, severity.severity_to_obj(model))
    return 0


def _load_runtime(cfg):
    """Workflow, cloud, detectors, severity model from files or generators."""
    seed = _get(cfg, "seed", 0, int)
    wf_path = _get(cfg, "workflow")
    if wf_path:
        workflow = parse_file(wf_path, parse_workflow)
    else:
        wf_class = sim.WorkflowClass(_get(cfg, "wf_class", "small", WF_CLASSES))
        workflow = sim.generate_workflow_class(wf_class, seed)
    cloud_path = _get(cfg, "cloud")
    if cloud_path:
        cloud = parse_file(cloud_path, parse_multicloud)
    else:
        cloud = sim.generate_multicloud(seed)
    models_path = _get(cfg, "models", required=True)
    detectors_by_key, severity_obj = detection.load_models(models_path)
    model_kind = _get(cfg, "detector", "random_forest")
    detectors = {}
    for kind in (DatasetKind.NTD, DatasetKind.CLF):
        key = f"{kind.value}/{model_kind}"
        if key not in detectors_by_key:
            raise UsageError(f"model file {models_path} carries no {key!r} detector; "
                             "run train-detect")
        detectors[kind] = detectors_by_key[key]
    if severity_obj is None:
        raise UsageError(f"model file {models_path} carries no severity model; "
                         "run train-severity")
    return workflow, cloud, detectors, severity.severity_from_obj(severity_obj)


def cmd_train_rl(cfg):
    workflow, cloud, detectors, sev = _load_runtime(cfg)
    seed = _get(cfg, "seed", 0, int)
    episodes = _get(cfg, "episodes", 300, int)
    rate = _get(cfg, "rate", 0.3, float)
    table = rl.QTable(config=rl.RLConfig())
    sim.run_experiment(
        workflow, cloud, detectors, sev, _tenant_config(cfg), episodes,
        "adaptive", rate, seed=seed, qtable=table,
    )
    _write(_get(cfg, "out", "artifacts/qtable.json"), rl.table_to_json(table))
    return 0


def _events_jsonl(results):
    lines = []
    for idx, r in enumerate(results):
        lines.append(json.dumps({"run": idx, "events": r.events}, sort_keys=True))
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg):
    strategy = _get(cfg, "strategy", "lowest-cost", sim.STRATEGIES)
    qtable_path = _get(cfg, "qtable")
    if qtable_path and strategy == "lowest-cost":
        raise UsageError(f"--qtable {qtable_path} needs --strategy adaptive; "
                         "lowest-cost uses no Q-table")
    workflow, cloud, detectors, sev = _load_runtime(cfg)
    out = Path(_get(cfg, "out", "results"))
    seed = _get(cfg, "seed", 0, int)
    runs = _get(cfg, "runs", 100, int)
    rate = _get(cfg, "rate", 0.3, float)
    qtable = None
    if qtable_path:
        qtable = parse_file(qtable_path, rl.table_from_json)
    result = sim.run_experiment(
        workflow, cloud, detectors, sev, _tenant_config(cfg), runs, strategy,
        rate, seed=seed, qtable=qtable,
    )
    wf_class = _get(cfg, "wf_class", "custom")
    _write(out / "results.csv", result.aggregate_csv(strategy, wf_class))
    _write(out / "events.jsonl", _events_jsonl(result.runs))
    return 0


def _windows_csv(window_rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["class", "strategy", "window", "price", "time", "value", "mitigation"])
    for r in window_rows:
        w.writerow(r)
    return buf.getvalue()


def run_compare(cfg):
    """LowestCost-vs-Adaptive sweep over the workflow classes; returns
    (results_csv_text, windows_csv_text, per-(class,strategy) ExperimentResult)."""
    seed = _get(cfg, "seed", 0, int)
    runs = _get(cfg, "runs", 1000, int)
    rate = _get(cfg, "rate", 0.3, float)
    window = _get(cfg, "window", 100, int)
    n_data = _get(cfg, "train_n", 1500, int)
    class_names = _get(cfg, "classes", ["small", "medium", "large"])
    if isinstance(class_names, str):
        class_names = class_names.split(",")
    class_names = [_cast("classes", name, WF_CLASSES) for name in class_names]
    tenant = _tenant_config(cfg)

    # self-contained model fitting from generated telemetry
    datasets = {
        kind: datagen.generate(kind, n_data, DEFAULT_MIX, seed + i)
        for i, kind in enumerate((DatasetKind.NTD, DatasetKind.CLF))
    }
    detectors = {}
    for kind, ds in datasets.items():
        train, _ = datagen.split(ds, 0.8, seed)
        detectors[kind] = detection.train_random_forest(train, seed=seed)
    sev = severity.fit_severity(datasets, seed)

    results_buf = io.StringIO()
    header_done = False
    window_rows = []
    experiments = {}
    for ci, name in enumerate(class_names):
        wf_class = sim.WorkflowClass(name)
        workflow = sim.generate_workflow_class(wf_class, seed + 100 + ci)
        cloud = sim.generate_multicloud(seed + 200 + ci)
        for strategy in ("lowest-cost", "adaptive"):
            result = sim.run_experiment(
                workflow, cloud, detectors, sev, tenant, runs, strategy, rate,
                seed=seed + 300 + ci, window=window,
            )
            experiments[(name, strategy)] = result
            text = result.aggregate_csv(strategy, name)
            lines = text.splitlines(keepends=True)
            results_buf.write(text if not header_done else "".join(lines[1:]))
            header_done = True
            for widx, means in enumerate(result.windows):
                window_rows.append(
                    [name, strategy, widx, repr(means["price"]), repr(means["time"]),
                     repr(means["value"]), repr(means["mitigation"])]
                )
    return results_buf.getvalue(), _windows_csv(window_rows), experiments


def cmd_compare(cfg):
    out = Path(_get(cfg, "out", "results"))
    results_csv, windows_csv, _ = run_compare(cfg)
    _write(out / "results.csv", results_csv)
    _write(out / "windows.csv", windows_csv)
    return 0


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _md_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for r in rows:
        lines.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(lines)


def cmd_report(cfg):
    """Markdown summary assembled verbatim from previously emitted CSVs."""
    sections = []
    metrics_path = _get(cfg, "metrics")
    if metrics_path:
        header, rows = _read_csv(metrics_path)
        sections.append("## Detection metrics\n\n" + _md_table(header, rows))
    results_path = _get(cfg, "results")
    if results_path:
        header, rows = _read_csv(results_path)
        idx = {name: header.index(name) for name in header}
        groups = {}
        for r in rows:
            key = (r[idx["class"]], r[idx["strategy"]])
            groups.setdefault(key, []).append(r)
        summary = []
        for (cls, strat), grp in sorted(groups.items()):
            means = [
                f"{np.mean([float(r[idx[c]]) for r in grp]):.4f}"
                for c in ("price", "time", "value", "mitigation")
            ]
            counts = [
                str(int(np.sum([int(r[idx[c]]) for r in grp])))
                for c in ("injected", "detected", "adapted", "failed")
            ]
            summary.append([cls, strat, str(len(grp))] + means + counts)
        sections.append(
            "## Execution summary\n\n"
            + _md_table(
                ["class", "strategy", "runs", "mean price", "mean time",
                 "mean value", "mean mitigation", "injected", "detected",
                 "adapted", "failed"],
                summary,
            )
        )
    windows_path = _get(cfg, "windows")
    if windows_path:
        header, rows = _read_csv(windows_path)
        sections.append("## Rolling windows\n\n" + _md_table(header, rows))
    if not sections:
        raise UsageError("report needs at least one of --metrics/--results/--windows")
    _write(_get(cfg, "out", "report.md"), "# Experiment report\n\n" + "\n\n".join(sections) + "\n")
    return 0


def cmd_gen_bench(cfg):
    """Emit a generated workflow/multicloud pair as JSON for reuse."""
    seed = _get(cfg, "seed", 0, int)
    out = Path(_get(cfg, "out", "bench"))
    wf_class = sim.WorkflowClass(_get(cfg, "wf_class", "small", WF_CLASSES))
    _write(out / "workflow.json",
           serialize_workflow(sim.generate_workflow_class(wf_class, seed)))
    _write(out / "cloud.json", serialize_multicloud(sim.generate_multicloud(seed)))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (JSON-parsed value)")
    p.add_argument("--seed", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secflow",
        description="security-aware workflow simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate labeled telemetry CSVs")
    _add_common(p)
    p.add_argument("--kind", choices=KIND_CHOICES, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--intensity-mode", dest="intensity_mode",
                   choices=datagen.INTENSITY_MODES, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-detect", help="fit detectors and emit metrics")
    _add_common(p)
    p.add_argument("--kind", choices=KIND_CHOICES, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_detect)

    p = sub.add_parser("train-severity", help="fit the severity model")
    _add_common(p)
    p.add_argument("--kind", choices=KIND_CHOICES, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_severity)

    p = sub.add_parser("train-rl", help="train the adaptive action policy")
    _add_common(p)
    p.add_argument("--workflow", default=None)
    p.add_argument("--cloud", default=None)
    p.add_argument("--models", default=None)
    p.add_argument("--wf-class", dest="wf_class",
                   choices=WF_CLASSES, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_rl)

    p = sub.add_parser("simulate", help="run one strategy over a workflow")
    _add_common(p)
    p.add_argument("--workflow", default=None)
    p.add_argument("--cloud", default=None)
    p.add_argument("--models", default=None)
    p.add_argument("--qtable", default=None)
    p.add_argument("--wf-class", dest="wf_class", default=None)
    p.add_argument("--strategy", choices=sim.STRATEGIES, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="LowestCost vs Adaptive sweep")
    _add_common(p)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--classes", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="markdown summary from emitted CSVs")
    _add_common(p)
    p.add_argument("--metrics", default=None)
    p.add_argument("--results", default=None)
    p.add_argument("--windows", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-bench", help="emit a generated workflow/cloud pair")
    _add_common(p)
    p.add_argument("--wf-class", dest="wf_class",
                   choices=WF_CLASSES, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"secflow: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"secflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
