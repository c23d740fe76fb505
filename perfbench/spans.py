"""In-memory span recorder that wraps secflow's layer functions from outside.

Every wrapper is installed where the name is looked up at call time: a
module attribute, a class attribute, or the module that imported the name
(``sim`` imports ``select_action``, ``attack_score`` and friends by name).
Nothing under ``src/`` changes, and no wrapper draws from an RNG stream, so
a traced run writes the same output bytes as an untraced one.

A span is ``[name, start_ns, end_ns, parent, instance, phase, records]``;
``parent`` is the index of the enclosing span (or -1) and ``instance`` the
index of the enclosing workflow-instance span (or -1). A layer's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from secflow import datagen, decision, detection, model, rl, scheduling, scoring, severity, sim

INSTANCE = "sim.instance"


def ratio(num, den):
    return num / den if den else 0.0

# (layer name, timed span or plain call count, lookup sites)
WIRING = [
    ("datagen.generate", "span", [(datagen, "generate")]),
    ("datagen.sample_features", "span", [(datagen, "sample_features")]),
    ("detection.predict", "span", [(detection.DetectorModel, "predict")]),
    ("detection.predict_batch", "span", [(detection.DetectorModel, "predict_batch")]),
    ("detection.train_random_forest", "span", [(detection, "train_random_forest")]),
    ("detection.train_linear", "span", [(detection, "train_linear")]),
    ("detection.evaluate", "span", [(detection, "evaluate")]),
    ("detection.save_models", "span", [(detection, "save_models")]),
    ("detection.load_models", "span", [(detection, "load_models")]),
    ("severity.assess", "span", [(severity.SeverityModel, "assess")]),
    ("severity.fit_severity", "span", [(severity, "fit_severity")]),
    ("severity.kmeans", "count", [(severity, "kmeans")]),
    ("scoring.attack_score", "count",
     [(scoring, "attack_score"), (decision, "attack_score"), (sim, "attack_score")]),
    ("decision.select_action", "span", [(decision, "select_action"), (sim, "select_action")]),
    ("decision.find_backup_service", "count", [(decision, "find_backup_service")]),
    ("decision.apply_action", "span",
     [(decision, "apply_tenant_action"), (sim, "apply_tenant_action"),
      (decision, "apply_middleware_action"), (sim, "apply_middleware_action")]),
    ("rl.workflow_state_key", "span", [(rl, "workflow_state_key")]),
    ("rl.q_update", "span", [(rl, "q_update")]),
    ("scheduling.TrustRepository.update", "span", [(scheduling.TrustRepository, "update")]),
    ("scheduling.TrustRepository.afr", "count", [(scheduling.TrustRepository, "afr")]),
    ("sim.ExecutionState.accumulated", "span", [(sim.ExecutionState, "accumulated")]),
    ("sim.makespan", "span", [(sim, "makespan")]),
    ("model.Workflow.topological_order", "count", [(model.Workflow, "topological_order")]),
    ("model.builtin_attack_catalog", "count",
     [(model, "builtin_attack_catalog"), (sim, "builtin_attack_catalog")]),
]

# `predict` is a one-row shim over the batch walk: the walk it makes is part of
# the single-record predict layer, not a batch call of its own.
_INNER = {"detection.predict_batch": "detection.predict"}


@contextmanager
def _patched(patches):
    saved = []
    try:
        for owner, attr, wrapper in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _instance_sites(on_instance, clock, tracer=None):
    """Wrap each workflow instance: one `sim.run_instance` call (burn-in,
    warm-up and lowest-cost rounds) or one `rl.run_training_episode` call
    (adaptive rounds). The time between instances goes to the clock too, so
    it counts in the unit; `on_instance(result, seconds, episode)` does not."""

    def make(fn, episode):
        def wrapper(*args, **kwargs):
            clock.lap()
            idx = tracer._open(INSTANCE) if tracer else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracer:
                    tracer._close(idx)
            on_instance(result, clock.lap(), episode)
            clock.restart()
            return result

        return wrapper

    return [
        (sim, "run_instance", make(sim.run_instance, False)),
        (rl, "run_training_episode", make(rl.run_training_episode, True)),
    ]


@contextmanager
def instance_timer(on_instance, clock):
    """Untraced runs: time each workflow instance and nothing else."""
    with _patched(_instance_sites(on_instance, clock)):
        yield


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (phase, name) -> calls
        self.errors = Counter()  # (phase, name) -> calls that raised
        self.phase = "setup"
        self._stack = []
        self._instance = -1

    def _open(self, name, records=0):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if name == INSTANCE:
            self._instance = idx
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._instance,
                           self.phase, records])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()
        if self.spans[idx][0] == INSTANCE:
            self._instance = -1

    def span_wrapper(self, name, fn):
        inner_of = _INNER.get(name)

        def wrapper(*args, **kwargs):
            if inner_of is not None and self._stack and self.spans[self._stack[-1]][0] == inner_of:
                return fn(*args, **kwargs)
            records = 0
            if name == "detection.predict_batch":
                records = len(args[1])
            idx = self._open(name, records)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[(self.phase, name)] += 1
                raise
            finally:
                self._close(idx)

        return wrapper

    def count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, on_instance, clock):
        """Install every wrapper of WIRING plus the instance spans; restore
        the original attributes on exit."""
        with _patched(
            [(owner, attr, (self.span_wrapper if kind == "span" else self.count_wrapper)(
                name, owner.__dict__[attr]))
             for name, kind, sites in WIRING for owner, attr in sites]
            + _instance_sites(on_instance, clock, tracer=self)
        ):
            yield self

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, instance, phase, records in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "instance": instance,
                                     "phase": phase, "records": records}) + "\n")

    def summary(self):
        """Per (phase, name): calls, inclusive ns, self ns, records."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, phase, records) in enumerate(self.spans):
            s = out.setdefault((phase, name), {"calls": 0, "ns": 0, "self_ns": 0, "records": 0})
            s["calls"] += 1
            s["ns"] += end - start
            s["self_ns"] += end - start - child_ns[i]
            s["records"] += records
        for key, calls in self.counts.items():
            out.setdefault(key, {"calls": 0, "ns": 0, "self_ns": 0, "records": 0})["calls"] += calls
        return out

    def layer_metrics(self, tally, table, overhead_ratio):
        """Per-layer figures of the traced unit (phase "measure"); the fitting
        figures (`*.s`, `severity.kmeans.calls`) also cover the traced set-up."""
        summary = self.summary()
        empty = {"calls": 0, "ns": 0, "self_ns": 0, "records": 0}

        def measured(name):
            return summary.get(("measure", name), empty)

        def everywhere(name):
            out = dict(empty)
            for (_, n), s in summary.items():
                if n == name:
                    out = {k: out[k] + s[k] for k in out}
            return out

        def us_per_call(s):
            return ratio(s["ns"], s["calls"]) / 1e3

        def s_per_call(s):
            return ratio(s["ns"], s["calls"]) / 1e9

        instance = measured(INSTANCE)

        def share(s):
            return ratio(s["self_ns"], instance["ns"])

        out = {}
        for name in ("detection.predict", "scheduling.TrustRepository.update",
                     "decision.select_action"):
            s = measured(name)
            out[f"{name}.calls"] = s["calls"]
            out[f"{name}.us_per_call"] = us_per_call(s)
            out[f"{name}.share"] = share(s)
        for name in ("datagen.sample_features", "decision.apply_action", "severity.assess",
                     "rl.workflow_state_key", "rl.q_update", "sim.ExecutionState.accumulated"):
            s = measured(name)
            out[f"{name}.calls"] = s["calls"]
            out[f"{name}.us_per_call"] = us_per_call(s)
        for name in ("scheduling.TrustRepository.afr", "decision.find_backup_service",
                     "model.Workflow.topological_order", "model.builtin_attack_catalog",
                     "scoring.attack_score"):
            out[f"{name}.calls"] = measured(name)["calls"]
        out["decision.select_action.per_decision"] = ratio(
            out["decision.select_action.calls"], tally.detected)
        out["decision.adapted_ratio"] = ratio(tally.adapted, tally.detected)
        out["severity.assess.fallback_ratio"] = ratio(
            self.errors[("measure", "severity.assess")], out["severity.assess.calls"])

        visits = {}
        for (state, _), n in (table.visits.items() if table is not None else ()):
            visits[state] = visits.get(state, 0) + n
        out["rl.states"] = len(visits)
        out["rl.single_visit_ratio"] = ratio(sum(1 for n in visits.values() if n == 1), len(visits))

        out["sim.makespan.us_per_call"] = us_per_call(measured("sim.makespan"))
        out["sim.instance.self_us"] = ratio(instance["self_ns"], instance["calls"]) / 1e3
        out["sim.instance.self_share"] = ratio(instance["self_ns"], instance["ns"])

        out["detection.recall_ratio"] = ratio(tally.detected, tally.injected)
        out["detection.false_alarm_ratio"] = ratio(
            tally.false_alarms, out["detection.predict.calls"] - tally.injected)

        out["detection.train_random_forest.s"] = s_per_call(
            everywhere("detection.train_random_forest"))
        out["severity.kmeans.calls"] = everywhere("severity.kmeans")["calls"]
        out["severity.fit_severity.s"] = s_per_call(everywhere("severity.fit_severity"))
        out["datagen.generate.s"] = s_per_call(everywhere("datagen.generate"))

        # the batch walk inside `evaluate`; the reload check's walks are not counted
        walk_ns = walk_records = 0
        for name, start, end, parent, _, phase, records in self.spans:
            if (name == "detection.predict_batch" and phase == "measure" and parent >= 0
                    and self.spans[parent][0] == "detection.evaluate"):
                walk_ns += end - start
                walk_records += records
        out["detection.predict_batch.us_per_record"] = ratio(walk_ns, walk_records) / 1e3
        save, load = measured("detection.save_models"), measured("detection.load_models")
        out["detection.save_load.s"] = ratio(save["ns"] + load["ns"], save["calls"]) / 1e9
        out["trace.overhead_ratio"] = overhead_ratio
        return out
