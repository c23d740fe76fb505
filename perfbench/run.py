"""secflow benchmark: one workload per process, single thread, closed loop.

    python3 perfbench/run.py --workload simulate-medium --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run. Lines before it report the same figures for people, with the
sample counts, the output digest, the checks and the environment. See
perfbench/README.md for the workloads and what each metric means.
"""

import os

# one thread for BLAS/OpenMP, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Metric names and units, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

# The sim workloads' held-out sets are small (300 rows a kind); evaluating
# each several times per set-up steadies `eval_records_per_s`.
EVAL_REPEATS = 10


def _git_sha():
    """The checkout's commit, read from .git without running git (the
    benchmark reads nothing outside its checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Run:
    """State and report of one benchmark run. A unit function returns
    (scaled seconds, output digest, Q-table or None)."""

    def __init__(self, args, clock):
        self.args = args
        self.size = workloads.SIZES[args.size][args.workload]
        self.clock = clock
        self.tally = workloads.Tally()
        self.digests = []
        self.checks = []  # (description, ok)
        self.info = {}
        self.metrics = {}

    def check(self, description, ok):
        self.checks.append((description, bool(ok)))

    def unit(self, fn):
        """Run one measured unit; an exception fails the operation in flight."""
        try:
            return fn()
        except Exception:
            self.tally.attempted += 1
            self.tally.fail(traceback.format_exc(limit=3))
            traceback.print_exc(file=sys.stderr)
            return None

    def repeat(self, fn):
        """Repeat a unit while the time budget lasts, at least once; returns
        the scaled seconds of all repeats."""
        start = time.perf_counter()
        measured = 0.0
        while True:
            before = time.perf_counter()
            out = self.unit(fn)
            if out is None:
                break
            measured += out[0]
            self.digests.append(out[1])
            now = time.perf_counter()
            if (now - start) + (now - before) > self.args.seconds:
                break
        self.check("every repeat of the unit writes the same output digest",
                   len(set(self.digests)) == 1)
        return measured

    # -- simulate-medium, adapt-large ----------------------------------------

    def sim_untraced(self):
        a, size = self.args, self.size
        setup_s, fit_s, eval_s, eval_records = [], [], 0.0, 0
        for _ in range(size["setup_repeats"]):
            setup = workloads.sim_setup(a.workload, a.seed, size, self.clock)
            setup_s.append(setup.setup_s)
            fit_s.append(setup.fit_s)
            accuracy = []
            for kind in workloads.KINDS:
                for _ in range(EVAL_REPEATS):
                    self.clock.restart()
                    m = detection.evaluate(setup.detectors[kind], setup.held_out[kind])
                    eval_s += self.clock.lap()
                    eval_records += len(setup.held_out[kind])
                accuracy.append(m.accuracy)

        with spans.instance_timer(self.tally.on_instance, self.clock):
            measured = self.repeat(
                lambda: workloads.sim_unit(a.workload, a.seed, size, setup, self.clock))
        inst = self.tally.instance_s or [0.0]
        tasks = len(setup.workflow.tasks)
        self.info["instances"] = len(self.tally.instance_s)
        self.info["tasks_per_instance"] = tasks
        self.info["setup_repeats"] = size["setup_repeats"]
        self.metrics = {
            "setup_s": statistics.median(setup_s),
            "tasks_per_s": spans.ratio(len(self.tally.instance_s) * tasks, measured),
            "instance_ms_p50": statistics.median(inst) * 1e3,
            "instance_ms_p90": _p90(inst) * 1e3,
            "train_s": statistics.median(fit_s),
            "eval_records_per_s": spans.ratio(eval_records, eval_s),
            "detect_accuracy": statistics.fmean(accuracy),
        }

    def sim_traced(self):
        a, size = self.args, self.size
        tracer = spans.Tracer()
        with tracer.installed(self.tally.on_instance, self.clock):
            setup = workloads.sim_setup(a.workload, a.seed, size, self.clock)
        self.trace_both(
            tracer, lambda: workloads.sim_unit(a.workload, a.seed, size, setup, self.clock))

    # -- train-detect ----------------------------------------------------------

    def train_unit(self, datasets, rounds):
        def unit():
            OUT.mkdir(parents=True, exist_ok=True)
            rnd, problems = workloads.train_round(
                self.args.seed, self.size, datasets, OUT / f"models-{os.getpid()}.json",
                self.clock)
            self.tally.attempted += 1
            if problems:
                self.tally.fail("; ".join(problems))
            rounds.append(rnd)
            return rnd.seconds, rnd.digest, None
        return unit

    def train_untraced(self):
        a, size = self.args, self.size
        setup_s = []
        for _ in range(size["setup_repeats"]):
            datasets, seconds = workloads.train_setup(a.seed, size, self.clock)
            setup_s.append(seconds)
        rounds = []
        measured = self.repeat(self.train_unit(datasets, rounds))
        self.info["rounds"] = len(rounds)
        self.info["setup_repeats"] = size["setup_repeats"]
        round_s = [r.seconds for r in rounds] or [0.0]
        records = sum(len(ds) for ds in datasets.values())
        self.metrics = {
            "setup_s": statistics.median(setup_s),
            "tasks_per_s": spans.ratio(len(rounds) * records, measured),
            "instance_ms_p50": statistics.median(round_s) * 1e3,
            "instance_ms_p90": _p90(round_s) * 1e3,
            "train_s": statistics.median(round_s),
            "eval_records_per_s": spans.ratio(sum(r.eval_records for r in rounds),
                                         sum(r.eval_s for r in rounds)),
            "detect_accuracy": rounds[0].rf_accuracy if rounds else 0.0,
        }

    def train_traced(self):
        tracer = spans.Tracer()
        with tracer.installed(self.tally.on_instance, self.clock):
            datasets, _ = workloads.train_setup(self.args.seed, self.size, self.clock)
        self.trace_both(tracer, self.train_unit(datasets, []))

    # -- traced runs -------------------------------------------------------------

    def trace_both(self, tracer, run_unit):
        """One untraced unit, then the same unit traced: the digests must
        match, and the ratio of their times is the tracing overhead."""
        with spans.instance_timer(self.tally.on_instance, self.clock):
            u = self.unit(run_unit)
        traced = workloads.Tally()
        tracer.phase = "measure"
        with tracer.installed(traced.on_instance, self.clock):
            t = self.unit(run_unit) if u is not None else None
        if u is None or t is None:
            self.check("traced and untraced units both ran", False)
            return
        self.digests = [u[1], t[1]]
        self.check("traced unit writes the untraced unit's digest", u[1] == t[1])
        self.tally.attempted += traced.attempted
        self.tally.failed += traced.failed
        self.tally.problems += traced.problems
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(path)
        self.info["spans_file"] = str(path.relative_to(ROOT))
        self.info["spans"] = len(tracer.spans)
        m = self.metrics = tracer.layer_metrics(traced, t[2], u[0] / t[0])
        self.check(f"severity.assess.calls {m['severity.assess.calls']} == "
                   f"sum(detected) {traced.detected}",
                   m["severity.assess.calls"] == traced.detected)
        self.check(f"rl.q_update.calls {m['rl.q_update.calls']} == "
                   f"sum(adapted) over adaptive episodes {traced.episode_adapted}",
                   m["rl.q_update.calls"] == traced.episode_adapted)

    # -- report ------------------------------------------------------------------

    def main(self):
        a = self.args
        if a.workload == "train-detect":
            self.train_traced() if a.trace else self.train_untraced()
        else:
            self.sim_traced() if a.trace else self.sim_untraced()
        if not a.trace:
            self.metrics["peak_rss_mb"] = _peak_rss_mb()
        factors = self.clock.factors
        self.info["host_speed"] = (
            f"median {statistics.median(factors):.3f} min {min(factors):.3f} "
            f"max {max(factors):.3f} of reference ({len(factors)} samples)")
        self.info["raw_over_scaled_time"] = round(
            spans.ratio(self.clock.raw_total, self.clock.total), 4)
        units = PER_LAYER if a.trace else END_TO_END
        failed_ratio = spans.ratio(self.tally.failed, self.tally.attempted)
        self.check("no operation failed", self.tally.failed == 0)
        self.check("every declared metric is measured", set(self.metrics) == set(units))
        correct = all(ok for _, ok in self.checks)
        env = {"git_sha": _git_sha(), "python": platform.python_version(),
               "numpy": np.__version__, "nproc": os.cpu_count()}

        print(f"workload {a.workload} seed {a.seed} seconds {a.seconds} "
              f"trace {a.trace} size {a.size}")
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        for key, value in self.info.items():
            print(f"info {key} {value}")
        for name, unit in units.items():
            print(f"metric {name} {self.metrics.get(name, float('nan')):.6g} {unit}")
        print(f"metric failed_ratio {failed_ratio:.6g} ratio "
              f"({self.tally.failed}/{self.tally.attempted})")
        print(f"digest {self.digests[0] if self.digests else 'none'}")
        for description, ok in self.checks:
            print(f"check {description}: {'ok' if ok else 'FAILED'}")
        for problem in self.tally.problems:
            print(f"problem {problem}")

        record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                  "trace": a.trace, "size": a.size, "env": env, "info": self.info,
                  "digest": self.digests[0] if self.digests else None,
                  "failed_ratio": failed_ratio, "checks": self.checks}
        result = {
            "correct": correct,
            "attempted": max(self.tally.attempted, 1),
            "failed": self.tally.failed,
            "metrics": {n: {"value": self.metrics.get(n, 0.0), "unit": u}
                        for n, u in units.items()},
        }
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json", "w") as fh:
            json.dump({**record, **result}, fh, indent=1)
        print(json.dumps(result))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in DECLARED["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal inputs, for perfbench/smoke.py")
    return p.parse_args(argv)


if __name__ == "__main__":
    ARGS = parse_args()
    sys.path.insert(0, str(SRC))
    import secflow  # noqa: E402

    if not Path(secflow.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"secflow imported from {secflow.__file__}, not from {SRC}")
    import numpy as np  # noqa: E402
    from secflow import detection  # noqa: E402

    import spans  # noqa: E402
    import workloads  # noqa: E402
    from clock import Clock  # noqa: E402

    with Clock() as clock:
        Run(ARGS, clock).main()
