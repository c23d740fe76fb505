"""Smoke test of the benchmark itself: every workload at a tiny size, once
untraced and once traced, each in a fresh process as the real runs are.

    python3 perfbench/smoke.py

It asserts that every metric declared in BENCHMARK.json is printed with its
unit, that no operation failed, that every check (the wiring cross-checks
included) passed, that the traced run writes the untraced run's output
digest, and that the runner fails without a result when the program's
sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload, trace, declared):
    proc = run(workload, trace)
    assert proc.returncode == 0, (
        f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, *_ = line.split()
            printed[name] = (float(value), unit)
    for name, unit in declared.items():
        assert printed.get(name, (None, None))[1] == unit, f"{name} not printed with unit {unit}"
    assert printed["failed_ratio"] == (0.0, "ratio"), printed["failed_ratio"]
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    checks = [line for line in lines if line.startswith("check ")]
    assert checks and all(line.endswith(": ok") for line in checks), "\n".join(checks)
    assert result["correct"], lines
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    if trace:
        assert any("severity.assess.calls" in line for line in checks)
        assert any("rl.q_update.calls" in line for line in checks)
        if workload != "train-detect":
            assert metrics["severity.assess.calls"] > 0 and metrics["detection.predict.calls"] > 0
        if workload == "adapt-large":
            assert metrics["rl.q_update.calls"] > 0 and metrics["rl.states"] > 0
        if workload == "train-detect":
            assert metrics["detection.predict_batch.us_per_record"] > 0
    else:
        assert all(v > 0 for v in metrics.values()), metrics
    return next(line.split()[1] for line in lines if line.startswith("digest "))


def check_bare_directory(workload):
    """With only BENCHMARK.json and perfbench/, the runner must fail."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(workload, 0, cwd=bare)
        assert proc.returncode != 0, "runner succeeded without the program's sources"
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        digests = {trace: check_run(workload, trace, declared[trace]) for trace in (0, 1)}
        assert digests[0] == digests[1], f"{workload}: traced digest differs: {digests}"
        print(f"ok {workload} digest {digests[0]}")
    check_bare_directory(bench["workloads"][0]["name"])
    print("ok runner fails without the program's sources")


if __name__ == "__main__":
    main()
