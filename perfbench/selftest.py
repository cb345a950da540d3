"""Self-test of the benchmark harness at a tiny grid.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload shrunk to n = 16 (n = 32 for check: below that the
product-law seed-stability check fails by design) for one second, untraced
and traced,
and checks that each run is correct with no failed operation, that every
metric BENCHMARK.json names is emitted with its unit, and that each
workload's output checks ran.  Last, it checks that run.py exits nonzero
without printing a result in a directory that holds only BENCHMARK.json and
the benchmark's files.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

EXPECTED_CHECKS = {
    "simulate": {"cli_exit_0", "energy_balance", "energy_numpy_fft",
                 "velocity_divergence_free", "velocity_mean_zero"},
    "twin": {"cli_exit_0", "eps2_scaling", "member1_bitwise"},
    "check": {"cli_exit_0", "ten_verdicts_pass"},
}


def tiny(name: str):
    wl = WORKLOADS[name]
    n = 32 if wl.kind == "check" else 16
    return replace(wl, name=f"{name}-tiny", n=n, steps=min(wl.steps, 4), kmax=3.0, rounds=2,
                   n_cutoff=wl.n_cutoff and 4, trials=min(wl.trials, 3))


def check_metrics(got: dict, declared: list[dict]) -> list[str]:
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        errors.append(f"metrics {sorted(got)} != declared {sorted(want)}")
    for nm, m in got.items():
        if m.get("unit") != want.get(nm):
            errors.append(f"{nm}: unit {m.get('unit')!r} != {want.get(nm)!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{nm}: value {m.get('value')!r} is not a finite number")
    return errors


def bare_directory_fails() -> list[str]:
    """run.py in a copy holding only BENCHMARK.json and perfbench/ must fail."""
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-128", "--seed",
                           "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for name in WORKLOADS:
        wl = tiny(name)
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, invocations = run.run(wl, seed=0, seconds=1, trace=trace)
            tag = f"{wl.name} trace={int(trace)}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} attempted="
                              f"{result['attempted']} failed={result['failed']}")
            errors += [f"{tag}: {e}" for e in check_metrics(result["metrics"], declared)]
            for rec in invocations:
                for j, r in enumerate(rec["rounds"]):
                    missing = EXPECTED_CHECKS[wl.kind] - set(r["checks"])
                    if missing:
                        errors.append(f"{tag} {rec['name']} round {j}: output checks not run: "
                                      f"{sorted(missing)}")
    errors += bare_directory_fails()
    for e in errors:
        print(f"SELFTEST FAIL {e}")
    print("SELFTEST PASS" if not errors else f"SELFTEST FAIL ({len(errors)} problems)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
