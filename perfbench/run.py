"""qflow benchmark: one workload, one seed, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-128 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workload runs in worker processes (perfbench/worker.py), one at a time,
with QFLOW_THREADS=1 and BLAS pinned to one thread; each worker runs rounds
of the workload's qflow commands.  A run first makes the seeded inputs, then
one unmeasured round at QFLOW_THREADS=2 (it warms the caches and must
reproduce the final-state hash bit for bit), then measured workers until
--seconds have passed.  With --trace 1 one more round runs with the qflow
modules wrapped, and the per-layer metrics come from its spans.  Times in
the metrics are scaled to a reference CPU speed with the speed probe of
speed_probe.py.

Every round's outputs are checked (see workloads.py).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  `--workload all` runs the four
workloads in turn, prints each one's result on a `result <name>` line, and
ends with their combined result, metrics named `<workload>.<metric>`.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (WORKLOADS, Workload, check_outputs, commands, config_text,
                       count_failed, state_hash, write_restart_snapshot)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 100.0
SETUP_WORKERS = 6  # set-up-only workers per run, besides the measured ones

#: Median time of the speed probe's kernel (speed_probe.py) on the reference
#: machine (README.md) with its cores otherwise idle.  Every time the
#: benchmark reports in a metric is scaled by this over the probe's median
#: time on the same CPU during the measurement: it is the time at the
#: reference speed.  The human-readable lines also give wall-clock times.
PROBE_REF_S = {16: 0.78e-3, 32: 0.78e-3, 64: 0.78e-3, 128: 0.9e-3, 256: 2.1e-3}

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics reported in the JSON line with --trace 1: name -> unit.
#: Times are kept only for layers every workload enters, so none reads 0 by
#: construction; counts may be 0 where a workload skips the layer.  The
#: traced run's trace_summary.json holds every per-layer metric.
PER_LAYER = {
    "spectral.transform_s": "s",
    "spectral.leray_s": "s",
    "qtensor.dense_s": "s",
    "dyadic.tables_s": "s",
    "cli.command_s": "s",
    "trace.overhead_s": "s",
    "spectral.r2c_planes_per_step": "count",
    "spectral.c2r_planes_per_step": "count",
    "spectral.transform_calls_per_step": "count",
    "spectral.transform_mb_per_step": "MB",
    "spectral.c2c_planes": "count",
    "spectral.outside_grid_planes": "count",
    "qtensor.rhs_calls_per_step": "count",
    "timestepping.probe_planes_per_call": "count",
    "snapshots.write_mb": "MB",
}


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc and return its resource usage; kill it past the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def invoke(wl: Workload, seed: int, inv: Path, snapshot: Path | None, *, threads: int = 1,
           rounds: int = 1, stop_after: float = 0.0, cpus: list[int] | None = None,
           trace: bool = False) -> dict:
    """One worker process running up to `rounds` rounds of the workload's
    commands (at least one if rounds > 0, and none started once `stop_after`
    seconds have passed since the process started), each round into its own
    output directory, with the rounds' checks.  With rounds = 0 the worker
    only sets up."""
    inv.mkdir()
    outs = [inv / f"out{j}" for j in range(max(rounds, 1))]  # set-up reads the first config
    configs: list[str | None] = []
    for j, out in enumerate(outs):
        if wl.kind == "check":
            out.mkdir()
            configs.append(None)
        else:
            cfg = inv / f"run{j}.cfg"
            cfg.write_text(config_text(wl, seed, _rel(out), snapshot and _rel(snapshot)))
            configs.append(_rel(cfg))
    spec = {"config": configs[0], "n": wl.n, "trace": trace, "cpus": cpus, "stop_after": stop_after,
            "rounds": [commands(wl, seed, c, _rel(out)) for c, out in zip(configs, outs)][:rounds],
            "result": _rel(inv / "result.json")}
    (inv / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, QFLOW_THREADS=str(threads), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    with open(inv / "stdout.txt", "w") as so, open(inv / "stderr.txt", "w") as se:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), _rel(inv / "spec.json")],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        usage = _wait(proc, WORKER_TIMEOUT_S)
    result_path = inv / "result.json"
    result = json.loads(result_path.read_text()) if proc.returncode == 0 and result_path.is_file() else None
    rec = {"name": inv.name, "rss_mb": usage.ru_maxrss / 1024.0,
           "crashed": result is None, "setup_s": None, "trace": None, "rounds": []}
    if result is None:
        rec["rounds"] = [{"seconds": None, "ops": wl.ops, "failed": wl.ops, "checks": {},
                          "hash": None, "write_mb": 0.0}] if rounds else []
        return rec
    rec.update(setup_s=result["setup_s"], trace=result.get("trace"),
               setup_ref_s=result["setup_s"] * PROBE_REF_S[wl.n] / result["setup_probe_s"])
    for out, rnd in zip(outs, result["rounds"]):
        cmds = rnd["commands"]
        failed = count_failed(wl, out, seed, cmds)
        rec["rounds"].append({
            "seconds": rnd["seconds"], "probe_ms": rnd["probe_s"] * 1e3,
            "ref_seconds": rnd["seconds"] * PROBE_REF_S[wl.n] / rnd["probe_s"],
            "ops": wl.ops, "failed": failed,
            "checks": check_outputs(wl, out, seed, [c["rc"] for c in cmds]) if failed == 0 else {},
            "hash": state_hash(wl, out, seed),
            "write_mb": sum(p.stat().st_size for p in out.glob("*.qtns")) / 1e6})
    for out in outs[:len(rec["rounds"]) - 1]:  # keep the last round's outputs
        shutil.rmtree(out)
    return rec


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """All invocations of one benchmark run; returns the result object and
    the per-invocation records."""
    run_dir = ROOT / ".perfbench" / f"{wl.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    snapshot = None
    if wl.restart:
        snapshot = run_dir / "restart.qtns"
        write_restart_snapshot(snapshot, wl, seed)

    cpus = sorted(os.sched_getaffinity(0))
    leg = invoke(wl, seed, run_dir / "leg-threads2", snapshot, threads=2)
    setups = [invoke(wl, seed, run_dir / f"setup{i}", snapshot, rounds=0, cpus=[cpus[i % len(cpus)]])
              for i in range(SETUP_WORKERS)]
    measured: list[dict] = []
    t0 = time.perf_counter()
    while not measured or time.perf_counter() - t0 < seconds:
        i = len(measured)
        measured.append(invoke(wl, seed, run_dir / f"run{i}", snapshot, rounds=wl.rounds,
                               stop_after=seconds - (time.perf_counter() - t0),
                               cpus=cpus[i % len(cpus):] + cpus[:i % len(cpus)]))
    traced = invoke(wl, seed, run_dir / "traced", snapshot, trace=True) if trace else None
    invocations = [leg, *setups, *measured] + ([traced] if traced else [])
    rounds = [r for rec in invocations for r in rec["rounds"]]

    for rec in invocations:
        times = " ".join(f"{r['seconds']:.3f}" for r in rec["rounds"] if r["seconds"] is not None)
        probes = " ".join(f"{r['probe_ms']:.3f}" for r in rec["rounds"] if r["seconds"] is not None)
        print(f"{rec['name']}: " + ("crashed" if rec["crashed"] else
              f"setup {rec['setup_s']:.4f} s, rss {rec['rss_mb']:.1f} MB, "
              f"rounds [{times}] s, probe [{probes}] ms, "
              f"{sum(r['failed'] for r in rec['rounds'])} failed ops"))
    correct = not any(rec["crashed"] for rec in invocations)
    names = sorted({nm for r in rounds for nm in r["checks"]})
    for nm in names:
        ran = [r["checks"][nm] for r in rounds if nm in r["checks"]]
        ok = all(passed for passed, _ in ran)
        correct &= ok
        print(f"check {nm}: {'PASS' if ok else 'FAIL'} in {sum(p for p, _ in ran)}/{len(ran)} "
              f"rounds; first: {ran[0][1]}")
    complete = [r for r in rounds if r["failed"] == 0]
    hashes = {r["hash"] for r in complete}
    deterministic = len(hashes) <= 1 and None not in hashes
    correct &= deterministic
    print(f"check final_state_hash: {'PASS' if deterministic else 'FAIL'} ({len(complete)} "
          f"complete rounds incl. one at QFLOW_THREADS=2, {len(hashes)} distinct)")

    ok_recs = [rec for rec in measured if not rec["crashed"]]
    ok_rounds = [r for rec in ok_recs for r in rec["rounds"] if r["failed"] == 0]
    metrics: dict[str, dict] = {}
    if not trace and ok_rounds:
        raw = [r["seconds"] for r in ok_rounds]
        values = {
            "setup_s": statistics.median(rec["setup_ref_s"] for rec in setups + ok_recs
                                         if not rec["crashed"]),
            "ops_per_s": wl.ops / statistics.median(r["ref_seconds"] for r in ok_rounds),
            "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in ok_recs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        name, value, unit = ("check_s", wl.ops / values["ops_per_s"], "s") if wl.kind == "check" \
            else ("steps_per_s", values["ops_per_s"], "steps/s")
        print(f"metric {name} = {value:.6g} {unit} at reference speed ({len(ok_rounds)} measured "
              f"rounds; wall-clock round median {statistics.median(raw):.4f} s, "
              f"fastest {min(raw):.4f} s)")
    elif trace and traced is not None and not traced["crashed"] and ok_rounds:
        speed = PROBE_REF_S[wl.n] * 1e3 / traced["rounds"][0]["probe_ms"]
        layer = {k: v * speed if k.endswith("_s") else v for k, v in traced["trace"]["layer"].items()}
        layer["snapshots.write_mb"] = traced["rounds"][0]["write_mb"]
        # the traced round is a process's first; compare it with first rounds
        layer["trace.overhead_s"] = traced["rounds"][0]["ref_seconds"] - statistics.median(
            rec["rounds"][0]["ref_seconds"] for rec in ok_recs)
        summary = {"workload": wl.name, "seed": seed, "layer": layer,
                   "spans": traced["trace"]["spans"], "by_name": traced["trace"]["by_name"]}
        (run_dir / "trace_summary.json").write_text(json.dumps(summary, indent=1))
        for nm, v in layer.items():
            print(f"layer {nm} = {v:.6g}")
        print(f"spans: {_rel(run_dir / 'traced' / 'spans.json')} "
              f"({summary['spans']} spans); summary: {_rel(run_dir / 'trace_summary.json')}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        correct = False
    for nm, m in metrics.items():
        print(f"metric {nm} = {m['value']:.6g} {m['unit']}")
    for rec in invocations[:-1]:  # keep the last invocation's outputs for inspection
        for out in (run_dir / rec["name"]).glob("out*"):
            shutil.rmtree(out)
    result = {"correct": bool(correct), "attempted": sum(r["ops"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds), "metrics": metrics}
    return result, invocations


def machine_facts() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cores = len(os.sched_getaffinity(0))
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "qflow").glob("*.py"))
    return (f"machine: cores={cores} python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"src_lines={src_lines}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qflow" / "cli.py").is_file():
        print(f"error: no qflow sources under {ROOT / 'src' / 'qflow'}", file=sys.stderr)
        return 2
    print(machine_facts())
    if args.workload != "all":
        result, _ = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name, wl in WORKLOADS.items():
        print(f"== workload {name}")
        results[name], _ = run(wl, args.seed, args.seconds, bool(args.trace))
        print(f"result {name} {json.dumps(results[name])}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
