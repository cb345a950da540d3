"""One workload invocation, in its own process.

Usage: python3 perfbench/worker.py <spec.json>

With a list of CPUs in the spec, pins itself to them in turn, one round
each, so that every CPU is sampled throughout the run.  Times set-up (import of
qflow with numpy/scipy, config parse, Grid and DyadicPartition tables,
initial state or snapshot read), then runs each round of qflow commands
through `qflow.cli.main` and times each command.  The speed probe of
speed_probe.py runs over the set-up and each round; its own time is taken
out of theirs.  With "trace" set in the spec, the qflow modules are wrapped
after set-up, the probe runs only at each round's edges (so no probe time
falls inside a span), and the spans and their summary are written when the
commands end.  The result is written as JSON to the spec's "result" path.
"""

import time

T0 = time.perf_counter()  # before numpy, scipy and qflow are imported

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(spec: dict) -> None:
    import qflow.cli  # noqa: F401  (the command's whole import graph)
    from qflow.config import build_initial_state, parse_config
    from qflow.dyadic import DyadicPartition
    from qflow.spectral import Grid

    if spec["config"] is None:
        DyadicPartition(Grid(spec["n"]))
        return
    cfg = parse_config(Path(spec["config"]).read_text())
    grid = Grid(cfg.n, cfg.length)
    DyadicPartition(grid)
    build_initial_state(cfg, grid)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    cpus = spec["cpus"]
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})
    from speed_probe import SpeedProbe  # imports numpy and scipy.fft

    probe = SpeedProbe(spec["n"])
    probe.start()
    setup(spec)
    setup_s = time.perf_counter() - T0 - sum(probe.edge) - probe.timer_s()
    setup_probe_s = probe.stop()

    import qflow.cli
    from qflow.timestepping import BlowUpError

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rounds = []
    for j, commands in enumerate(spec["rounds"]):
        if rounds and time.perf_counter() - T0 > spec["stop_after"]:
            break
        if cpus:
            os.sched_setaffinity(0, {cpus[j % len(cpus)]})
        probe.start(timer=tracer is None)
        results = []
        for argv in commands:
            t = time.perf_counter()
            blowup_t = None
            try:
                rc = qflow.cli.main(argv)
            except BlowUpError as err:  # `qflow twin` does not catch it
                rc, blowup_t = 1, err.t
            sys.stdout.flush()
            results.append({"rc": rc, "seconds": time.perf_counter() - t, "blowup_t": blowup_t})
        seconds = sum(r["seconds"] for r in results) - probe.timer_s()
        rounds.append({"commands": results, "seconds": seconds, "probe_s": probe.stop()})
    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s, "rounds": rounds}
    if tracer is not None:
        tracer.restore()
        out["trace"] = tracer.summary()
        tracer.write_spans(Path(spec["result"]).with_name("spans.json"))
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
