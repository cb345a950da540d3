"""Command-line surface: simulate, twin, analyze, check, norms.

Every subcommand exits nonzero when any check it ran failed (or a run
aborted) and zero otherwise.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from contextlib import closing
from pathlib import Path

from . import checks
from .config import ConfigError, RunConfig, build_initial_state, parse_config
from .dyadic import NormSpec, shared_partition
from .qtensor import ModelParams, State
from .snapshots import SeriesWriter, read_series, read_snapshot, write_csv
from .spectral import Grid
from .timestepping import BandError, BlowUpError, Perturbation, Trajectory, run, twin_run

#: Parameter set used by the stateless `check` ensembles that need one.
CHECK_PARAMS = ModelParams(a=-0.3, b=1.0, c=1.0, gamma=1.0, nu=1.0, L=1.0)

#: glibc's 64-bit ceiling for its dynamic mmap threshold: step-sized arrays come from the heap.
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 32 << 20
#: Freed heap top stays mapped for the next step instead of being faulted in again.
M_TRIM_THRESHOLD, TRIM_THRESHOLD = -1, 256 << 20


def _set_heap_policy() -> None:
    """Keep the short-lived arrays of every step and trial on glibc's heap.

    A process policy, so only the command line sets it; importing qflow
    leaves the caller's allocator alone.  The trim threshold is set only
    once the mmap threshold is: setting it alone switches off glibc's
    dynamic mmap threshold, and then every array of 128 KiB or more is
    mmapped again.  Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _load_config(path: str) -> RunConfig:
    try:
        return parse_config(Path(path).read_text())
    except (OSError, ConfigError) as err:
        raise SystemExit(f"error: {err}")


def _prepare_run(args: argparse.Namespace) -> tuple[RunConfig, Grid, State, Path]:
    """Config, grid, initial state and output directory of simulate/twin."""
    cfg = _load_config(args.config)
    try:
        grid = Grid(cfg.n, cfg.length)
        init = build_initial_state(cfg, grid)
    except (OSError, ValueError) as err:
        raise SystemExit(f"error: {err}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, grid, init, out


def _stream(runner, sink: SeriesWriter, *args, **kwargs) -> bool:
    """Run runner(*args, **kwargs, sink=sink), then close sink; False once it aborted."""
    with closing(sink):
        try:
            runner(*args, **kwargs, sink=sink)
        except BandError as err:
            raise SystemExit(f"error: {err}")
        except BlowUpError as err:
            print(f"ABORT {err}\nflushed partial series to {sink.path}", file=sys.stderr)
            return False
    return True


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, grid, init, out = _prepare_run(args)
    (out / "config.cfg").write_text(Path(args.config).read_text())
    sink = SeriesWriter(out / "series.csv", grid, cfg.params)
    if not _stream(run, sink, grid, init, cfg.params, cfg.time,
                   hs_probes=cfg.hs_probes, state_stride=cfg.snapshot_stride):
        return 1
    (_, first), (t, last) = sink.first, sink.last
    print(f"simulate: {sink.rows - 1} steps to t={t:g}, "
          f"energy {first['energy']:.6g} -> {last['energy']:.6g}")
    print(f"wrote {sink.path}")
    return 0


def cmd_twin(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise SystemExit(f"error: --eps must be a finite number >= 0, got {args.eps}")
    if args.seed < 0:
        raise SystemExit(f"error: --seed must be >= 0, got {args.seed}")
    cfg, grid, init, out = _prepare_run(args)
    path = out / f"twin_eps{args.eps:g}_seed{args.seed}.csv"
    if not _stream(twin_run, SeriesWriter(path), grid, init,
                   Perturbation(args.eps, seed=args.seed), cfg.params, cfg.time):
        return 1
    diff = Trajectory(grid, cfg.params, *read_series(path))  # an exact round trip
    reports = [checks.uniqueness_check(diff), checks.difference_regularity_check(diff)]
    for rep in reports:
        print(rep)
    return 0 if all(r.passed for r in reports) else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    rundir = Path(args.rundir)
    try:
        cfg = parse_config((rundir / "config.cfg").read_text())
        traj = Trajectory(Grid(cfg.n, cfg.length), cfg.params, *read_series(rundir / "series.csv"))
    except (OSError, ConfigError, ValueError) as err:
        raise SystemExit(f"error: {err}")

    wanted = args.check
    reports = []
    if wanted in ("energy", "all"):
        reports.append(checks.energy_balance_check([traj]))
    if wanted in ("lp_bound", "all"):
        reports += [checks.lp_bound_check(traj, p) for p in (1, 2, 3)]
    if wanted in ("osgood", "all"):
        try:
            reports.append(checks.osgood_check(traj, args.s).report)
        except KeyError as err:
            if wanted == "osgood":
                raise SystemExit(f"error: {err}")
            print(f"skipping osgood: {err}")
    if not reports:
        raise SystemExit(f"error: unknown check {wanted!r} "
                         "(choose energy, lp_bound, osgood or all)")
    for rep in reports:
        print(rep)
    _write_reports(rundir / "reports.csv", reports)
    return 0 if all(r.passed for r in reports) else 1


def _write_reports(path: Path, reports) -> None:
    rows = [r.row() for r in reports]
    keys: list[str] = []
    for row in rows:
        keys += [k for k in row if k not in keys]
    write_csv(path, keys, ([row.get(k, "") for k in keys] for row in rows))


def cmd_check(args: argparse.Namespace) -> int:
    try:
        grid = Grid(args.n)
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    trials, seed = args.trials, args.seed
    if trials < 1:
        raise SystemExit(f"error: --trials must be >= 1, got {trials}")
    if seed < 0:
        raise SystemExit(f"error: --seed must be >= 0, got {seed}")
    registry = {
        "partition": lambda: checks.partition_unity_check(grid),
        "bony": lambda: checks.bony_check(grid, trials, seed),
        "sym_decomp": lambda: checks.sym_decomp_check(grid, min(trials, 25), seed),
        "cancellation": lambda: checks.cancellation_ensemble(grid, trials, seed),
        "transport": lambda: checks.transport_cancellation_check(grid, trials, seed),
        "commutator": lambda: checks.commutator_estimate_check(grid, trials, seed),
        "neg_index": lambda: checks.neg_index_check(grid, -0.5, trials, seed),
        "product_law": lambda: checks.product_law_check(
            grid, 0.5, 0.5, trials, seeds=(seed, seed + 1, seed + 2)),
        "linf_interp": lambda: checks.linf_interp_check(grid, 0.5, trials, seed),
        "force_estimate": lambda: checks.force_estimate_check(
            grid, CHECK_PARAMS, 0.5, trials, seed),
    }
    names = list(registry) if args.name == "all" else [args.name]
    unknown = [nm for nm in names if nm not in registry]
    if unknown:
        raise SystemExit(f"error: unknown check(s) {unknown}; choose from {list(registry)}")
    reports = [registry[nm]() for nm in names]
    for rep in reports:
        print(rep)
    if args.csv:
        _write_reports(Path(args.csv), reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_norms(args: argparse.Namespace) -> int:
    try:
        grid, _, state = read_snapshot(args.snapshot)
    except OSError as err:
        raise SystemExit(f"error: {err}")
    try:
        s, p, r = (float(x) for x in args.spec.split(","))
    except ValueError:
        raise SystemExit(f"error: --spec must be 's,p,r', got {args.spec!r}")
    if not (math.isfinite(s) and p >= 1 and r >= 1):
        raise SystemExit(f"error: --spec needs a finite s and p, r >= 1 (p, r may be inf), "
                         f"got {args.spec!r}")
    spec = NormSpec(s, p, r)
    part = shared_partition(grid)
    print(f"t={state.t:.17g}")
    print(f"besov_u={part.besov_norm(state.u, spec):.17g}")
    print(f"besov_q={part.besov_norm(state.q, spec):.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qflow",
                                 description="Pseudo-spectral Q-tensor flow solver and "
                                             "verification harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="advance a configured run and store diagnostics")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twin", help="run a state and its perturbed twin")
    p.add_argument("config")
    p.add_argument("--eps", type=float, required=True, help="perturbation amplitude")
    p.add_argument("--seed", type=int, default=0, help="perturbation seed")
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("analyze", help="run trajectory-level checks on a stored run")
    p.add_argument("rundir")
    p.add_argument("--check", default="all",
                   help="energy, lp_bound, osgood or all (default)")
    p.add_argument("--s", type=float, default=0.5, help="regularity index for osgood")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="stateless identity/estimate ensembles")
    p.add_argument("name", help="check name or 'all'")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=64, help="grid points per axis")
    p.add_argument("--csv", default=None, help="write reports to this CSV path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("norms", help="Besov norms of a stored snapshot")
    p.add_argument("snapshot")
    p.add_argument("--spec", default="0.5,2,2", help="s,p,r (r may be 'inf')")
    p.set_defaults(func=cmd_norms)
    return ap


def main(argv: list[str] | None = None) -> int:
    _set_heap_policy()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
