import csv
import ctypes
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
import types
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import cli, config, dyadic, snapshots, spectral
from qflow.cli import main
from qflow.config import (MAX_STEPS, ConfigError, build_initial_state, parse_config, taylor_green,
                          uniaxial_wave)
from qflow.dyadic import DyadicPartition
from qflow.qtensor import ModelParams, State
from qflow.snapshots import (SeriesWriter, SnapshotError, read_series, read_snapshot,
                             write_snapshot)
from qflow.spectral import Grid, random_velocity
from qflow.qtensor import random_qtensor
from qflow.timestepping import BandError, TimeConfig, _band_limited, run

PARAMS = """
[params]
a = -0.2
b = 0.8
c = 1.0
gamma = 0.8
nu = 0.25
L = 0.4
"""

MINIMAL = """
[grid]
n = 32
""" + PARAMS


def full_config(outdir, n=32, extra=""):
    return f"""
[grid]
n = {n}
""" + PARAMS + f"""
[time]
dt = 0.005
t_end = 0.05

[init]
preset = random_spectrum
seed = 5
amplitude_u = 0.4
amplitude_q = 0.3
kmax = 6

[output]
dir = {outdir}
{extra}
"""


# -- config parsing ----------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.time.cfl == 0.4
    assert cfg.time.scheme == "if-rk2"
    assert cfg.time.dt == "auto"
    assert cfg.length == pytest.approx(2 * math.pi)
    assert cfg.preset == "random_spectrum"
    assert cfg.params.n_cutoff is None


def test_config_rejects_nonpositive_c():
    text = MINIMAL.replace("c = 1.0", "c = -1.0")
    with pytest.raises(ConfigError, match="c must be positive"):
        parse_config(text)


def test_config_rejects_unknown_key():
    text = MINIMAL + "\n[params]\n" if False else MINIMAL.replace("L = 0.4", "L = 0.4\nxi = 0.1")
    with pytest.raises(ConfigError, match="xi"):
        parse_config(text)


def test_config_errors_carry_line_numbers():
    text = MINIMAL.replace("b = 0.8", "b == 0.8")
    with pytest.raises(ConfigError, match=r"line \d+"):
        parse_config(text)


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[physics]\nz = 1\n")


def test_config_rejects_duplicate_and_missing():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "\n[params]\na = 1.0\n" if False
                     else MINIMAL.replace("a = -0.2", "a = -0.2\na = 0.3"))
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config("[grid]\nn = 32\n")


def test_config_rejects_bad_grid():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(MINIMAL.replace("n = 32", "n = 33"))
    # n / 3 of a 1101-bit n used to overflow a float: OverflowError, not ConfigError
    for n in (2**17, 2**1100):
        with pytest.raises(ConfigError, match=r"line 3: grid n must be a power of two in \[8, 65536\]"):
            parse_config(MINIMAL.replace("n = 32", f"n = {n}"))


def test_grid_size_cap_holds_on_every_path(monkeypatch):
    # Grid refuses n > MAX_N before it builds a table, so `qflow check`
    # stops with the same cap as the config; a table at 2^17 would take 68 GB
    def refuse(n):
        raise AssertionError(f"lattice tables built at n = {n}")

    monkeypatch.setattr(spectral, "_lattice_index", refuse)
    cap = r"grid size must be a power of two in \[8, 65536\], got 131072"
    assert config.MAX_N == spectral.MAX_N == 2**16
    with pytest.raises(ValueError, match=cap):
        Grid(2 * spectral.MAX_N)
    with pytest.raises(SystemExit, match="error: " + cap):
        main(["check", "partition", "--n", "131072"])


def test_config_probe_parsing():
    cfg = parse_config(MINIMAL + "\n[output]\nprobes = hs:0.5, hs:1.0\n")
    assert cfg.hs_probes == (0.5, 1.0)
    with pytest.raises(ConfigError, match="unknown probe"):
        parse_config(MINIMAL + "\n[output]\nprobes = l33t\n")
    with pytest.raises(ConfigError, match="snapshot_stride"):
        parse_config(MINIMAL + "\n[output]\nsnapshot_stride = 0\n")


def test_check_exit_code_on_failure(monkeypatch):
    from qflow import checks

    monkeypatch.setattr(checks, "partition_unity_check",
                        lambda grid: checks.Report("partition_unity", False, 0.0))
    assert main(["check", "partition", "--n", "32"]) == 1


def test_check_csv_into_missing_directory_fails_before_any_check(tmp_path, monkeypatch, capsys):
    from qflow import checks

    monkeypatch.setattr(checks, "partition_unity_check",
                        lambda grid: pytest.fail("a check ran before the CSV path was checked"))
    missing = tmp_path / "missing" / "reports.csv"
    with pytest.raises(SystemExit, match=r"^error: --csv .*missing.* does not exist$"):
        main(["check", "all", "--n", "32", "--trials", "1", "--seed", "0", "--csv", str(missing)])
    assert capsys.readouterr().out == ""
    assert not missing.parent.exists()


def test_cli_check_rejects_bad_grid_and_threads(monkeypatch):
    with pytest.raises(SystemExit, match="error: grid size must be a power of two"):
        main(["check", "partition", "--n", "12"])
    monkeypatch.setenv("QFLOW_THREADS", "x")
    with pytest.raises(SystemExit, match="error: QFLOW_THREADS"):
        main(["check", "partition", "--n", "16"])


def test_fft_workers_env(monkeypatch):
    from qflow.spectral import fft_workers

    monkeypatch.setenv("QFLOW_THREADS", "2")
    assert fft_workers() == 2
    monkeypatch.setenv("QFLOW_THREADS", "0")
    with pytest.raises(ValueError):
        fft_workers()
    monkeypatch.setenv("QFLOW_THREADS", "many")
    with pytest.raises(ValueError):
        fft_workers()


def test_grid_resolves_threads_once(monkeypatch):
    monkeypatch.setenv("QFLOW_THREADS", "2")
    g = Grid(16)
    assert g.workers == 2
    monkeypatch.setenv("QFLOW_THREADS", "1")
    assert Grid(16) == g  # the thread count is not part of a grid's identity
    monkeypatch.setenv("QFLOW_THREADS", "0")
    g.irfft(g.rfft(np.zeros((16, 16))))  # the stored count, not the environment
    with pytest.raises(ValueError, match="QFLOW_THREADS"):
        Grid(16)


def test_presets():
    g = Grid(32)
    u = taylor_green(g, 0.7)
    assert g.divergence_residual(g.rfft(u)) <= 1e-12
    q = uniaxial_wave(g, 0.5)
    assert q.shape == (5, 32, 32) and np.abs(q[0]).max() == 0.0

    cfg = parse_config(MINIMAL + "\n[init]\npreset = taylor_green\n")
    st = build_initial_state(cfg, g)
    assert np.abs(st.q).max() == 0.0 and np.abs(st.u).max() > 0.0


# -- snapshots -----------------------------------------------------------------------


def random_state(n=32, seed=0):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    return g, State(0.4 * random_velocity(g, rng), 0.3 * random_qtensor(g, rng), t=0.25)


def test_snapshot_roundtrip_byte_exact(tmp_path):
    g, st = random_state()
    p = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    path = tmp_path / "s.qtns"
    write_snapshot(path, g, p, st)
    g2, p2, st2 = read_snapshot(path)
    assert g2.n == g.n and g2.length == g.length
    assert p2 == p
    assert np.array_equal(st2.u, st.u) and np.array_equal(st2.q, st.q) and st2.t == st.t
    path2 = tmp_path / "s2.qtns"
    write_snapshot(path2, g2, p2, st2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_truncated(tmp_path):
    g, st = random_state()
    p = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    path = tmp_path / "s.qtns"
    write_snapshot(path, g, p, st)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SnapshotError, match="short read"):
        read_snapshot(path)


def test_snapshot_bad_magic(tmp_path):
    g, st = random_state()
    p = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    path = tmp_path / "s.qtns"
    write_snapshot(path, g, p, st)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(path)


def test_snapshot_divergence_flagged(tmp_path):
    g, st = random_state()
    x, _ = g.nodes()
    st.u[0] += 0.5 * np.cos(x)  # injects divergence -0.5 sin x
    p = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    path = tmp_path / "s.qtns"
    write_snapshot(path, g, p, st)
    with pytest.raises(SnapshotError, match="divergence"):
        read_snapshot(path)


def write_raw_snapshot(path, n=16, length=2 * np.pi, c=1.0, body=None):
    """A snapshot file made from its header fields, with a zero body unless one is given."""
    body = np.zeros((7, n, n)) if body is None else body
    header = snapshots._HEADER.pack(snapshots.MAGIC, snapshots.VERSION, n, length, 0.0,
                                    -0.2, 0.8, c, 0.8, 0.25, 0.4)
    path.write_bytes(header + body.astype("<f8").tobytes())


@pytest.mark.parametrize("header, pattern", [
    (dict(n=12), "grid size must be a power of two"),
    (dict(c=-1.0), "bulk coefficient c must be positive"),
    (dict(length=float("nan")), "period must be positive"),
], ids=["n", "c", "len"])
def test_snapshot_refuses_bad_header_values(tmp_path, header, pattern):
    # a header that Grid or ModelParams refuses used to escape as a bare
    # ValueError, so that `qflow norms` ended in a traceback
    path = tmp_path / "s.qtns"
    write_raw_snapshot(path, **header)
    with pytest.raises(SnapshotError, match=f"{re.escape(str(path))}: {pattern}"):
        read_snapshot(path)
    with pytest.raises(SystemExit, match=f"error: {re.escape(str(path))}: {pattern}"):
        main(["norms", str(path)])


@pytest.mark.parametrize("plane", [0, 4], ids=["u", "q"])
def test_snapshot_refuses_non_finite_body(tmp_path, plane):
    # a NaN body used to read without error (the divergence test nan > DIV_TOL
    # is False), and `qflow norms` printed nan norms with exit code 0
    body = np.zeros((7, 16, 16))
    body[plane, 3, 5] = np.nan
    path = tmp_path / "s.qtns"
    write_raw_snapshot(path, body=body)
    with pytest.raises(SnapshotError, match=f"{re.escape(str(path))}: non-finite"):
        read_snapshot(path)
    with pytest.raises(SystemExit, match="error: .*non-finite"):
        main(["norms", str(path)])


# -- CSV series ------------------------------------------------------------------------


def write_series(path, times, series):
    """Hand a series to a SeriesWriter row by row."""
    with closing(SeriesWriter(path)) as rows:
        for i, t in enumerate(times):
            rows.row(t, {name: column[i] for name, column in series.items()})


def test_series_roundtrip_exact(tmp_path):
    t = np.array([0.0, 1.0 / 3.0])
    series = {"a": np.array([1.0, math.pi]), "b": np.array([-1e-17, 2.0**0.5])}
    path = tmp_path / "s.csv"
    write_series(path, t, series)
    t2, s2 = read_series(path)
    assert np.array_equal(t, t2)
    for k in series:
        assert np.array_equal(series[k], s2[k])


def test_series_single_sample_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    write_series(path, np.array([0.5]), {"x": np.array([2.0])})
    assert path.read_text().count("\n") == 2


def test_series_empty_rejected(tmp_path):
    # a writer closed before its first row leaves no file, and a header
    # without rows does not read as a series; the refusal is the only output
    path = tmp_path / "e.csv"
    write_series(path, np.array([]), {})
    assert not path.exists()
    path.write_text("t,x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty series"):
            read_series(path)


def test_series_writer_without_grid_refuses_states(tmp_path):
    # a writer made for rows alone has no grid or params to put in a
    # snapshot header: as a run's sink it names them, not an AttributeError
    g = Grid(16)
    init = State(np.zeros((2, 16, 16)), random_qtensor(g, np.random.default_rng(0), kmax=4))
    p = parse_config(MINIMAL).params
    path = tmp_path / "s.csv"
    for writer, missing in ((SeriesWriter(path), "grid and params"),
                            (SeriesWriter(path, grid=g), "params"),
                            (SeriesWriter(path, params=p), "grid")):
        with closing(writer) as sink, pytest.raises(ValueError, match=(
                f"{re.escape(str(path))}: a snapshot needs the {missing} this")):
            run(g, init, p, TimeConfig(dt=1e-3, t_end=2e-3), sink=sink)
    with closing(SeriesWriter(path, g, p)) as sink:
        run(g, init, p, TimeConfig(dt=1e-3, t_end=2e-3), sink=sink)
    assert read_snapshot(tmp_path / "final.qtns")[2].t == 2e-3


def test_series_row_columns_must_match_header(tmp_path):
    # a row under another header would be written misaligned: it is refused,
    # naming the file and the column, and the rows before it stay readable
    path = tmp_path / "m.csv"
    for bad in ({"b": 1.0, "a": 2.0}, {"a": 1.0}, {"a": 1.0, "b": 2.0, "c": 3.0},
                {"a": 1.0, "x": 2.0}):
        with closing(SeriesWriter(path)) as rows:
            rows.row(0.0, {"a": 1.0, "b": 2.0})
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*column"):
                rows.row(1.0, bad)
        times, cols = read_series(path)
        assert list(times) == [0.0] and list(cols) == ["a", "b"]


# -- CLI ---------------------------------------------------------------------------------


def test_cli_simulate_deterministic(tmp_path):
    cfg1 = tmp_path / "r1.cfg"
    cfg1.write_text(full_config(tmp_path / "out1"))
    cfg2 = tmp_path / "r2.cfg"
    cfg2.write_text(full_config(tmp_path / "out2"))
    assert main(["simulate", str(cfg1)]) == 0
    assert main(["simulate", str(cfg2)]) == 0
    s1 = (tmp_path / "out1" / "series.csv").read_bytes()
    s2 = (tmp_path / "out2" / "series.csv").read_bytes()
    assert s1 == s2
    f1 = (tmp_path / "out1" / "final.qtns").read_bytes()
    f2 = (tmp_path / "out2" / "final.qtns").read_bytes()
    assert f1 == f2


def test_cli_analyze_and_norms(tmp_path):
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    cfg.write_text(full_config(out, extra="probes = hs:0.5\n"))
    assert main(["simulate", str(cfg)]) == 0
    assert main(["analyze", str(out), "--check", "all", "--s", "0.5"]) == 0
    assert (out / "reports.csv").exists()
    assert main(["norms", str(out / "final.qtns"), "--spec", "0.5,2,2"]) == 0
    assert main(["norms", str(out / "final.qtns"), "--spec=-0.5,inf,inf"]) == 0


@pytest.mark.parametrize("t_end, rows", [(0.0, 1), (0.01, 2)])
def test_cli_analyze_refuses_short_series(tmp_path, t_end, rows):
    # the trajectory checks difference the series in time: fewer than 3 rows
    # is refused with one error naming the file, not a numpy traceback
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    text = full_config(out, n=16, extra="probes = hs:0.5\n")
    for old, new in (("kmax = 6", "kmax = 4"), ("dt = 0.005", "dt = 0.01"),
                     ("t_end = 0.05", f"t_end = {t_end}")):
        text = text.replace(old, new)
    cfg.write_text(text)
    assert main(["simulate", str(cfg)]) == 0
    assert len(read_series(out / "series.csv")[0]) == rows
    for check in ("all", "energy", "lp_bound", "osgood"):
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(out / 'series.csv'))}: "
                                             rf"{rows} rows, at least 3 needed$"):
            main(["analyze", str(out), "--check", check])
    assert not (out / "reports.csv").exists()


def test_cli_twin(tmp_path):
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    cfg.write_text(full_config(out))
    assert main(["twin", str(cfg), "--eps", "1e-4", "--seed", "3"]) == 0
    assert (out / "twin_eps0.0001_seed3.csv").exists()


def test_cli_twin_blow_up_aborts(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    text = full_config(out).replace("a = -0.2", "a = -5.0").replace("gamma = 0.8", "gamma = 2.0")
    text = text.replace("dt = 0.005", "dt = 2.0").replace("t_end = 0.05", "t_end = 200.0")
    cfg.write_text(text.replace("amplitude_q = 0.3", "amplitude_q = 2.0"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["twin", str(cfg), "--eps", "1e-3"]) == 1
    # the energy guard, which twin runs share with simulate, trips before the
    # state leaves the finite range
    assert "ABORT energy guard tripped" in capsys.readouterr().err
    assert (out / "twin_eps0.001_seed0.csv").exists()  # partial series flushed


def _src_env() -> dict[str, str]:
    """The environment with this tree's src first on PYTHONPATH, for a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_cli_simulate_aborts_auto_dt_run_past_max_steps(tmp_path):
    # amplitude_u = 1e8 passes parse_config, which cannot see max|u|, but the
    # first auto step is about 1.6e-9, so t_end = 1 would take about 6.4e8
    # steps: the run aborts before its first step and flushes row 0
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    text = full_config(out, n=16).replace("kmax = 6", "kmax = 4")
    text = text.replace("dt = 0.005", "dt = auto").replace("t_end = 0.05", "t_end = 1.0")
    cfg.write_text(text.replace("amplitude_u = 0.4", "amplitude_u = 1e8"))
    res = subprocess.run([sys.executable, "-m", "qflow.cli", "simulate", str(cfg)], env=_src_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 1
    assert f"ABORT run needs more than MAX_STEPS = {MAX_STEPS:.0e} steps at t=0" in res.stderr
    times, series = read_series(out / "series.csv")
    assert list(times) == [0.0] and series["max_u"][0] > 1e7


def test_cli_snapshots_named_by_step(tmp_path, capsys):
    # stored times 0, 1e-7, ..., 4e-7 agree to 6 decimals; a name made from
    # the time kept one file of the five, a name made from the step keeps all
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    text = full_config(out, n=16, extra="snapshot_stride = 1\n").replace("kmax = 6", "kmax = 4")
    cfg.write_text(text.replace("dt = 0.005", "dt = 1e-7").replace("t_end = 0.05", "t_end = 5e-7"))
    assert main(["simulate", str(cfg)]) == 0
    times, _ = read_series(out / "series.csv")
    assert len(times) == 6
    names = sorted(p.name for p in out.glob("snap_*.qtns"))
    assert names == [f"snap_k{k:09d}.qtns" for k in range(5)]
    for k, name in enumerate(names):
        assert read_snapshot(out / name)[2].t == times[k]
        capsys.readouterr()
        assert main(["norms", str(out / name)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"t={times[k]:.17g}"
    assert read_snapshot(out / "final.qtns")[2].t == times[-1]


def test_cli_killed_run_keeps_its_output(tmp_path):
    # rows and snapshots leave the run as it makes them: a run killed part-way
    # leaves a readable series prefix and every snapshot that prefix took
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    stride = 2
    text = full_config(out, n=16, extra=f"snapshot_stride = {stride}\n").replace("kmax = 6", "kmax = 4")
    cfg.write_text(text.replace("dt = 0.005", "dt = 1e-4").replace("t_end = 0.05", "t_end = 100.0"))
    series = out / "series.csv"
    proc = subprocess.Popen([sys.executable, "-m", "qflow.cli", "simulate", str(cfg)],
                            env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (series.exists() and series.read_text().count("\n") >= 4):
            assert proc.poll() is None, "the run ended before it was killed"
            assert time.monotonic() < deadline, "no 3 rows within 60 s"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    times, cols = read_series(series)
    assert len(times) >= 3 and np.all(np.isfinite(cols["energy"]))
    for k in range(0, len(times), stride):
        _, _, state = read_snapshot(out / f"snap_k{k:09d}.qtns")
        assert state.t == times[k]
    assert not (out / "final.qtns").exists()


def test_cli_killed_twin_keeps_its_rows(tmp_path):
    # twin rows leave the run one row after they are made, chi included: a
    # twin killed part-way leaves a readable series prefix and no snapshot
    cfg = tmp_path / "r.cfg"
    out = tmp_path / "out"
    text = full_config(out, n=16).replace("kmax = 6", "kmax = 4")
    cfg.write_text(text.replace("dt = 0.005", "dt = 1e-4").replace("t_end = 0.05", "t_end = 100.0"))
    series = out / "twin_eps0.001_seed0.csv"
    proc = subprocess.Popen([sys.executable, "-m", "qflow.cli", "twin", str(cfg), "--eps", "1e-3"],
                            env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (series.exists() and series.read_text().count("\n") >= 4):
            assert proc.poll() is None, "the run ended before it was killed"
            assert time.monotonic() < deadline, "no 3 rows within 60 s"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    times, cols = read_series(series)
    assert len(times) >= 3 and list(cols)[-1] == "chi"
    assert np.all(np.isfinite(cols["chi"])) and np.all(cols["chi"][cols["phi"] > 0] != 0.0)
    assert not list(out.glob("*.qtns"))


def test_cli_simulate_memory_flat_in_steps(tmp_path):
    # no row or state is held for the end of the run: the traced peak of a
    # run of 4N steps is that of N steps (the parent held 1.5 kB per step)
    import contextlib
    import io
    import tracemalloc

    cfg = tmp_path / "r.cfg"
    text = full_config(tmp_path / "out", n=8, extra="probes = hs:0.5\n").replace("kmax = 6", "kmax = 2")

    def simulate(steps: int) -> None:
        cfg.write_text(text.replace("dt = 0.005", "dt = 0.001").replace(
            "t_end = 0.05", f"t_end = {steps * 0.001!r}"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(cfg)]) == 0

    simulate(3)  # caches and imports outside the measurement
    peaks = []
    tracemalloc.start()
    try:
        for steps in (200, 800):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def restart_config(tmp_path, snap, grid_lines):
    return full_config(tmp_path / "out").replace("[grid]\nn = 32", grid_lines).replace(
        "preset = random_spectrum", f"snapshot = {snap}")


def test_restart_builds_one_grid(tmp_path, monkeypatch):
    # the snapshot is read on the command's own grid; the band view is no
    # second Grid either
    g, st = random_state(n=32)
    snap = tmp_path / "s.qtns"
    write_snapshot(snap, g, ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4), st)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(restart_config(tmp_path, snap, "[grid]\nn = 32"))
    built = []
    post_init = Grid.__post_init__
    monkeypatch.setattr(Grid, "__post_init__", lambda self: built.append(self.n) or post_init(self))
    assert main(["simulate", str(cfg)]) == 0
    assert built == [32]


def test_restart_rejects_other_grid(tmp_path):
    g, st = random_state(n=16)
    p = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    snap = tmp_path / "s.qtns"
    write_snapshot(snap, g, p, st)
    same = parse_config(restart_config(tmp_path, snap, "[grid]\nn = 16"))
    assert np.array_equal(build_initial_state(same, Grid(16)).u, st.u)
    for lines, pattern in (("[grid]\nn = 32", "n=16 .* n=32"), ("[grid]\nn = 16\nlen = 3.0", "len=3.0")):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(restart_config(tmp_path, snap, lines))
        with pytest.raises(ConfigError, match=pattern):
            build_initial_state(parse_config(cfg.read_text()), Grid(16))
        for command in (["simulate", str(cfg)], ["twin", str(cfg), "--eps", "1e-4"]):
            with pytest.raises(SystemExit, match=f"error: snapshot .*{pattern}"):
                main(command)


def test_config_band_guard(tmp_path):
    # the random_spectrum band must be non-empty and inside the dealias band
    # n/3; each rejection names its line
    text = full_config(tmp_path / "out")  # n = 32
    k = text.splitlines().index("kmax = 6") + 1
    assert parse_config(text).kmax == 6.0
    assert parse_config(text.replace("kmax = 6", "kmax = 10.5")).kmax == 10.5  # <= 32/3
    for line, pattern in (("kmax = 11", rf"line {k}: .*kmax = 11 must lie in \[1, n/3\]"),
                          ("kmax = 0.5", rf"line {k}: .*kmax = 0.5"),
                          ("kmax = -1", rf"line {k}: .*kmax = -1"),
                          ("kmax = nan", rf"line {k}: .*kmax = nan"),
                          ("kmax = 6\nkmin = 7", rf"line {k + 1}: .*kmin = 7 exceeds kmax = 6")):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(text.replace("kmax = 6", line))
    # kmax defaults to n/4 = 8, which kmin = 9 empties
    with pytest.raises(ConfigError, match=rf"line {k}: .*kmin = 9 exceeds kmax = 8"):
        parse_config(text.replace("kmax = 6", "kmin = 9"))
    # other presets and snapshots do not draw from the band
    assert parse_config(text.replace("kmax = 6", "kmax = 40").replace(
        "preset = random_spectrum", "preset = taylor_green")).kmax == 40.0
    assert parse_config(restart_config(tmp_path, tmp_path / "s.qtns", "[grid]\nn = 16")).kmax == 6.0


@pytest.mark.parametrize("old, new", [
    ("n = 32", "n = 32\nlen = inf"),
    ("dt = 0.005", "dt = inf"),
    ("t_end = 0.05", "t_end = inf"),
    ("t_end = 0.05", "t_end = nan"),
    ("a = -0.2", "a = nan"),
    ("c = 1.0", "c = inf"),
    ("amplitude_u = 0.4", "amplitude_u = nan"),
    ("amplitude_q = 0.3", "amplitude_q = inf"),
    ("kmax = 6", "kmax = 6\ndecay = nan"),
    ("[output]", "[output]\nprobes = hs:abc"),
    ("[output]", "[output]\nprobes = hs:nan"),
])
def test_config_rejects_non_finite_values(tmp_path, old, new):
    # every float key is cast to a finite float; each rejection names its line
    text = full_config(tmp_path / "out").replace(old, new)
    k = text.splitlines().index(new.splitlines()[-1]) + 1
    with pytest.raises(ConfigError, match=rf"line {k}: .*finite"):
        parse_config(text)


def test_config_rejects_run_without_end(tmp_path):
    # t_end = 1e300 with a fixed dt used to pass, and the run went on until killed
    text = full_config(tmp_path / "out")
    k = text.splitlines().index("t_end = 0.05") + 1
    with pytest.raises(ConfigError, match=rf"line {k}: .*t_end / dt = 2e\+302 steps exceeds"):
        parse_config(text.replace("t_end = 0.05", "t_end = 1e300"))
    # without a t_end line (default 1.0) the error names the dt line
    text = text.replace("t_end = 0.05\n", "").replace("dt = 0.005", "dt = 1e-9")
    k = text.splitlines().index("dt = 1e-9") + 1
    with pytest.raises(ConfigError, match=rf"line {k}: .*t_end / dt = 1e\+09 steps exceeds"):
        parse_config(text)
    assert parse_config(text.replace("dt = 1e-9", f"dt = {1 / MAX_STEPS!r}")).time.dt == 1e-8
    assert parse_config(text.replace("dt = 1e-9", "dt = auto")).time.dt == "auto"


def test_config_rejects_auto_dt_run_without_end(tmp_path):
    # an auto step is at most cfl * len / n, so t_end = 1e300 with dt = auto
    # takes at least 1e300 / (0.4 * 2 pi / 32) steps; it used to run until killed
    text = full_config(tmp_path / "out").replace("dt = 0.005", "dt = auto")
    k = text.splitlines().index("t_end = 0.05") + 1
    with pytest.raises(ConfigError,
                       match=rf"line {k}: .*t_end / \(cfl \* len / n\) = 1\.273e\+301 steps"):
        parse_config(text.replace("t_end = 0.05", "t_end = 1e300"))
    # with the default t_end the error names the cfl line, then the len line
    text = text.replace("t_end = 0.05\n", "")
    k = text.splitlines().index("[time]") + 3
    with pytest.raises(ConfigError, match=rf"line {k}: .*exceeds the limit"):
        parse_config(text.replace("dt = auto", "dt = auto\ncfl = 1e-9"))
    k = text.splitlines().index("n = 32") + 2
    with pytest.raises(ConfigError, match=rf"line {k}: .*exceeds the limit"):
        parse_config(text.replace("n = 32", "n = 32\nlen = 1e-9"))
    # the bulk-reaction cap 1 / (gamma |a|) bounds the auto step too: with
    # a = 1e12 a run used to go on until killed
    k = text.splitlines().index("a = -0.2") + 1
    with pytest.raises(ConfigError, match=rf"line {k}: .*t_end \* gamma \* \|a\| = 8e\+11 steps"):
        parse_config(text.replace("a = -0.2", "a = 1e12"))
    limit = MAX_STEPS * 0.4 * 2 * math.pi / 32
    assert parse_config(text.replace("dt = auto", f"dt = auto\nt_end = {limit / 2!r}"))


@pytest.mark.parametrize("old, new, pattern", [
    ("c = 1.0", "c = -2.0", "c must be positive"),
    ("nu = 0.25", "nu = 0", "nu must be positive"),
    ("L = 0.4", "L = 0.4\nn_cutoff = 0", "n_cutoff must be >= 1"),
    ("dt = 0.005", "dt = -0.1", "dt must be positive"),
    ("t_end = 0.05", "t_end = 0.05\ncfl = 1.5", "cfl must lie in"),
    ("t_end = 0.05", "t_end = -1", "t_end must be >= 0"),
    ("t_end = 0.05", "t_end = 0.05\nscheme = dt", "unknown scheme 'dt'"),
])
def test_config_value_refusals_name_their_line(tmp_path, old, new, pattern):
    # the [params] and [time] refusals used to name only their section
    text = full_config(tmp_path / "out").replace(old, new)
    k = text.splitlines().index(new.splitlines()[-1]) + 1
    with pytest.raises(ConfigError, match=rf"^line {k}: .*{pattern}"):
        parse_config(text)


_VALID = {
    "grid": {"n": "16", "len": "6.28"},
    "params": {"a": "-0.2", "b": "0.8", "c": "1.0", "gamma": "0.8", "nu": "0.25", "L": "0.4"},
    "time": {"dt": "0.01", "t_end": "0.05"},
    "init": {"preset": "random_spectrum", "seed": "1", "kmax": "4"},
    "output": {"dir": "out", "probes": "hs:0.5"},
}
_KEYS = sorted((section, key) for section, keys in config._SCHEMA.items() for key in keys)
_ODD_VALUES = ["", "nan", "-nan", "inf", "+inf", "-inf", "0", "-0", "-1", "-1e-300", "5e-324",
               "1e-300", "1e300", "1e308", "1e400", str(2**64), str(2**1100), "1" + "0" * 30,
               "auto", "abc", "1,2", "hs:", "hs:nan", "hs:1e400", "hs:-2, hs:x", "0x10", "1_0",
               "random_spectrum", "taylor_green", "uniaxial_wave", "if-rk2", "=", "[time]"]
_VALUES = st.one_of(
    st.sampled_from(_ODD_VALUES),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
)

_STATE_KEYS = [("grid", "len"), ("init", "amplitude_u"), ("init", "amplitude_q"),
               ("init", "kmin"), ("init", "decay")]
_FINITE = st.one_of(
    st.sampled_from(["0", "-1", "0.5", "1e-300", "5e-324", "1e160", "1e308", "-1e300"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def config_texts(draw):
    """A valid config with any preset, the initial state's keys set to finite
    numbers of any size, some keys replaced by odd values, some dropped, and
    maybe one garbage line."""
    entries = {(section, key): value for section, keys in _VALID.items()
               for key, value in keys.items()}
    for key in draw(st.sets(st.sampled_from(sorted(entries)), max_size=2)):
        del entries[key]
    entries.update(draw(st.dictionaries(st.sampled_from(_STATE_KEYS), _FINITE, max_size=3)))
    entries[("init", "preset")] = draw(st.sampled_from(config.PRESETS))
    entries.update(draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5)
                        | st.just({})))
    lines = []
    for section in config._SCHEMA:
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for (sec, key), value in entries.items() if sec == section]
    garbage = draw(st.none() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20))
    if garbage is not None:
        lines.insert(draw(st.integers(0, len(lines))), garbage)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(config_texts())
def test_parse_config_fuzz(text):
    # a config either parses into a run that ends, or is refused with a
    # ConfigError that names a line (or the section of a missing key)
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        msg = str(err)
        line = re.match(r"line (\d+): ", msg)
        assert line or re.fullmatch(r"missing required key '\w+' in section \[\w+\]", msg), msg
        if line:
            assert 1 <= int(line.group(1)) <= len(text.splitlines())
        return
    step = cfg.time.dt
    if step == "auto":  # the largest step Stepper.auto_dt can take
        react = cfg.params.gamma * abs(cfg.params.a)
        step = min(cfg.time.cfl * cfg.length / cfg.n, 1 / react if react else math.inf)
    assert cfg.time.t_end == 0 or cfg.time.t_end / step <= MAX_STEPS
    if cfg.n > 32 or cfg.snapshot is not None:
        return
    # the run starts: its initial state has a finite energy, or is refused
    # as `simulate` and `twin` refuse it
    try:
        with np.errstate(all="ignore"):
            grid = Grid(cfg.n, cfg.length)
            uh, qh = _band_limited(grid, build_initial_state(cfg, grid))
    except BandError as err:
        assert "non-finite energy" in str(err) or "dealias band" in str(err), err
        return
    except ValueError as err:
        assert "is out of range" in str(err), err
        return
    assert math.isfinite(float((grid.band.power_hat(uh) + grid.band.power_hat(qh)).sum()))


@pytest.mark.parametrize("spec", ["0.5,0,2", "nan,2,2", "inf,2,2", "0.5,nan,2", "0.5,2,0.5"])
def test_cli_norms_rejects_bad_spec(tmp_path, spec):
    g, st = random_state(n=16)
    snap = tmp_path / "s.qtns"
    write_snapshot(snap, g, ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4), st)
    with pytest.raises(SystemExit, match="error: --spec needs a finite s and p, r >= 1"):
        main(["norms", str(snap), f"--spec={spec}"])


@pytest.mark.parametrize("eps", ["nan", "inf", "-1e-3"])
def test_cli_twin_rejects_bad_eps(tmp_path, eps):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(full_config(tmp_path / "out"))
    with pytest.raises(SystemExit, match="error: --eps must be a finite number >= 0"):
        main(["twin", str(cfg), f"--eps={eps}"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new", [
    ("kmax = 6", "kmax = 6\ndecay = -1e300"),
    ("amplitude_q = 0.3", "amplitude_q = 1e308"),
    ("preset = random_spectrum\nseed = 5\namplitude_u = 0.4",
     "preset = taylor_green\nseed = 5\namplitude_u = 1e308"),
    ("n = 32", "n = 32\nlen = 5e-324"),
], ids=["decay", "amplitude_q", "taylor_green", "len"])
def test_cli_refuses_non_finite_initial_state(tmp_path, old, new):
    # these configs parse, and used to abort at the first step (or end in a
    # traceback, for len) after flushing a NaN series
    cfg = tmp_path / "r.cfg"
    cfg.write_text(full_config(tmp_path / "out").replace(old, new))
    with np.errstate(all="ignore"):
        for command in (["simulate", str(cfg)], ["twin", str(cfg), "--eps", "1e-4"]):
            with pytest.raises(SystemExit, match="error: (initial state has a non-finite energy"
                                                 "|period 5e-324 is out of range)"):
                main(command)
    assert not any((tmp_path / "out").glob("*.csv"))


def test_cli_rejects_out_of_band_snapshot(tmp_path):
    # n = 16 with kmax = 6 > 16/3: about 1e-2 of the energy lies past the
    # dealias band, and both stepping commands refuse it before a step
    g = Grid(16)
    rng = np.random.default_rng(0)
    st = State(0.4 * random_velocity(g, rng, kmax=6, decay=2.0),
               0.3 * random_qtensor(g, rng, kmax=6, decay=2.0))
    snap = tmp_path / "wide.qtns"
    write_snapshot(snap, g, ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4), st)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(restart_config(tmp_path, snap, "[grid]\nn = 16"))
    for command in (["simulate", str(cfg)], ["twin", str(cfg), "--eps", "1e-4"]):
        with pytest.raises(SystemExit, match="error: initial state has .* outside the dealias band"):
            main(command)
    assert not (tmp_path / "out" / "series.csv").exists()


@pytest.mark.parametrize("name", ["all", "bony", "neg_index"])
def test_cli_check_rejects_nonpositive_trials(name, capsys):
    # no verdict without a trial: --trials 0 used to end in a traceback and
    # --trials -3 in a vacuous PASS
    for trials in ("0", "-3"):
        with pytest.raises(SystemExit, match=f"error: --trials must be >= 1, got {trials}"):
            main(["check", name, "--n", "16", "--trials", trials])
    assert "PASS" not in capsys.readouterr().out


def test_cli_refuses_negative_seed(tmp_path, capsys):
    # both used to end in numpy's "expected non-negative integer" traceback
    with pytest.raises(SystemExit, match="error: --seed must be >= 0, got -1"):
        main(["check", "bony", "--n", "16", "--trials", "1", "--seed", "-1"])
    cfg = tmp_path / "r.cfg"
    cfg.write_text(full_config(tmp_path / "out"))
    with pytest.raises(SystemExit, match="error: --seed must be >= 0, got -1"):
        main(["twin", str(cfg), "--eps", "1e-3", "--seed", "-1"])
    assert not (tmp_path / "out").exists()
    assert "PASS" not in capsys.readouterr().out


def test_cli_norms_uses_shared_partition(tmp_path, monkeypatch):
    g, st = random_state(n=16)
    snap = tmp_path / "s.qtns"
    write_snapshot(snap, g, ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4), st)
    dyadic._partition.cache_clear()
    assert main(["norms", str(snap)]) == 0
    monkeypatch.setattr(DyadicPartition, "__post_init__", lambda self: pytest.fail("rebuilt"))
    assert main(["norms", str(snap), "--spec", "1,2,2"]) == 0


def test_cli_reports_csv_columns(tmp_path):
    path = tmp_path / "rep.csv"
    main(["check", "all", "--n", "32", "--trials", "2", "--csv", str(path)])
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 10 and all(len(row) == len(header) for row in rows)
    by_check = {row[0]: dict(zip(header, row)) for row in rows}
    assert by_check["partition_unity"]["inputs"].endswith("q=[0,4]")
    assert float(by_check["partition_unity"]["measured_max_dev"]) <= 1e-12
    assert by_check["product_law_s0.5_t0.5"]["inputs"].startswith("trials=2 seeds=(0, 1, 2)")
    assert path.read_bytes().count(b"\r") == 0


def test_cli_check_all_builds_one_partition(monkeypatch):
    # the eight checks that use dyadic blocks share one partition per grid
    built = []
    post_init = DyadicPartition.__post_init__

    def counted(self):
        built.append(self.grid.n)
        post_init(self)

    monkeypatch.setattr(DyadicPartition, "__post_init__", counted)
    dyadic._partition.cache_clear()
    main(["check", "all", "--n", "16", "--trials", "2"])
    assert built == [16]


def test_cli_check_subset(tmp_path):
    assert main(["check", "partition", "--n", "64"]) == 0
    assert main(["check", "cancellation", "--trials", "5", "--n", "32",
                 "--csv", str(tmp_path / "rep.csv")]) == 0
    assert (tmp_path / "rep.csv").exists()


def test_cli_error_paths(tmp_path):
    with pytest.raises(SystemExit):
        main(["check", "nonexistent_check"])
    with pytest.raises(SystemExit):
        main(["analyze", str(tmp_path / "missing")])
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("c = 1.0", "c = -2.0"))
    with pytest.raises(SystemExit, match="c must be positive"):
        main(["simulate", str(bad)])


def _fresh_python(code: str) -> str:
    """The last line that code prints, run in a new interpreter importing qflow from src."""
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_graph_skips_scipy_integrate():
    # every qflow command imports qflow.cli; scipy.integrate would pull in scipy.optimize
    code = ("import sys, qflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'integrate'], ['scipy', 'optimize'])))")
    assert _fresh_python(code) == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy uses glibc's mallopt")
def test_cli_heap_policy_stops_refaulting():
    # A fresh process, so that pytest's own heap cannot hide the result.  After
    # one warm round, 10 rounds of three 8 MiB arrays took about 10k minor
    # faults under glibc's default policy (each array a fresh mmap) and none
    # once the command line has set its policy.
    code = """
import resource
import numpy as np
import qflow.cli

def churn():
    arrays = [np.ones(1 << 20) for _ in range(3)]
    del arrays

qflow.cli.main(["check", "partition", "--n", "16", "--trials", "1"])
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(_fresh_python(code)) < 100


def test_cli_heap_policy_order_and_fallback(monkeypatch):
    calls = []

    def libc(accepts):
        def mallopt(param, value):
            calls.append((param, value))
            return int(accepts)
        return lambda name: types.SimpleNamespace(mallopt=mallopt)

    argv = ["check", "partition", "--n", "16", "--trials", "1"]
    monkeypatch.setattr(ctypes, "CDLL", libc(True))
    assert main(argv) == 0
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 256 << 20)]
    # a refused mmap threshold leaves the trim threshold unset: alone, it
    # would switch off glibc's dynamic mmap threshold
    calls.clear()
    monkeypatch.setattr(ctypes, "CDLL", libc(False))
    assert main(argv) == 0
    assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20)]
    # no glibc, or a libc without mallopt: nothing is set and the command runs
    for error in (OSError, AttributeError):
        def unavailable(name, error=error):
            raise error(name)
        monkeypatch.setattr(ctypes, "CDLL", unavailable)
        assert main(argv) == 0
