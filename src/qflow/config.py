"""Sectioned key = value run configuration with line-anchored errors,
plus the initial-condition presets."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .qtensor import ModelParams, State, random_qtensor
from .spectral import MAX_N, Grid, random_velocity
from .timestepping import MAX_STEPS, TimeConfig


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_SCHEMA: dict[str, set[str]] = {
    "grid": {"n", "len"},
    "params": {"a", "b", "c", "gamma", "nu", "L", "n_cutoff"},
    "time": {"dt", "t_end", "cfl", "scheme"},
    "init": {"preset", "snapshot", "seed", "amplitude_u", "amplitude_q",
             "kmin", "kmax", "decay"},
    "output": {"dir", "snapshot_stride", "probes"},
}

_REQUIRED: tuple[tuple[str, str], ...] = (
    ("grid", "n"),
    ("params", "a"), ("params", "b"), ("params", "c"),
    ("params", "gamma"), ("params", "nu"), ("params", "L"),
)

PRESETS = ("taylor_green", "uniaxial_wave", "random_spectrum")


@dataclass
class RunConfig:
    """Validated configuration for one simulation or twin run."""

    n: int
    length: float
    params: ModelParams
    time: TimeConfig
    preset: str = "random_spectrum"
    snapshot: str | None = None
    seed: int = 0
    amplitude_u: float = 0.5
    amplitude_q: float = 0.5
    kmin: float = 1.0
    kmax: float | None = None
    decay: float = 2.0
    out_dir: str = "."
    snapshot_stride: int = 100
    hs_probes: tuple[float, ...] = field(default_factory=tuple)


def _parse_sections(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        entries[(section, key)] = (value, lineno)
    return entries


def _finite(text: str) -> float:
    """The cast of every float key: float(text), refusing nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_KINDS = {int: "an integer", _finite: "a finite number"}


def _get(entries, section, key, cast, default=None):
    if (section, key) not in entries:
        return default
    value, lineno = entries[(section, key)]
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"line {lineno}: cannot parse [{section}] {key} = {value} "
                          f"as {_KINDS[cast]}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned-text configuration."""
    entries = _parse_sections(text)
    for section, key in _REQUIRED:
        if (section, key) not in entries:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")

    n = _get(entries, "grid", "n", int)
    length = _get(entries, "grid", "len", _finite, 2.0 * math.pi)
    if not 8 <= n <= MAX_N or (n & (n - 1)) != 0:
        lineno = entries[("grid", "n")][1]
        raise ConfigError(f"line {lineno}: grid n must be a power of two in [8, {MAX_N}], "
                          f"got {n}")
    if not length > 0:
        lineno = entries[("grid", "len")][1]
        raise ConfigError(f"line {lineno}: grid len must be positive")

    kwargs = {k: _get(entries, "params", k, _finite) for k in ("a", "b", "c", "gamma", "nu", "L")}
    n_cutoff = _get(entries, "params", "n_cutoff", int)
    try:
        params = ModelParams(n_cutoff=n_cutoff, **kwargs)
    except ValueError as err:
        raise _refused(entries, "params", err)

    dt = _get(entries, "time", "dt", str, "auto")
    if dt != "auto":
        dt = _get(entries, "time", "dt", _finite)
    try:
        tc = TimeConfig(
            dt=dt,
            t_end=_get(entries, "time", "t_end", _finite, 1.0),
            cfl=_get(entries, "time", "cfl", _finite, 0.4),
            scheme=_get(entries, "time", "scheme", str, "if-rk2"),
        )
    except ValueError as err:
        raise _refused(entries, "time", err)
    react = params.gamma * abs(params.a)
    if tc.dt != "auto":
        step, ratio, culprits = tc.dt, "t_end / dt", [("time", "t_end"), ("time", "dt")]
    elif react * tc.cfl * length > n:  # the bulk-reaction cap binds
        step, ratio = 1.0 / react, "t_end * gamma * |a|"
        culprits = [("time", "t_end"), ("params", "a"), ("params", "gamma")]
    else:
        step, ratio = tc.cfl * length / n, "t_end / (cfl * len / n)"
        culprits = [("time", "t_end"), ("time", "cfl"), ("grid", "len")]
    steps = tc.t_end / step if step > 0 else math.inf
    if tc.t_end > 0 and steps > MAX_STEPS:
        lineno = next(entries[key][1] for key in culprits if key in entries)
        raise ConfigError(f"line {lineno}: [time] {ratio} = {steps:.4g} steps "
                          f"exceeds the limit of {MAX_STEPS:.0e}")

    preset = _get(entries, "init", "preset", str, "random_spectrum")
    if preset not in PRESETS:
        lineno = entries[("init", "preset")][1]
        raise ConfigError(f"line {lineno}: unknown preset {preset!r}; choose from {PRESETS}")
    snapshot = _get(entries, "init", "snapshot", str)
    kmin = _get(entries, "init", "kmin", _finite, 1.0)
    kmax = _get(entries, "init", "kmax", _finite)
    if preset == "random_spectrum" and snapshot is None:
        _check_band(entries, n, kmin, n / 4.0 if kmax is None else kmax)

    seed = _get(entries, "init", "seed", int, 0)
    if seed < 0:
        lineno = entries[("init", "seed")][1]
        raise ConfigError(f"line {lineno}: [init] seed must be >= 0, got {seed}")

    stride = _get(entries, "output", "snapshot_stride", int, 100)
    if stride < 1:
        lineno = entries[("output", "snapshot_stride")][1]
        raise ConfigError(f"line {lineno}: snapshot_stride must be >= 1")

    probes_raw = _get(entries, "output", "probes", str, "")
    hs: list[float] = []
    for tok in filter(None, (tok.strip() for tok in probes_raw.split(","))):
        lineno = entries[("output", "probes")][1]
        if not tok.startswith("hs:"):
            raise ConfigError(f"line {lineno}: unknown probe {tok!r} (expected 'hs:<s>')")
        try:
            hs.append(_finite(tok[3:]))
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse probe {tok!r}: s must be a finite number")

    return RunConfig(
        n=n,
        length=length,
        params=params,
        time=tc,
        preset=preset,
        snapshot=snapshot,
        seed=seed,
        amplitude_u=_get(entries, "init", "amplitude_u", _finite, 0.5),
        amplitude_q=_get(entries, "init", "amplitude_q", _finite, 0.5),
        kmin=kmin,
        kmax=kmax,
        decay=_get(entries, "init", "decay", _finite, 2.0),
        out_dir=_get(entries, "output", "dir", str, "."),
        snapshot_stride=stride,
        hs_probes=tuple(hs),
    )


def _refused(entries, section: str, err: ValueError) -> ConfigError:
    """The ConfigError for a value that section's dataclass refused, naming
    the line of the first of the section's keys in err's message."""
    named = [(match.start(), lineno) for (sec, key), (_, lineno) in entries.items()
             if sec == section and (match := re.search(rf"\b{key}\b", str(err)))]
    if not named:
        return ConfigError(f"section [{section}]: {err}")
    return ConfigError(f"line {min(named)[1]}: [{section}] {err}")


def _check_band(entries, n: int, kmin: float, kmax: float) -> None:
    """The random_spectrum band kmin <= |k| <= kmax must be non-empty and
    inside the dealias band, kmax <= n/3, so that the first products do not
    alias.  Only a configured value can fail: the default n/4 passes."""
    if not 1.0 <= kmax <= n / 3.0:
        lineno = entries[("init", "kmax")][1]
        raise ConfigError(f"line {lineno}: [init] kmax = {kmax:g} must lie in [1, n/3] = "
                          f"[1, {n / 3.0:.4g}] (defaults to n/4)")
    if not kmin <= kmax:
        lineno = entries[("init", "kmin")][1]
        raise ConfigError(f"line {lineno}: [init] kmin = {kmin:g} exceeds kmax = {kmax:g}, "
                          "so the band is empty")


# -- initial-condition presets ------------------------------------------------------


def taylor_green(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """Solenoidal single-cell vortex (sin x cos y, -cos x sin y), scaled to the box."""
    x, y = grid.nodes()
    w = 2.0 * math.pi / grid.length
    return amplitude * np.stack([np.sin(w * x) * np.cos(w * y),
                                 -np.cos(w * x) * np.sin(w * y)])


def uniaxial_wave(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """Q = s(x) (e3.e3 - Id/3) with a band-limited modulation s."""
    x, y = grid.nodes()
    w = 2.0 * math.pi / grid.length
    s = amplitude * (np.cos(w * x) + 0.5 * np.sin(2.0 * w * y))
    q = np.zeros((5, grid.n, grid.n))
    q[1] = -math.sqrt(2.0 / 3.0) * s  # e3.e3 - Id/3 = -sqrt(2/3) E2
    return q


def build_initial_state(cfg: RunConfig, grid: Grid) -> State:
    """Materialize the configured initial condition on the grid."""
    if cfg.snapshot is not None:
        from .snapshots import GridMismatchError, read_snapshot

        state = None
        try:  # read on the caller's grid: no second Grid is built
            state = read_snapshot(cfg.snapshot, grid)[2]
            snap = (grid.n, grid.length)
        except GridMismatchError as err:
            snap = (err.n, err.length)
        if state is None or snap != (cfg.n, cfg.length):
            raise ConfigError(
                f"snapshot {cfg.snapshot} has grid n={snap[0]} len={snap[1]!r}, "
                f"but [grid] sets n={cfg.n} len={cfg.length!r}")
        return state
    if cfg.preset == "taylor_green":
        return State(taylor_green(grid, cfg.amplitude_u), np.zeros((5, grid.n, grid.n)))
    if cfg.preset == "uniaxial_wave":
        return State(np.zeros((2, grid.n, grid.n)), uniaxial_wave(grid, cfg.amplitude_q))
    rng = np.random.default_rng(cfg.seed)
    u = cfg.amplitude_u * random_velocity(grid, rng, cfg.kmin, cfg.kmax, cfg.decay)
    q = cfg.amplitude_q * random_qtensor(grid, rng, cfg.kmin, cfg.kmax, cfg.decay)
    return State(u, q)
