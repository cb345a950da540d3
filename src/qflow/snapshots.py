"""Binary state snapshots, full-precision CSV norm series and the CSV writer.

Snapshot layout (little-endian, no padding):

    magic   4s   b"QTNS"
    version u16  1
    n       u32  points per axis
    len     f64  period
    time    f64  state time
    params  6*f64  a, b, c, gamma, nu, L
    body    (2 + 5) * n*n * f64  u planes then Q planes, row-major

Round trips are byte-exact; reads validate the magic, version, length and
the spectral divergence of u.
"""

from __future__ import annotations

import csv
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .qtensor import ModelParams, State
from .spectral import Grid

MAGIC = b"QTNS"
VERSION = 1
_HEADER = struct.Struct("<4sHIdd6d")
#: Largest relative divergence residual of a readable snapshot's velocity.
DIV_TOL = 1e-8


class SnapshotError(IOError):
    """Corrupt, truncated or inconsistent snapshot file."""


def write_snapshot(path: str | Path, grid: Grid, params: ModelParams, state: State) -> None:
    header = _HEADER.pack(
        MAGIC, VERSION, grid.n, grid.length, state.t,
        params.a, params.b, params.c, params.gamma, params.nu, params.L,
    )
    body = np.ascontiguousarray(
        np.concatenate([state.u, state.q], axis=0), dtype="<f8"
    ).tobytes()
    Path(path).write_bytes(header + body)


def read_snapshot(path: str | Path) -> tuple[Grid, ModelParams, State]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: short read (header truncated)")
    magic, version, n, length, time, a, b, c, gamma, nu, ell = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 7 * n * n * 8
    if len(raw) < expected:
        raise SnapshotError(f"{path}: short read ({len(raw)} of {expected} bytes)")
    if len(raw) > expected:
        raise SnapshotError(f"{path}: trailing bytes ({len(raw) - expected})")

    planes = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(7, n, n).copy()
    grid = Grid(n, length)
    params = ModelParams(a=a, b=b, c=c, gamma=gamma, nu=nu, L=ell)
    state = State(planes[:2], planes[2:], time)
    resid = grid.divergence_residual(grid.rfft(state.u))
    if resid > DIV_TOL:
        raise SnapshotError(f"{path}: velocity divergence {resid:.3e} exceeds {DIV_TOL:g}")
    return grid, params, state


def emit_series(path: str | Path, times: np.ndarray, series: dict[str, np.ndarray]) -> None:
    """CSV with header `t,<names...>` at full float64 precision."""
    if len(times) == 0:
        raise ValueError("refusing to write an empty series")
    names = list(series)
    for name in names:
        if len(series[name]) != len(times):
            raise ValueError(f"series {name!r} length mismatch")
    write_csv(path, ["t", *names], ([f"{t:.17g}"] + [f"{series[name][i]:.17g}" for name in names]
                                    for i, t in enumerate(times)))


def write_csv(path: str | Path, header: list[str], rows: Iterable[list[object]]) -> None:
    """Write a header and rows; fields holding commas or quotes are quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_series(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValueError(f"{path}: malformed series header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: empty series")
    times = data[:, 0]
    return times, {name: data[:, j + 1] for j, name in enumerate(header[1:])}
