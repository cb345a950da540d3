"""Binary state snapshots, the %.17g CSV series writer (a run's sink) and reader, and write_csv.

Snapshot layout (little-endian, no padding):

    magic   4s   b"QTNS"
    version u16  1
    n       u32  points per axis
    len     f64  period
    time    f64  state time
    params  6*f64  a, b, c, gamma, nu, L
    body    (2 + 5) * n*n * f64  u planes then Q planes, row-major

Round trips are byte-exact; reads validate the magic, version, length, the
grid and parameters of the header, the finiteness of time and body, and
the spectral divergence of u.  A reader that has its grid checks the
header against it before anything is built.
"""

from __future__ import annotations

import csv
import struct
from collections.abc import Iterable
from itertools import zip_longest
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


class GridMismatchError(SnapshotError):
    """A snapshot on another grid than the reader's; carries the header's n and length."""

    def __init__(self, path: str | Path, n: int, length: float, grid: Grid):
        super().__init__(f"{path}: grid n={n} len={length!r}, "
                         f"but the reader's grid has n={grid.n} len={grid.length!r}")
        self.n, self.length = n, length


def write_snapshot(path: str | Path, grid: Grid, params: ModelParams, state: State) -> None:
    header = _HEADER.pack(
        MAGIC, VERSION, grid.n, grid.length, state.t,
        params.a, params.b, params.c, params.gamma, params.nu, params.L,
    )
    body = np.ascontiguousarray(
        np.concatenate([state.u, state.q], axis=0), dtype="<f8"
    ).tobytes()
    Path(path).write_bytes(header + body)


def read_snapshot(path: str | Path, grid: Grid | None = None) -> tuple[Grid, ModelParams, State]:
    """Grid, parameters and state of a snapshot.

    With grid given, a header on another n or len raises GridMismatchError
    before the body is read into planes, and grid is returned; without
    one, the header's grid is built.
    """
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
    if grid is not None and (n, length) != (grid.n, grid.length):
        raise GridMismatchError(path, n, length, grid)

    planes = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(7, n, n).copy()
    try:
        grid = Grid(n, length) if grid is None else grid
        params = ModelParams(a=a, b=b, c=c, gamma=gamma, nu=nu, L=ell)
    except ValueError as err:
        raise SnapshotError(f"{path}: {err}") from None
    if not (np.isfinite(planes).all() and np.isfinite(time)):
        raise SnapshotError(f"{path}: non-finite time or field values")
    state = State(planes[:2], planes[2:], time)
    resid = grid.divergence_residual(grid.rfft(state.u))
    if resid > DIV_TOL:
        raise SnapshotError(f"{path}: velocity divergence {resid:.3e} exceeds {DIV_TOL:g}")
    return grid, params, state


class SeriesWriter:
    """Writes a series row by row, each a flushed %.17g CSV line; the file and
    its header `t,<names...>` are made at the first row, and a row with other
    names raises ValueError.  As a run's sink (see timestepping.Trajectory)
    it also writes the state after k steps next to path, as
    snap_k<k, 9 digits>.qtns or, the last, final.qtns; that needs the grid
    and params, and a writer made without them raises ValueError."""

    def __init__(self, path: Path, grid: Grid | None = None, params: ModelParams | None = None):
        self.path, self.grid, self.params = Path(path), grid, params
        self.rows, self.first, self.last, self._fh = 0, None, None, None

    def row(self, t: float, values: dict[str, float]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", newline="", buffering=1)  # line-buffered
            self._csv = csv.writer(self._fh, lineterminator="\n")
            self._csv.writerow(["t", *values])
            self.names = tuple(values)
        elif tuple(values) != self.names:
            got, want = next((a, b) for a, b in zip_longest(values, self.names) if a != b)
            raise ValueError(f"{self.path}: a row has column {got!r} where the header has {want!r}")
        self._csv.writerow([f"{t:.17g}", *(f"{v:.17g}" for v in values.values())])
        self.rows, self.first, self.last = self.rows + 1, self.first or (t, values), (t, values)

    def state(self, k: int, s: State, last: bool) -> None:
        missing = " and ".join(name for name in ("grid", "params") if getattr(self, name) is None)
        if missing:
            raise ValueError(f"{self.path}: a snapshot needs the {missing} this SeriesWriter "
                             "was made without")
        name = "final.qtns" if last else f"snap_k{k:09d}.qtns"
        write_snapshot(self.path.parent / name, self.grid, self.params, s)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def write_csv(path: str | Path, header: list[str], rows: Iterable[list[object]]) -> None:
    """Write a header and rows; fields holding commas or quotes are quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_series(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Times and named columns of a SeriesWriter CSV; %.17g reads back exactly."""
    header, *rows = Path(path).read_text().split("\n")
    names = header.strip().split(",")
    if names[0] != "t":
        raise ValueError(f"{path}: malformed series header")
    if not any(row.strip() for row in rows):  # before loadtxt, which warns on no data
        raise ValueError(f"{path}: empty series")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    return data[:, 0], {name: data[:, j + 1] for j, name in enumerate(names[1:])}
