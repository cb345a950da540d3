"""The four benchmark workloads: seeded inputs, the qflow commands of one
invocation, operation accounting and output checks.

Every check here is made apart from the program: the benchmark reads the
files qflow wrote with its own parsers and recomputes what it compares
with numpy, or tests a property the method must have.  Nothing is compared
against stored output.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Fixed time step 2^-8: exactly representable, so t_end = steps * DT is
#: reached in exactly `steps` steps on every seed, and well inside the CFL
#: bound at n <= 256 for the amplitudes below.
DT = 2.0 ** -8
PARAMS = {"a": -0.2, "b": 0.8, "c": 1.0, "gamma": 0.8, "nu": 0.25, "L": 0.4}
AMPLITUDE_U = 0.4
AMPLITUDE_Q = 0.3
TWIN_EPS = (1e-4, 1e-5)

#: Output-check tolerances (see README.md for the measured values).
ENERGY_RESIDUAL_BOUND = 2e-3   # max |balance residual| / max |balance terms|
ENERGY_MATCH_TOL = 1e-11       # series energy vs numpy.fft energy of final.qtns
DIV_TOL = 1e-10                # max |k.u_hat| / (max |u_hat| max |k|)
MEAN_TOL = 1e-12               # |mean u| / max |u|
EPS_SCALING_TOL = 1e-2         # |Phi(eps) / (100 Phi(eps/10)) - 1|

QTNS_HEADER = struct.Struct("<4sHIdd6d")  # magic, version, n, len, t, a b c gamma nu L
MEMBER1 = ("u1_l22", "q1_l22", "gu1_l22", "gq1_l22", "lq1_l22")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; `kind` selects the qflow subcommand."""

    name: str
    kind: str                      # "simulate", "twin" or "check"
    n: int
    why: str
    steps: int = 0                 # time steps per qflow run
    kmax: float = 6.0              # spectral band of the seeded data (lattice units)
    n_cutoff: int | None = None    # Friedrichs annulus index
    restart: bool = False          # start from a benchmark-written snapshot
    snapshot_stride: int = 100
    probes: str = ""
    trials: int = 0                # `qflow check --trials`
    rounds: int = 1                # command rounds per worker process

    @property
    def ops(self) -> int:
        """Operations per invocation: time steps, twin steps or checks."""
        if self.kind == "twin":
            return self.steps * len(TWIN_EPS)
        return 10 if self.kind == "check" else self.steps


WORKLOADS = {w.name: w for w in (
    Workload("sim-128", "simulate", 128, steps=4, rounds=16, probes="hs:0.5",
             why="simulate at 128^2 from the seeded preset with hs probes: step and probe path"),
    Workload("sim-256-cut", "simulate", 256, steps=4, rounds=3, n_cutoff=8, restart=True,
             snapshot_stride=2,
             why="Friedrichs branch, planes past L2, snapshot read and write at 256^2"),
    Workload("twin-64", "twin", 64, steps=8, rounds=8,
             why="twin runs at eps and eps/10 at 64^2: many small transforms per step"),
    Workload("check-128", "check", 128, trials=5, rounds=4,
             why="qflow check all at 128^2 where BASELINES bind: no time stepping"),
)}


# -- inputs ---------------------------------------------------------------------------


def _wavenumbers(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    idx = np.fft.fftfreq(n, 1.0 / n)
    k = idx * (2.0 * math.pi / length)
    return np.meshgrid(k, k, indexing="ij")


def _band_field(rng: np.random.Generator, n: int, kmax: float, count: int) -> np.ndarray:
    """count real planes with power-law (k^-2) amplitude on 1 <= |k| <= kmax."""
    k1, k2 = _wavenumbers(n, 2.0 * math.pi)
    kmag = np.hypot(k1, k2)[:, : n // 2 + 1]
    amp = np.where((kmag >= 1.0) & (kmag <= kmax), np.maximum(kmag, 1.0) ** -2.0, 0.0)
    phase = rng.uniform(0.0, 2.0 * math.pi, (count, n, n // 2 + 1))
    return np.fft.irfft2(amp * np.exp(1j * phase), s=(n, n)) * n * n


def write_restart_snapshot(path: Path, wl: Workload, seed: int) -> None:
    """Seeded QTNS v1 snapshot: stream-function velocity (divergence-free on
    the lattice) and five band-limited Q planes, scaled to the run amplitudes."""
    n = wl.n
    rng = np.random.default_rng([seed, n])
    psi_hat = np.fft.rfft2(_band_field(rng, n, wl.kmax, 1)[0])
    k1, k2 = (k[:, : n // 2 + 1] for k in _wavenumbers(n, 2.0 * math.pi))
    u = np.fft.irfft2(np.stack([1j * k2 * psi_hat, -1j * k1 * psi_hat]), s=(n, n))
    u *= AMPLITUDE_U / np.sqrt(np.sum(u * u, axis=0)).max()
    q = _band_field(rng, n, wl.kmax, 5)
    q *= AMPLITUDE_Q / np.sqrt(np.sum(q * q, axis=0)).max()
    p = PARAMS
    header = QTNS_HEADER.pack(b"QTNS", 1, n, 2.0 * math.pi, 0.0,
                              p["a"], p["b"], p["c"], p["gamma"], p["nu"], p["L"])
    path.write_bytes(header + np.ascontiguousarray(np.concatenate([u, q]), "<f8").tobytes())


def config_text(wl: Workload, seed: int, out_dir: str, snapshot: str | None) -> str:
    lines = ["[grid]", f"n = {wl.n}", "[params]"]
    lines += [f"{k} = {v!r}" for k, v in PARAMS.items()]
    if wl.n_cutoff is not None:
        lines.append(f"n_cutoff = {wl.n_cutoff}")
    lines += ["[time]", f"dt = {DT!r}", f"t_end = {wl.steps * DT!r}", "[init]"]
    if snapshot is not None:
        lines.append(f"snapshot = {snapshot}")
    else:
        lines += ["preset = random_spectrum", f"seed = {seed}", f"amplitude_u = {AMPLITUDE_U}",
                  f"amplitude_q = {AMPLITUDE_Q}", f"kmax = {wl.kmax:g}", "decay = 2.0"]
    lines += ["[output]", f"dir = {out_dir}", f"snapshot_stride = {wl.snapshot_stride}"]
    if wl.probes:
        lines.append(f"probes = {wl.probes}")
    return "\n".join(lines) + "\n"


def commands(wl: Workload, seed: int, config: str, out_dir: str) -> list[list[str]]:
    """qflow argument lists of one invocation."""
    if wl.kind == "simulate":
        return [["simulate", config]]
    if wl.kind == "twin":
        return [["twin", config, "--eps", repr(eps), "--seed", str(seed)] for eps in TWIN_EPS]
    return [["check", "all", "--n", str(wl.n), "--trials", str(wl.trials), "--seed", str(seed),
             "--csv", f"{out_dir}/reports.csv"]]


# -- outputs --------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows as the exact text qflow wrote."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_series(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def read_qtns(path: Path) -> tuple[float, np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    magic, _, n, length, _, *_ = QTNS_HEADER.unpack_from(raw)
    if magic != b"QTNS":
        raise ValueError(f"{path}: not a QTNS snapshot")
    planes = np.frombuffer(raw, "<f8", offset=QTNS_HEADER.size).reshape(7, n, n)
    return length, planes[:2], planes[2:]


def energy_residual(s: dict[str, np.ndarray]) -> float:
    """Relative residual of the documented discrete energy balance

        d/dt[|u|^2 + |Q|^2 + L|grad Q|^2] + 2 nu |grad u|^2 + 2 gamma L |grad Q|^2
          + 2 gamma L^2 |lap Q|^2 - 2 gamma <P(Q), Q - L lap Q> = 0,

    with d/dt by second-order numpy finite differences, as max |residual|
    over the sum of the magnitudes of the balance's terms."""
    p = PARAMS
    e = s["l2_u2"] + s["l2_q2"] + p["L"] * s["gradq2"]
    terms = [2 * p["nu"] * s["gradu2"], 2 * p["gamma"] * p["L"] * s["gradq2"],
             2 * p["gamma"] * p["L"] ** 2 * s["lapq2"], -2 * p["gamma"] * s["pq_q"],
             2 * p["gamma"] * p["L"] * s["pq_lapq"]]
    resid = np.gradient(e, s["t"], edge_order=2) + sum(terms)
    return float(np.abs(resid).max() / sum(np.abs(t) for t in terms).max())


def numpy_energy(length: float, u: np.ndarray, q: np.ndarray) -> float:
    """|u|^2 + |Q|^2 + L |grad Q|^2 with numpy.fft and the lattice quadrature."""
    n = u.shape[-1]
    area = (length / n) ** 2
    k1, k2 = _wavenumbers(n, length)
    qh = np.fft.fft2(q)
    grad2 = float(np.sum((k1**2 + k2**2) * np.abs(qh) ** 2)) * area / n**2
    return float(np.sum(u * u)) * area + float(np.sum(q * q)) * area + PARAMS["L"] * grad2


def divergence_and_mean(length: float, u: np.ndarray) -> tuple[float, float]:
    k1, k2 = _wavenumbers(u.shape[-1], length)
    uh = np.fft.fft2(u)
    div = np.abs(k1 * uh[0] + k2 * uh[1]).max() / (np.abs(uh).max() * np.hypot(k1, k2).max())
    mean = np.abs(u.mean(axis=(-2, -1))).max() / np.abs(u).max()
    return float(div), float(mean)


def twin_files(out: Path, seed: int) -> list[Path]:
    return [out / f"twin_eps{eps:g}_seed{seed}.csv" for eps in TWIN_EPS]


def output_files(wl: Workload, out: Path, seed: int) -> list[Path]:
    """The files whose bytes define the invocation's final state."""
    if wl.kind == "simulate":
        return [out / "final.qtns"]
    if wl.kind == "twin":
        return twin_files(out, seed)
    return [out / "reports.csv"]


def state_hash(wl: Workload, out: Path, seed: int) -> str | None:
    h = hashlib.sha256()
    for path in output_files(wl, out, seed):
        if not path.is_file():
            return None
        h.update(path.read_bytes())
    return h.hexdigest()


def count_failed(wl: Workload, out: Path, seed: int, results: list[dict]) -> int:
    """Operations of one invocation that failed.

    A simulate run that aborts flushes a series with the steps it reached; a
    twin run that raises reports the time of the failing step.  Unreached
    steps count as failed.  For check, every FAIL verdict and every check
    that produced no verdict counts as failed.
    """
    if wl.kind == "check":
        path = out / "reports.csv"
        if not path.is_file():
            return wl.ops
        header, rows = read_csv(path)
        return wl.ops - sum(1 for r in rows if r[header.index("passed")] == "1")
    paths = [out / "series.csv"] if wl.kind == "simulate" else twin_files(out, seed)
    failed = 0
    for path, res in zip(paths, results + [{}] * len(paths)):
        if res.get("rc") == 0:
            continue
        if res.get("blowup_t") is not None and wl.kind == "twin":
            reached = round(res["blowup_t"] / DT) - 1
        else:
            reached = len(read_csv(path)[1]) - 1 if path.is_file() else 0
        failed += wl.steps - min(max(reached, 0), wl.steps - 1)
    return failed


def check_outputs(wl: Workload, out: Path, seed: int, returncodes: list[int]) -> dict[str, tuple[bool, str]]:
    """Named output checks of one invocation: name -> (passed, measured detail)."""
    res: dict[str, tuple[bool, str]] = {}
    expected = len(TWIN_EPS) if wl.kind == "twin" else 1
    res["cli_exit_0"] = (len(returncodes) == expected and all(rc == 0 for rc in returncodes),
                         f"returncodes={returncodes}")
    if wl.kind == "simulate":
        series = read_series(out / "series.csv")
        rel = energy_residual(series)
        res["energy_balance"] = (rel <= ENERGY_RESIDUAL_BOUND,
                                 f"rel_residual={rel:.3e} bound={ENERGY_RESIDUAL_BOUND:g}")
        length, u, q = read_qtns(out / "final.qtns")
        e_np = numpy_energy(length, u, q)
        gap = abs(series["energy"][-1] - e_np) / e_np
        res["energy_numpy_fft"] = (gap <= ENERGY_MATCH_TOL, f"rel_gap={gap:.3e}")
        div, mean = divergence_and_mean(length, u)
        res["velocity_divergence_free"] = (div <= DIV_TOL, f"rel_div={div:.3e}")
        res["velocity_mean_zero"] = (mean <= MEAN_TOL, f"rel_mean={mean:.3e}")
    elif wl.kind == "twin":
        big, small = (read_csv(p) for p in twin_files(out, seed))
        phi = [float(rows[-1][hdr.index("phi")]) for hdr, rows in (big, small)]
        ratio = phi[0] / phi[1] if phi[1] > 0 else math.inf
        res["eps2_scaling"] = (abs(ratio / 100.0 - 1.0) <= EPS_SCALING_TOL,
                               f"phi_ratio={ratio:.6f} target=100 tol={EPS_SCALING_TOL:g}")
        cols = ("t",) + MEMBER1
        same = [[r[hdr.index(c)] for c in cols] for hdr, rows in (big, small) for r in rows]
        half = len(same) // 2
        res["member1_bitwise"] = (half > 0 and same[:half] == same[half:],
                                  f"rows={half} columns={','.join(MEMBER1)}")
    else:
        header, rows = read_csv(out / "reports.csv")
        verdicts = {r[header.index("check")]: r[header.index("passed")] == "1" for r in rows}
        res["ten_verdicts_pass"] = (len(verdicts) == 10 and all(verdicts.values()),
                                    f"passed={sum(verdicts.values())}/{len(verdicts)}")
    return res
