"""Time advancement: integrating-factor RK2 stepping, trajectory recording
and twin-run orchestration for the contraction experiment.

The stiff dissipative operators (nu*lap for u, gamma*L*lap for Q) are
integrated exactly in spectral space through the multiplier exp(-c k^2 dt);
everything else is explicit.  One step of the Heun-type scheme:

    k1   = N(U_n)
    U*   = E (U_n + dt k1)
    U_n1 = E U_n + dt/2 (E k1 + N(U*))

which is exact for vanishing N and second order otherwise.  The state is
carried between steps as half-spectrum coefficients: a step takes and
returns (uh, qh), and takes k1 from its caller when the caller has it.
run() evaluates k1 of each state that a step follows by one call of
nonlinear(..., planes=True), whose StatePlanes record (the physical u and
Q and the P(Q) pairings) also feeds that state's probe row, the dt = auto
step, the snapshots and the energy guard; the final state's record is
built by qtensor.state_planes.  twin_run() reads every channel from the
coefficients, and sizes a dt = auto step from member 1's record.

The stepping path relies on the state being in the dealias band (every
mode with max(|k1|, |k2|) <= n/3), where the two-thirds-rule products, and
so the vorticity form of the advection, are exact.  run(), twin_run() and
step() check the initial state once and mask it; the step keeps it in band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicPartition, shared_partition
from .qtensor import ModelParams, State, StatePlanes, nonlinear, state_planes, trace_q2
from .spectral import Grid, random_scalar, random_velocity

# A run aborts once its energy exceeds this multiple of the initial energy.
ENERGY_GUARD = 1e6

#: Most steps a run may take, so that every run ends.  parse_config refuses
#: a config whose t_end / dt, or for dt = auto t_end over the largest step
#: Stepper.auto_dt can take, min(cfl * len / n, 1 / (gamma |a|)), exceeds it;
#: run() and twin_run() abort once the steps taken plus the remaining time
#: over the current step do.
MAX_STEPS = 10**8

# Largest share of an initial state's L^2 energy, |u|^2 + |Q|^2, that may lie
# outside the dealias band; it admits transform roundoff (about 1e-28 for a
# band-limited snapshot at 256^2) and rejects data that would alias.
BAND_GUARD = 1e-20


class BandError(ValueError):
    """Raised when an initial state has a non-finite energy, or more than
    BAND_GUARD of it outside the dealias band."""


class BlowUpError(RuntimeError):
    """Raised when a run leaves the finite/bounded regime.

    Carries the time and diagnostics of the offending step and, when raised
    from run() or twin_run(), the partial (times, series) recorded before
    the abort.  Stepper.step does not know the time and raises with t = nan;
    the loop that owns the clock sets it.
    """

    def __init__(self, message: str, t: float, diagnostics: dict[str, float]):
        super().__init__(message)
        self.message = message
        self.t = t
        self.diagnostics = diagnostics
        self.partial: tuple[np.ndarray, dict[str, np.ndarray]] | None = None

    def __str__(self) -> str:
        return f"{self.message} at t={self.t:.6g}: {self.diagnostics}"


@dataclass(frozen=True)
class TimeConfig:
    """Step size policy and horizon; dt='auto' uses the CFL/bulk-reaction cap."""

    dt: float | str = "auto"
    t_end: float = 1.0
    cfl: float = 0.4
    scheme: str = "if-rk2"

    def __post_init__(self) -> None:
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ValueError(f"dt must be a positive number or 'auto', got {self.dt!r}")
        elif not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.cfl < 1:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.scheme != "if-rk2":
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class Trajectory:
    """Record of one run: sampled scalar diagnostics plus stored states.

    For run() the states are strided snapshots ending with the final one;
    for twin_run() they are the final states of the two members.
    """

    grid: Grid
    params: ModelParams
    times: np.ndarray
    series: dict[str, np.ndarray]
    states: list[State] = field(default_factory=list)


class Stepper:
    """IF-RK2 stepping with cached exponential multipliers."""

    def __init__(self, grid: Grid, params: ModelParams, tc: TimeConfig):
        self.grid = grid
        self.params = params
        self.tc = tc
        self._exp_cache: tuple[float, np.ndarray, np.ndarray] | None = None

    def auto_dt(self, s: State | StatePlanes) -> float:
        """CFL and bulk-reaction cap on dt from the physical planes s.u and s.q."""
        g, p = self.grid, self.params
        h = g.length / g.n
        umax = float(np.sqrt(np.sum(s.u**2, axis=0)).max(initial=0.0))
        dt = self.tc.cfl * h / max(1.0, umax)
        qmax = float(np.sqrt(trace_q2(s.q)).max(initial=0.0))
        react = p.gamma * (abs(p.a) + abs(p.b) * qmax + p.c * qmax**2)
        if react > 0:
            dt = min(dt, 1.0 / react)
        return dt

    def _multipliers(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        if self._exp_cache is not None and self._exp_cache[0] == dt:
            return self._exp_cache[1], self._exp_cache[2]
        g, p = self.grid, self.params
        eu = np.exp(-p.nu * g.ksq * dt)
        eq = np.exp(-p.gamma * p.L * g.ksq * dt)
        self._exp_cache = (dt, eu, eq)
        return eu, eq

    def step(self, uh: np.ndarray, qh: np.ndarray, dt: float,
             k1: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Advance the in-band half-spectrum coefficients (uh, qh) by dt; no transform of the state.

        k1 is nonlinear(uh, qh), evaluated here unless the caller passes it.
        A non-finite result raises BlowUpError carrying max |u|, max |Q| of
        the input state (transformed only on that path) and dt.
        """
        g, p = self.grid, self.params
        eu, eq = self._multipliers(dt)

        k1u, k1q = nonlinear(g, uh, qh, p) if k1 is None else k1
        k2u, k2q = nonlinear(g, eu * (uh + dt * k1u), eq * (qh + dt * k1q), p)

        uh_new = g.leray_hat(eu * (uh + 0.5 * dt * k1u) + 0.5 * dt * k2u)
        uh_new[:, 0, 0] = 0.0
        qh_new = eq * (qh + 0.5 * dt * k1q) + 0.5 * dt * k2q
        if not (np.all(np.isfinite(uh_new)) and np.all(np.isfinite(qh_new))):
            raise BlowUpError(
                "non-finite state",
                np.nan,
                {"max_u": float(np.abs(g.irfft(uh)).max()),
                 "max_q": float(np.abs(g.irfft(qh)).max()), "dt": dt},
            )
        return uh_new, qh_new


def step(grid: Grid, s: State, p: ModelParams, tc: TimeConfig) -> State:
    """Advance one physical state one step; dt resolved from the config (auto uses the CFL bound)."""
    st = Stepper(grid, p, tc)
    dt = st.auto_dt(s) if tc.dt == "auto" else float(tc.dt)
    try:
        uh, qh = st.step(*_band_limited(grid, s), dt)
    except BlowUpError as err:
        err.t = s.t + dt
        raise
    return State(grid.irfft(uh), grid.irfft(qh), s.t + dt)


def _band_limited(grid: Grid, s: State, what: str = "initial state"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (uh, qh) of s, masked to the dealias band.

    Raises BandError when the energy |u|^2 + |Q|^2 is not finite, or more
    than BAND_GUARD of it lies outside the band; both are read from the
    coefficients.
    """
    uh, qh = grid.rfft(s.u), grid.rfft(s.q)
    power = grid.power_hat(uh) + grid.power_hat(qh)
    outside = float(power[~grid.dealias_mask].sum())
    total = float(power.sum())
    if not np.isfinite(total):
        raise BandError(f"{what} has a non-finite energy |u|^2 + |Q|^2 = {total:g}; "
                        "check its amplitudes, decay and len")
    if outside > BAND_GUARD * total:
        raise BandError(
            f"{what} has {outside / total:.3g} of its energy outside the dealias band "
            f"max(|k1|, |k2|) <= n/3 = {grid.n / 3:.4g} (at most {BAND_GUARD:g} allowed); "
            f"band-limit the data to |k| <= n/3")
    return uh * grid.dealias_mask, qh * grid.dealias_mask


# -- diagnostics -----------------------------------------------------------------


def standard_probes(
    grid: Grid, part: DyadicPartition, s: StatePlanes, uh: np.ndarray, qh: np.ndarray,
    p: ModelParams, hs_list: tuple[float, ...] = ()
) -> dict[str, float]:
    """Scalar diagnostic channels for one state, given as its StatePlanes
    record s and its half-spectrum coefficients (uh, qh); transforms nothing.

    Always includes the L^2/H^1-level energy bookkeeping and the L^{2p}
    norms of Q for p in {1, 2, 3}; for every s in hs_list adds the
    Besov-flavored homogeneous-Sobolev channels used by the growth checks.
    Every weighted channel is one sum over the field's power spectrum; the
    P(Q) pairings come from the record's quadratures.
    """
    g = grid
    pu, pq = g.power_hat(uh), g.power_hat(qh)

    out: dict[str, float] = {}
    out["l2_u2"] = g.inner(s.u, s.u)
    out["l2_q2"] = g.inner(s.q, s.q)
    out["gradu2"] = _weighted(pu, g.ksq)
    out["gradq2"] = _weighted(pq, g.ksq)
    out["lapq2"] = _weighted(pq, g.ksq**2)
    out["energy"] = out["l2_u2"] + out["l2_q2"] + p.L * out["gradq2"]
    out["pq_q"] = -p.a * out["l2_q2"] + s.b_q
    out["pq_lapq"] = p.a * out["gradq2"] + s.b_lapq
    for pex in (1, 2, 3):
        out[f"l2p{pex}_q"] = g.norm_lp(s.q, 2 * pex)
    out["max_u"] = float(np.sqrt(np.sum(s.u**2, axis=0)).max(initial=0.0))

    if hs_list:
        out["h2_q"] = float(np.sqrt(max(_weighted(pq, (1.0 + g.ksq) ** 2), 0.0)))
        w1 = part.sobolev_weight(1.0)
        out["h1dot_u2"] = _weighted(pu, w1)
        out["h1dot_gradq2"] = _weighted(pq, w1 * g.ksq)
    for sv in hs_list:
        w = part.sobolev_weight(sv)
        tag = _hs_tag(sv)
        out[f"hs{tag}_u2"] = _weighted(pu, w)
        out[f"hs{tag}_gradq2"] = _weighted(pq, w * g.ksq)
        out[f"hs{tag}_gradu2"] = _weighted(pu, w * g.ksq)
        out[f"hs{tag}_lapq2"] = _weighted(pq, w * g.ksq**2)
    return out


def _weighted(power: np.ndarray, weight: np.ndarray | None = None) -> float:
    """Weighted squared norm from a Grid.power_hat table."""
    return float(np.sum(power if weight is None else power * weight))


def _hs_tag(s: float) -> str:
    return f"{s:g}".replace("-", "m").replace(".", "p")


def run(
    grid: Grid,
    init: State,
    p: ModelParams,
    tc: TimeConfig,
    hs_probes: tuple[float, ...] = (),
    state_stride: int = 0,
) -> Trajectory:
    """Advance to t_end recording every diagnostic channel at every step.

    state_stride > 0 stores every stride-th state (plus initial and final);
    aborting steps flush the partial series into the raised error.  Each
    state that a step follows gets its record and k1 from one nonlinear
    call; row 0, the first auto step and the first stored state read
    init's own physical planes.
    """
    part = shared_partition(grid)
    stepper = Stepper(grid, p, tc)
    uh, qh = _band_limited(grid, init)
    times: list[float] = []
    rows: list[dict[str, float]] = []
    states: list[State] = []
    t, k = init.t, 0
    t_final = init.t + tc.t_end
    while True:
        last = t >= t_final - 1e-12
        if last:
            rec = state_planes(grid, uh, qh, p)
        else:
            *k1, rec = nonlinear(grid, uh, qh, p, planes=True)
        s = init.copy() if k == 0 else State(rec.u, rec.q, t)
        rec.u, rec.q = s.u, s.q  # for row 0, init's own planes
        times.append(t)
        rows.append(standard_probes(grid, part, rec, uh, qh, p, hs_probes))
        e0 = max(rows[0]["energy"], 1e-300)
        _guard_energy(rows[-1]["energy"], e0, t, times, rows)
        if k == 0 or last or (state_stride > 0 and k % state_stride == 0):
            states.append(s)
        if last:
            break
        dt, t = _next_step(stepper, rec, t, init.t, k, t_final, times, rows)
        del rec, s  # keep stage 2's and the next stage 1's peaks free of these planes
        try:
            uh, qh = stepper.step(uh, qh, dt, k1)
        except BlowUpError as err:
            raise _flush(err, t, times, rows)
        del k1
        k += 1

    return Trajectory(grid, p, np.array(times), _columns(rows), states)


def _next_step(stepper: Stepper, s: State | StatePlanes, t: float, t0: float, k: int,
               t_final: float, times: list[float], rows: list[dict[str, float]]
               ) -> tuple[float, float]:
    """Size and end time of the step from time t, after k steps from t0.

    s holds the physical planes of the state at t; only dt = "auto" reads
    it.  A fixed dt ends step k+1 at t0 + (k+1) dt rather than at a running
    float sum.  A step that would pass t_final (beyond a 1e-12 slack) is
    shortened to end there, and one that ends within the slack ends exactly
    on t_final.  A run that would need more than MAX_STEPS steps at this dt
    aborts, flushing the series so far.
    """
    if stepper.tc.dt == "auto":
        dt = min(stepper.auto_dt(s), t_final - t)
        t_next = t + dt
    else:
        dt = float(stepper.tc.dt)
        t_next = t0 + (k + 1) * dt
        if t_next > t_final + 1e-12:
            dt, t_next = t_final - t, t_final
        elif t_next > t_final - 1e-12:
            t_next = t_final
    steps = k + (t_final - 1e-12 - t) / dt
    if steps > MAX_STEPS:
        raise _flush(BlowUpError(f"run needs more than MAX_STEPS = {MAX_STEPS:.0e} steps", t,
                                 {"dt": dt, "steps": steps}), t, times, rows)
    return dt, t_next


def _guard_energy(energy: float, e0: float, t: float,
                  times: list[float], rows: list[dict[str, float]], **tags: float) -> None:
    """Abort, flushing the series so far, once energy exceeds ENERGY_GUARD times e0."""
    if energy > ENERGY_GUARD * e0:
        raise _flush(BlowUpError("energy guard tripped", t,
                                 {"energy": energy, "energy0": e0, **tags}), t, times, rows)


def _columns(rows: list[dict[str, float]]) -> dict[str, np.ndarray]:
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


def _flush(err: BlowUpError, t: float, times: list[float], rows: list[dict[str, float]]
           ) -> BlowUpError:
    """Stamp the abort time t and attach the series recorded before it to the error."""
    err.t = t
    err.diagnostics["steps_completed"] = float(len(times) - 1)
    err.partial = (np.array(times), _columns(rows))
    return err


# -- twin runs --------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Seeded, mean-zero, solenoidal-in-u perturbation of size eps."""

    eps: float
    seed: int = 0
    kmin: float = 1.0
    kmax: float | None = None
    decay: float = 2.0

    def apply(self, grid: Grid, s: State) -> State:
        if self.eps == 0.0:
            return s.copy()
        rng = np.random.default_rng(self.seed)
        du = random_velocity(grid, rng, self.kmin, self.kmax, self.decay)
        dq = np.stack([random_scalar(grid, rng, self.kmin, self.kmax, self.decay)
                       for _ in range(5)])
        return State(s.u + self.eps * du, s.q + self.eps * dq, s.t)


def twin_run(
    grid: Grid,
    init: State,
    perturb: Perturbation,
    p: ModelParams,
    tc: TimeConfig,
) -> Trajectory:
    """Evolve the state and its perturbed twin under identical stepping.

    Records the contraction functional Phi(t) = 1/2 ||du||^2_{H^-1/2}
    + L ||grad dQ||^2_{H^-1/2}, its dissipation channels, the background
    norms entering the Gronwall majorant, and the empirical rate
    chi = Phi'/Phi wherever Phi > 0.  The record's states are the two
    members' final states.  Either member's energy passing ENERGY_GUARD
    times its initial value aborts the run, as in run(); an aborting step
    flushes the partial series into the raised error.

    The members are carried as half-spectrum coefficients and every channel
    is read from them, so a probe row transforms nothing.  A dt = "auto"
    step is sized from member 1's StatePlanes record, made by the same
    nonlinear call that gives its k1 (the first one from init's own
    planes); both members are transformed to physical space at the end.
    """
    g = grid
    w = shared_partition(g).sobolev_weight(-0.5)
    stepper = Stepper(g, p, tc)
    auto = tc.dt == "auto"
    a = _band_limited(g, init)
    b = _band_limited(g, perturb.apply(g, init), "perturbed initial state")

    t = init.t
    times = [t]
    rows = [_twin_probes(g, w, a, b, p)]
    e0 = [max(_member_energy(rows[0], m, p), 1e-300) for m in (1, 2)]
    t_final = init.t + tc.t_end
    k = 0
    while t < t_final - 1e-12:
        k1, member1 = None, init  # member 1's k1 and planes, made only for dt = "auto"
        if auto and k > 0:
            *k1, member1 = nonlinear(g, *a, p, planes=True)
        dt, t = _next_step(stepper, member1, t, init.t, k, t_final, times, rows)
        del member1
        try:
            a = stepper.step(*a, dt, k1)
            b = stepper.step(*b, dt)
        except BlowUpError as err:
            raise _flush(err, t, times, rows)
        k += 1
        times.append(t)
        row = _twin_probes(g, w, a, b, p)
        rows.append(row)
        for m, e0_m in zip((1, 2), e0):
            _guard_energy(_member_energy(row, m, p), e0_m, t, times, rows, member=float(m))

    series = _columns(rows)
    series["chi"] = _log_derivative(np.array(times), series["phi"])
    finals = [State(g.irfft(uh), g.irfft(qh), t) for uh, qh in (a, b)]
    return Trajectory(g, p, np.array(times), series, finals)


def _twin_probes(grid: Grid, w: np.ndarray, a: tuple[np.ndarray, np.ndarray],
                 b: tuple[np.ndarray, np.ndarray], p: ModelParams) -> dict[str, float]:
    """Twin channels of the members a = (uh, qh) and b from their coefficients.

    w is the H^{-1/2} weight table; the differences are taken as b - a.
    Each field's power spectrum is built once and every channel is one
    weighted sum over it.
    """
    g = grid
    pdu = g.power_hat(b[0] - a[0])
    pdq = g.power_hat(b[1] - a[1])

    out: dict[str, float] = {}
    out["du_hm2"] = _weighted(pdu, w)
    out["gdq_hm2"] = _weighted(pdq, w * g.ksq)
    out["phi"] = 0.5 * out["du_hm2"] + p.L * out["gdq_hm2"]
    out["gdu_hm2"] = _weighted(pdu, w * g.ksq)
    out["lapdq_hm2"] = _weighted(pdq, w * g.ksq**2)
    out["du_l22"] = _weighted(pdu)
    out["gdu_l22"] = _weighted(pdu, g.ksq)
    out["dq_l22"] = _weighted(pdq)

    for tag, (uh, qh) in (("1", a), ("2", b)):
        pu, pq = g.power_hat(uh), g.power_hat(qh)
        out[f"u{tag}_l22"] = _weighted(pu)
        out[f"q{tag}_l22"] = _weighted(pq)
        out[f"gu{tag}_l22"] = _weighted(pu, g.ksq)
        out[f"gq{tag}_l22"] = _weighted(pq, g.ksq)
        out[f"lq{tag}_l22"] = _weighted(pq, g.ksq**2)
    return out


def _member_energy(row: dict[str, float], m: int, p: ModelParams) -> float:
    """Energy of twin member m (1 or 2) from its probe columns, as in run()."""
    return row[f"u{m}_l22"] + row[f"q{m}_l22"] + p.L * row[f"gq{m}_l22"]


def _log_derivative(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Centered-difference d(phi)/dt / phi; zero where phi vanishes."""
    chi = np.zeros_like(phi)
    if len(t) < 3:
        return chi
    dphi = np.gradient(phi, t)
    pos = phi > 0
    chi[pos] = dphi[pos] / phi[pos]
    return chi
