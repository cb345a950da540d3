"""Time advancement: integrating-factor RK2 stepping, the driver loop that
run() and twin_run() share, and the sinks that take their output.

The stiff dissipative operators (nu*lap for u, gamma*L*lap for Q) are
integrated exactly in spectral space through the multiplier exp(-c k^2 dt);
everything else is explicit.  One step of the Heun-type scheme:

    k1   = N(U_n)
    U*   = E (U_n + dt k1)
    U_n1 = E U_n + dt/2 (E k1 + N(U*))

which is exact for vanishing N and second order otherwise.  The state is
carried between steps as its in-band coefficients, the (2m+1, m+1) block
of the band view Grid.band (m = n//3): a step takes and returns (uh, qh),
and takes k1 from its caller when the caller has it.
run() and twin_run() step through one loop, _drive, which hands each probe
row and stored state to a sink (a Trajectory, or snapshots.SeriesWriter) as
it is made, so an aborted run's output is already in its sink.

The stepping path relies on the state being in the dealias band (every
mode with max(|k1|, |k2|) <= n/3), where the two-thirds-rule products, and
so the vorticity form of the advection, are exact.  run() and twin_run()
check the initial state once and gather its band; the step keeps it there.
Every multiplier, combination and probe sum of the stepping path runs on
the band block only.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace

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

    Carries the time and diagnostics of the offending step (from run() or
    twin_run() also steps_completed; the rows so far are in the run's sink).
    Stepper.step does not know the time and raises with t = nan; the loop
    that owns the clock sets it.
    """

    def __init__(self, message: str, t: float, diagnostics: dict[str, float]):
        super().__init__(message)
        self.message = message
        self.t = t
        self.diagnostics = diagnostics

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
    for twin_run() they are the final states of the two members.  Built
    empty, it is the sink that collects a run in lists; arrays() gives the
    record.  A sink is any object with these row and state methods.
    """

    grid: Grid
    params: ModelParams
    times: np.ndarray | list[float] = field(default_factory=list)
    series: dict[str, np.ndarray | list[float]] = field(default_factory=dict)
    states: list[State] = field(default_factory=list)

    def row(self, t: float, values: dict[str, float]) -> None:
        self.times.append(t)
        for key, v in values.items():
            self.series.setdefault(key, []).append(v)

    def state(self, k: int, s: State, last: bool) -> None:
        self.states.append(s)

    def arrays(self) -> Trajectory:
        return replace(self, times=np.array(self.times),
                       series={key: np.array(v) for key, v in self.series.items()})


class Stepper:
    """IF-RK2 stepping on band coefficients with cached exponential multipliers.

    grid may be a full grid or its band view; the stepper keeps the band view.
    """

    def __init__(self, grid: Grid, params: ModelParams, tc: TimeConfig):
        self.grid = grid.band
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
        """Advance the band coefficients (uh, qh) by dt; no transform of the state.

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


def _band_limited(grid: Grid, s: State, what: str = "initial state"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The band coefficients (uh, qh) of s, gathered from its full-layout transforms.

    Raises BandError when the energy |u|^2 + |Q|^2 is not finite, or more
    than BAND_GUARD of it lies outside the band; both are read from the
    full coefficients.  grid is the full grid.
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
    return grid.band.gather(uh), grid.band.gather(qh)


# -- diagnostics -----------------------------------------------------------------


def probe_weights(grid: Grid, part: DyadicPartition, hs: tuple[float, ...] = ()
                  ) -> dict[str, np.ndarray]:
    """The band weight tables of the probe channels, built once per run.

    "ksq", "ksq2" and "h2" hold |k|^2, |k|^4 and (1 + |k|^2)^2; for each s in
    hs, "hs<tag>", "hs<tag>_ksq" and "hs<tag>_ksq2" hold the H^s weight of
    part, w_s, times 1, |k|^2 and |k|^4.  Each is the expression the channel
    reads, evaluated on gathered tables.
    """
    ksq = grid.band.ksq
    out = {"ksq": ksq, "ksq2": ksq**2, "h2": (1.0 + ksq) ** 2}
    for sv in hs:
        w, tag = grid.band.gather(part.sobolev_weight(sv)), _hs_tag(sv)
        out[f"hs{tag}"], out[f"hs{tag}_ksq"], out[f"hs{tag}_ksq2"] = w, w * ksq, w * ksq**2
    return out


def standard_probes(
    grid: Grid, weights: dict[str, np.ndarray], s: StatePlanes, uh: np.ndarray, qh: np.ndarray,
    p: ModelParams, hs_list: tuple[float, ...] = ()
) -> dict[str, float]:
    """Scalar diagnostic channels for one state, given as its StatePlanes
    record s and its band coefficients (uh, qh); transforms nothing.

    Always includes the L^2/H^1-level energy bookkeeping and the L^{2p}
    norms of Q for p in {1, 2, 3}; for every s in hs_list adds the
    Besov-flavored homogeneous-Sobolev channels used by the growth checks.
    weights is probe_weights(grid, part, (1.0, *hs_list)), or without
    hs_list probe_weights(grid, part).  Every weighted channel is one
    Grid.power_sum over the field's power spectrum; the P(Q) pairings come
    from the record's quadratures.
    """
    g = grid.band
    pu, pq = g.power_hat(uh), g.power_hat(qh)

    out: dict[str, float] = {}
    out["l2_u2"] = g.inner(s.u, s.u)
    out["l2_q2"] = g.inner(s.q, s.q)
    out["gradu2"] = g.power_sum(pu, weights["ksq"])
    out["gradq2"] = g.power_sum(pq, weights["ksq"])
    out["lapq2"] = g.power_sum(pq, weights["ksq2"])
    out["energy"] = out["l2_u2"] + out["l2_q2"] + p.L * out["gradq2"]
    out["pq_q"] = -p.a * out["l2_q2"] + s.b_q
    out["pq_lapq"] = p.a * out["gradq2"] + s.b_lapq
    mag2 = trace_q2(s.q)
    for pex in (1, 2, 3):
        out[f"l2p{pex}_q"] = g.norm_lp(s.q, 2 * pex, mag2)
    out["max_u"] = float(np.sqrt(np.sum(s.u**2, axis=0)).max(initial=0.0))

    if hs_list:
        out["h2_q"] = float(np.sqrt(max(g.power_sum(pq, weights["h2"]), 0.0)))
        out["h1dot_u2"] = g.power_sum(pu, weights["hs1"])
        out["h1dot_gradq2"] = g.power_sum(pq, weights["hs1_ksq"])
    for sv in hs_list:
        tag = _hs_tag(sv)
        out[f"hs{tag}_u2"] = g.power_sum(pu, weights[f"hs{tag}"])
        out[f"hs{tag}_gradq2"] = g.power_sum(pq, weights[f"hs{tag}_ksq"])
        out[f"hs{tag}_gradu2"] = g.power_sum(pu, weights[f"hs{tag}_ksq"])
        out[f"hs{tag}_lapq2"] = g.power_sum(pq, weights[f"hs{tag}_ksq2"])
    return out


def _hs_tag(s: float) -> str:
    return f"{s:g}".replace("-", "m").replace(".", "p")


def run(grid: Grid, init: State, p: ModelParams, tc: TimeConfig,
        hs_probes: tuple[float, ...] = (), state_stride: int = 0, sink=None) -> Trajectory | None:
    """Advance to t_end recording every diagnostic channel at every step.

    state_stride > 0 stores every stride-th state (plus initial and final).
    Each row and stored state goes to sink (see Trajectory) as it is made;
    without a sink, run returns the Trajectory it collects.  Each
    state that a step follows gets its record and k1 from one nonlinear
    call; row 0, the first auto step and the first stored state read
    init's own physical planes.  grid is the full grid; the state is
    stepped and probed on its band view.
    """
    band = grid.band
    weights = probe_weights(grid, shared_partition(grid), (1.0, *hs_probes) if hs_probes else ())
    traj = Trajectory(grid, p) if sink is None else sink

    def observe(k: int, t: float, last: bool, members: list) -> tuple:
        uh, qh = members[0]
        k1 = None
        if last:
            planes = state_planes(band, uh, qh, p)
        else:
            *k1, planes = nonlinear(band, uh, qh, p, planes=True)
        s = init.copy() if k == 0 else State(planes.u, planes.q, t)
        planes.u, planes.q = s.u, s.q  # for row 0, init's own planes
        row = standard_probes(band, weights, planes, uh, qh, p, hs_probes)
        stored = k == 0 or last or (state_stride > 0 and k % state_stride == 0)
        return row, [row["energy"]], planes, k1, [s] if stored else []

    _drive(Stepper(band, p, tc), [_band_limited(grid, init)], init.t, traj, observe)
    return traj.arrays() if sink is None else None


def _drive(stepper: Stepper, members: list[tuple[np.ndarray, np.ndarray]], t0: float,
           sink, observe) -> None:
    """The loop of run() and twin_run(): steps the members' (uh, qh) from t0
    to t_final = t0 + t_end.

    observe(k, t, last, members) gives, after k steps: the probe row, each
    member's energy, the planes that size a dt = "auto" step, member 1's k1
    (or None) and the states to store.  sink.state(k, s, last) gets each
    state (last marks the final one) before sink.row(t, row).  A fixed dt
    ends step k+1 at t0 + (k+1) dt rather than at a running float sum; a
    step that would pass t_final (beyond a 1e-12 slack) is shortened to end
    there, and one that ends within the slack ends exactly on t_final.  A
    member's energy above ENERGY_GUARD times its row-0 value aborts after
    the row, without its states; so do a non-finite step and a run whose
    steps taken plus the remaining time over dt exceed MAX_STEPS.  Each
    abort carries its time and steps_completed.
    """
    t, k, e0, t_final = t0, 0, [], t0 + stepper.tc.t_end
    fixed = None if stepper.tc.dt == "auto" else float(stepper.tc.dt)
    try:
        while True:
            last = t >= t_final - 1e-12
            row, energy, planes, k1, states = observe(k, t, last, members)
            e0 = e0 or [max(e, 1e-300) for e in energy]
            over = [m for m, e in enumerate(energy) if e > ENERGY_GUARD * e0[m]]
            for s in [] if over else states:
                sink.state(k, s, last)
            sink.row(t, row)
            if over:
                tag = {"member": over[0] + 1.0} if len(e0) > 1 else {}
                raise BlowUpError("energy guard tripped", t, {
                    "energy": energy[over[0]], "energy0": e0[over[0]], **tag})
            if last:
                return
            if fixed is None:
                dt = min(stepper.auto_dt(planes), t_final - t)
                t_next = t + dt
            else:
                dt, t_next = fixed, t0 + (k + 1) * fixed
                if t_next > t_final + 1e-12:
                    dt, t_next = t_final - t, t_final
                elif t_next > t_final - 1e-12:
                    t_next = t_final
            steps = k + (t_final - 1e-12 - t) / dt
            if steps > MAX_STEPS:
                raise BlowUpError(f"run needs more than MAX_STEPS = {MAX_STEPS:.0e} steps", t,
                                  {"dt": dt, "steps": steps})
            del planes, states  # keep stage 2's and the next stage 1's peaks free of these planes
            t = t_next
            for i in range(len(members)):
                members[i] = stepper.step(*members[i], dt, k1 if i == 0 else None)
            del k1
            k += 1
    except BlowUpError as err:
        err.t, err.diagnostics["steps_completed"] = t, float(k)
        raise


# -- twin runs --------------------------------------------------------------------


#: (kmin, kmax, decay) of every perturbation field; kmax None is n/4
PERTURB_SPECTRUM = (1.0, None, 2.0)


@dataclass(frozen=True)
class Perturbation:
    """Seeded, mean-zero, solenoidal-in-u perturbation of size eps."""

    eps: float
    seed: int = 0

    def apply(self, grid: Grid, s: State) -> State:
        if self.eps == 0.0:
            return s.copy()
        rng = np.random.default_rng(self.seed)
        du = random_velocity(grid, rng, *PERTURB_SPECTRUM)
        dq = np.stack([random_scalar(grid, rng, *PERTURB_SPECTRUM) for _ in range(5)])
        return State(s.u + self.eps * du, s.q + self.eps * dq, s.t)


def twin_run(grid: Grid, init: State, perturb: Perturbation, p: ModelParams, tc: TimeConfig,
             sink=None) -> Trajectory | None:
    """Evolve the state and its perturbed twin under identical stepping.

    Records the contraction functional Phi(t) = 1/2 ||du||^2_{H^-1/2}
    + L ||grad dQ||^2_{H^-1/2}, its dissipation channels, the background
    norms entering the Gronwall majorant, and the empirical rate
    chi = Phi'/Phi (see _ChiRows).  The sink, the return value and the
    energy guard, on either member, are those of run(), but each row leaves
    one row late; the record's states are the members' final states, and a
    caller's sink gets none.

    The members are carried as band coefficients and every channel is read
    from them, so a probe row transforms nothing.  A dt = "auto" step is
    sized from member 1's StatePlanes record, made by the same nonlinear
    call that gives its k1 (the first one from init's own planes).
    """
    g = grid.band
    weights = probe_weights(grid, shared_partition(grid), (-0.5,))
    traj = Trajectory(grid, p) if sink is None else sink
    members = [_band_limited(grid, init),
               _band_limited(grid, perturb.apply(grid, init), "perturbed initial state")]

    def observe(k: int, t: float, last: bool, members: list) -> tuple:
        k1, planes = None, init  # member 1's k1 and planes, made only for dt = "auto"
        if tc.dt == "auto" and k > 0 and not last:
            *k1, planes = nonlinear(g, *members[0], p, planes=True)
        row = _twin_probes(g, weights, *members, p)
        finals = [State(g.irfft(uh), g.irfft(qh), t) for uh, qh in members] \
            if last and sink is None else []
        energy = [row[f"u{m}_l22"] + row[f"q{m}_l22"] + p.L * row[f"gq{m}_l22"] for m in (1, 2)]
        return row, energy, planes, k1, finals

    with closing(_ChiRows(traj)) as rows:
        _drive(Stepper(g, p, tc), members, init.t, rows, observe)
    return traj.arrays() if sink is None else None


class _ChiRows:
    """twin_run's sink: hands each row on to sink one row late, with chi = Phi'/Phi.

    Row k's Phi' is np.gradient over rows k-1..k+1: one-sided at the ends, and
    numpy's uniform formula where the two spacings are equal.  chi is 0 where
    Phi <= 0 and in a series of fewer than 3 rows, so row 0 waits for row 2.
    close() hands on the rows held, at most two."""

    def __init__(self, sink):
        self.sink, self.state, self.held, self.sent = sink, sink.state, [], False

    def row(self, t: float, values: dict[str, float]) -> None:
        self.held.append((t, values))
        if len(self.held) == 3:
            for i in (1,) if self.sent else (0, 1):
                self._send(i)
            self.sent, self.held = True, self.held[1:]

    def close(self) -> None:
        for i in [1] if self.sent else range(len(self.held)):
            self._send(i)

    def _send(self, i: int) -> None:
        t, values = self.held[i]
        phi, chi = values["phi"], 0.0
        if phi > 0 and (self.sent or len(self.held) == 3):
            chi = np.gradient([v["phi"] for _, v in self.held], [s for s, _ in self.held])[i] / phi
        self.sink.row(t, {**values, "chi": chi})


def _twin_probes(grid: Grid, weights: dict[str, np.ndarray], a: tuple[np.ndarray, np.ndarray],
                 b: tuple[np.ndarray, np.ndarray], p: ModelParams) -> dict[str, float]:
    """Twin channels of the members a = (uh, qh) and b from their band coefficients.

    weights is probe_weights(grid, part, (-0.5,)), with the H^{-1/2} weight
    tables; the differences are taken as b - a.  Each field's power
    spectrum is built once and every channel is one Grid.power_sum over it.
    """
    g = grid.band
    total = g.power_sum
    w, w_ksq, w_ksq2, ksq, ksq2 = (weights[key] for key in (
        "hsm0p5", "hsm0p5_ksq", "hsm0p5_ksq2", "ksq", "ksq2"))
    pdu = g.power_hat(b[0] - a[0])
    pdq = g.power_hat(b[1] - a[1])

    out: dict[str, float] = {}
    out["du_hm2"] = total(pdu, w)
    out["gdq_hm2"] = total(pdq, w_ksq)
    out["phi"] = 0.5 * out["du_hm2"] + p.L * out["gdq_hm2"]
    out["gdu_hm2"] = total(pdu, w_ksq)
    out["lapdq_hm2"] = total(pdq, w_ksq2)
    out["du_l22"] = total(pdu)
    out["gdu_l22"] = total(pdu, ksq)
    out["dq_l22"] = total(pdq)

    for tag, (uh, qh) in (("1", a), ("2", b)):
        pu, pq = g.power_hat(uh), g.power_hat(qh)
        out[f"u{tag}_l22"] = total(pu)
        out[f"q{tag}_l22"] = total(pq)
        out[f"gu{tag}_l22"] = total(pu, ksq)
        out[f"gq{tag}_l22"] = total(pq, ksq)
        out[f"lq{tag}_l22"] = total(pq, ksq2)
    return out
