import numpy as np
import pytest
import scipy.fft

from qflow import dyadic, spectral, timestepping
from qflow.dyadic import DyadicPartition
from qflow.qtensor import ModelParams, State, _bulk_products, nonlinear, random_qtensor, state_planes
from qflow.spectral import Grid, random_velocity
from tests.test_spectral import scatter
from qflow.timestepping import (
    BandError,
    BlowUpError,
    Perturbation,
    Stepper,
    TimeConfig,
    Trajectory,
    run,
    probe_weights,
    standard_probes,
    twin_run,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def params(**kw):
    base = dict(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    base.update(kw)
    return ModelParams(**base)


def smooth_state(grid, seed=5, amp_u=0.4, amp_q=0.3, kmax=6):
    rng = np.random.default_rng(seed)
    return State(amp_u * random_velocity(grid, rng, kmax=kmax),
                 amp_q * random_qtensor(grid, rng, kmax=kmax))


def test_time_config_validation():
    with pytest.raises(ValueError):
        TimeConfig(dt=-0.1)
    with pytest.raises(ValueError):
        TimeConfig(dt="later")
    with pytest.raises(ValueError):
        TimeConfig(cfl=1.5)
    with pytest.raises(ValueError):
        TimeConfig(scheme="euler")
    assert TimeConfig().dt == "auto"


def test_zero_state_is_fixed_point(grid):
    z = State(np.zeros((2, grid.n, grid.n)), np.zeros((5, grid.n, grid.n)))
    traj = run(grid, z, params(), TimeConfig(dt=0.01, t_end=0.01))
    assert len(traj.times) == 2  # one step
    out = traj.states[-1]
    assert np.abs(out.u).max() == 0.0 and np.abs(out.q).max() == 0.0
    assert out.t == pytest.approx(0.01)


def test_constant_q_relaxation_order(grid):
    # b = c ~ 0: dQ/dt = -gamma a Q, exact solution Q0 exp(-gamma a t)
    p = params(a=0.7, b=0.0, c=1e-14, gamma=1.3)
    q0 = np.zeros((5, grid.n, grid.n))
    q0[1] = 0.05
    errs = []
    band = grid.band
    for dt in (0.02, 0.01, 0.005):
        uh, qh = band.rfft(np.zeros((2, grid.n, grid.n))), band.rfft(q0)
        stepper = Stepper(grid, p, TimeConfig(dt=dt))
        for _ in range(round(1.0 / dt)):
            uh, qh = stepper.step(uh, qh, dt)
        errs.append(np.abs(band.irfft(qh) - q0 * np.exp(-p.gamma * p.a)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.9  # global order 2 = local O(dt^3)


def test_taylor_green_integrating_factor_exact(grid):
    x, y = grid.nodes()
    u0 = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    p = params(nu=0.3)
    band = grid.band
    uh, qh = band.rfft(u0), band.rfft(np.zeros((5, grid.n, grid.n)))
    stepper = Stepper(grid, p, TimeConfig(dt=0.01))
    for _ in range(10):
        uh, qh = stepper.step(uh, qh, 0.01)
    assert np.abs(band.irfft(uh) - u0 * np.exp(-2 * p.nu * 0.1)).max() <= 1e-13


def test_run_zero_horizon(grid):
    init = smooth_state(grid)
    traj = run(grid, init, params(), TimeConfig(dt=0.01, t_end=0.0))
    assert len(traj.times) == 1 and traj.times[0] == 0.0
    assert np.abs(traj.states[-1].u - init.u).max() == 0.0


def test_run_deterministic(grid):
    init = smooth_state(grid)
    tc = TimeConfig(dt=5e-3, t_end=0.05)
    t1 = run(grid, init, params(), tc)
    t2 = run(grid, init, params(), tc)
    for key in t1.series:
        assert np.array_equal(t1.series[key], t2.series[key])


def test_run_preserves_invariants(grid):
    init = smooth_state(grid)
    traj = run(grid, init, params(), TimeConfig(dt=5e-3, t_end=0.05), state_stride=5)
    for st in traj.states:
        assert grid.divergence_residual(grid.rfft(st.u)) <= 1e-12
        assert np.abs(st.u.mean(axis=(-2, -1))).max() <= 1e-15


def test_auto_dt_caps(grid):
    p = params()
    s = smooth_state(grid)
    stepper = Stepper(grid, p, TimeConfig(dt="auto", cfl=0.4))
    dt = stepper.auto_dt(s)
    h = grid.length / grid.n
    umax = np.sqrt(np.sum(s.u**2, axis=0)).max()
    qmax = np.sqrt(np.sum(s.q**2, axis=0)).max()
    react = p.gamma * (abs(p.a) + abs(p.b) * qmax + p.c * qmax**2)
    assert dt <= 0.4 * h / max(1.0, umax) + 1e-15
    assert dt <= 1.0 / react + 1e-15


def test_blow_up_detection(grid, monkeypatch):
    # strong bulk growth (a << 0, weak saturation) trips the energy guard
    p = params(a=-5.0, b=0.0, c=0.01, gamma=2.0)
    init = smooth_state(grid, amp_u=0.0, amp_q=0.2)
    monkeypatch.setattr(timestepping, "ENERGY_GUARD", 2.0)
    rec = Trajectory(grid, p)
    with pytest.raises(BlowUpError, match="energy guard") as info:
        run(grid, init, p, TimeConfig(dt=5e-3, t_end=3.0), sink=rec)
    part = rec.arrays()  # the rows up to the abort are in the caller's sink
    times, series = part.times, part.series
    assert len(times) >= 2 and len(series["energy"]) == len(times)
    # the row that trips the guard is the last one handed over, and the abort names it
    assert info.value.t == times[-1] and info.value.diagnostics["steps_completed"] == len(times) - 1
    assert series["energy"][-1] > 2.0 * series["energy"][0] >= series["energy"][-2]


def upsample(gs: Grid, f: np.ndarray, gb: Grid) -> np.ndarray:
    """Evaluate the same band-limited trig polynomial on a finer grid."""
    half = gs.n // 2
    rows = np.r_[0:half, -half + 1:0].astype(int)  # Nyquist row and column dropped
    out = np.zeros(f.shape[:-2] + (gb.n, gb.n // 2 + 1), dtype=complex)
    out[..., rows, :half] = gs.rfft(f)[..., rows, :half] / gs.n**2
    return gb.irfft(out * gb.n**2)


def test_self_convergence_under_refinement():
    # identical band-limited data across n: gap to the finest run shrinks with n
    p = params()
    tc = TimeConfig(dt=2e-3, t_end=0.1)
    g32 = Grid(32)
    init32 = smooth_state(g32, seed=5, kmax=6)

    finals = {}
    for n in (32, 64, 128):
        g = Grid(n)
        init = init32 if n == 32 else State(upsample(g32, init32.u, g),
                                            upsample(g32, init32.q, g))
        finals[n] = (g, run(g, init, p, tc).states[-1])

    def gap(n_small):
        gs, ss = finals[n_small]
        gb, sb = finals[128]
        half = n_small // 2
        rows = np.r_[0:half, -half + 1:0].astype(int)
        sub_b = gb.rfft(sb.u)[:, rows, :half] / gb.n**2
        sub_s = gs.rfft(ss.u)[:, rows, :half] / gs.n**2
        # Parseval weights: each interior column stands for its conjugate twin
        return np.sqrt(np.sum(gs.parseval[:, :half] * np.abs(sub_b - sub_s) ** 2))

    gap_32, gap_64 = gap(32), gap(64)
    assert gap_64 < gap_32
    assert gap_64 <= 1e-5  # spectral accuracy once the product band is resolved


def test_friedrichs_mode_preserves_invariants(grid):
    from dataclasses import replace

    init = smooth_state(grid, kmax=10, amp_u=0.3, amp_q=0.3)
    p = replace(params(), n_cutoff=4)
    traj = run(grid, init, p, TimeConfig(dt=5e-3, t_end=0.05), state_stride=2)
    for st in traj.states:
        assert grid.divergence_residual(grid.rfft(st.u)) <= 1e-12
        assert np.abs(st.u.mean(axis=(-2, -1))).max() <= 1e-15
    assert np.all(np.isfinite(traj.series["energy"]))


def test_initial_seeds_differ(grid):
    a = smooth_state(grid, seed=1)
    b = smooth_state(grid, seed=2)
    assert np.abs(a.u - b.u).max() > 1e-3


def test_twin_zero_perturbation(grid):
    init = smooth_state(grid)
    diff = twin_run(grid, init, Perturbation(0.0), params(), TimeConfig(dt=5e-3, t_end=0.05))
    assert np.abs(diff.series["phi"]).max() == 0.0
    # one run record: the twin's states are the two members' final states
    assert isinstance(diff, Trajectory) and len(diff.states) == 2
    assert diff.states[0].t == diff.times[-1]
    assert np.array_equal(diff.states[0].u, diff.states[1].u)


def test_twin_abort_flushes_partial_series(monkeypatch):
    # an explicit step far past the stability limit leaves the finite range
    # (the energy guard is switched off so that the non-finite abort is reached)
    monkeypatch.setattr(timestepping, "ENERGY_GUARD", np.inf)
    g = Grid(16)
    init = smooth_state(g, amp_u=0.5, amp_q=2.0, kmax=4)
    p = params(a=-5.0, b=0.0, c=1.0, gamma=2.0)
    rec = Trajectory(g, p)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BlowUpError, match="non-finite") as info:
        twin_run(g, init, Perturbation(1e-3, seed=1), p, TimeConfig(dt=2.0, t_end=200.0), rec)
    part = rec.arrays()
    times, series = part.times, part.series
    assert len(times) >= 1 and len(series["phi"]) == len(times)
    assert info.value.diagnostics["steps_completed"] == len(times) - 1


def test_twin_energy_guard_flushes_partial_series(grid, monkeypatch):
    # the guard of run() applies to each twin member; the caller's sink keeps the series
    monkeypatch.setattr(timestepping, "ENERGY_GUARD", 2.0)
    p = params(a=-5.0, b=0.0, c=0.01, gamma=2.0)
    init = smooth_state(grid, amp_u=0.0, amp_q=0.2)
    rec = Trajectory(grid, p)
    with pytest.raises(BlowUpError, match="energy guard") as info:
        twin_run(grid, init, Perturbation(1e-3, seed=1), p, TimeConfig(dt=5e-3, t_end=3.0), rec)
    part = rec.arrays()
    times, series = part.times, part.series
    assert len(times) >= 2 and len(series["phi"]) == len(times)
    assert info.value.diagnostics["member"] in (1.0, 2.0)
    energy = series["u1_l22"] + series["q1_l22"] + p.L * series["gq1_l22"]
    assert energy[-1] > 2.0 * energy[0] >= energy[-2]
    assert info.value.t == times[-1] and info.value.diagnostics["steps_completed"] == len(times) - 1


def test_fixed_dt_time_is_not_a_float_sum(grid):
    # t_k = t0 + k dt: summing 0.1 ten times gives 0.9999999999999999
    z = State(np.zeros((2, grid.n, grid.n)), np.zeros((5, grid.n, grid.n)), t=0.0)
    tc = TimeConfig(dt=0.1, t_end=1.0)
    traj = run(grid, z, params(), tc)
    assert np.array_equal(traj.times, np.arange(11) * 0.1)
    assert traj.times[-1] == 1.0 and traj.states[-1].t == 1.0
    twin = twin_run(grid, z, Perturbation(0.0), params(), tc)
    assert np.array_equal(twin.times, traj.times)
    # a horizon off the dt lattice ends with one shortened step
    short = run(grid, z, params(), TimeConfig(dt=0.1, t_end=0.25))
    assert list(short.times) == [0.0, 0.1, 0.2, 0.25]
    # 3 * 0.1 is 0.30000000000000004: a roundoff overshoot still ends on the horizon
    tc = TimeConfig(dt=0.1, t_end=0.3)
    for traj in (run(grid, z, params(), tc), twin_run(grid, z, Perturbation(0.0), params(), tc)):
        assert list(traj.times) == [0.0, 0.1, 0.2, 0.3]
        assert traj.states[-1].t == 0.3


def test_twin_quadratic_scaling(grid):
    init = smooth_state(grid)
    tc = TimeConfig(dt=5e-3, t_end=0.1)
    p = params()
    d1 = twin_run(grid, init, Perturbation(1e-4, seed=9), p, tc)
    d2 = twin_run(grid, init, Perturbation(5e-5, seed=9), p, tc)
    ratio = d1.series["phi"][-1] / d2.series["phi"][-1]
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_twin_chi_definition(grid):
    init = smooth_state(grid)
    diff = twin_run(grid, init, Perturbation(1e-4, seed=9), params(),
                    TimeConfig(dt=5e-3, t_end=0.1))
    phi = diff.series["phi"]
    chi = diff.series["chi"]
    # Phi(t) <= Phi(0) exp(int chi+) by construction of the measured rate
    from scipy.integrate import cumulative_trapezoid

    integ = cumulative_trapezoid(np.maximum(chi, 0.0), diff.times, initial=0.0)
    assert np.all(phi <= phi[0] * np.exp(integ) * (1.0 + 1e-6))


def log_derivative(t, phi):
    """chi of the whole Phi series: centered-difference d(phi)/dt / phi, zero
    where phi vanishes and in a series of fewer than 3 rows."""
    chi = np.zeros_like(phi)
    if len(t) < 3:
        return chi
    dphi = np.gradient(phi, t)
    pos = phi > 0
    chi[pos] = dphi[pos] / phi[pos]
    return chi


@pytest.mark.parametrize("n, dt, steps", [(64, 2.0**-8, 8), (32, 5e-3, 20), (64, 5e-3, 40),
                                          (32, 0.1, 10), (64, 2.0**-8, 0), (64, 2.0**-8, 1),
                                          (64, 2.0**-8, 2)])
def test_twin_streamed_chi_matches_whole_series(n, dt, steps):
    # twin_run hands each row on one row late with chi from rows k-1..k+1;
    # np.gradient of the whole series takes its uniform formula only when
    # every spacing is equal, so the two agree bitwise on the 2^-8 lattice
    # and at roundoff elsewhere; a series of 1 or 2 rows has chi = 0
    g = Grid(n)
    diff = twin_run(g, smooth_state(g), Perturbation(1e-4, seed=9), params(),
                    TimeConfig(dt=dt, t_end=steps * dt))
    assert len(diff.times) == steps + 1 and list(diff.series)[-1] == "chi"
    ref = log_derivative(diff.times, diff.series["phi"])
    if dt == 2.0**-8:
        assert np.array_equal(diff.series["chi"], ref)
    else:
        np.testing.assert_allclose(diff.series["chi"], ref, rtol=1e-12, atol=0.0)
    assert np.all(ref != 0.0) if steps >= 2 else not np.any(diff.series["chi"])


def test_twin_streamed_chi_on_energy_guard_abort(grid, monkeypatch):
    # an abort hands every row made to the caller's sink, chi one-sided at the last
    monkeypatch.setattr(timestepping, "ENERGY_GUARD", 2.0)
    p = params(a=-5.0, b=0.0, c=0.01, gamma=2.0)
    init = smooth_state(grid, amp_u=0.0, amp_q=0.2)
    rec = Trajectory(grid, p)
    with pytest.raises(BlowUpError, match="energy guard") as info:
        twin_run(grid, init, Perturbation(1e-3, seed=1), p, TimeConfig(dt=2.0**-8, t_end=3.0), rec)
    part = rec.arrays()
    assert not part.states and len(part.times) == info.value.diagnostics["steps_completed"] + 1
    assert len(part.times) >= 3
    assert np.array_equal(part.series["chi"], log_derivative(part.times, part.series["phi"]))


def test_twin_memory_flat_in_steps(tmp_path):
    # twin_run holds at most two rows for its sink: with a SeriesWriter sink
    # the traced peak of a run of 4N steps is that of N steps
    import tracemalloc
    from contextlib import closing

    from qflow.snapshots import SeriesWriter

    g = Grid(8)
    init, p = smooth_state(g, kmax=2), params()

    def twin(steps: int) -> None:
        with closing(SeriesWriter(tmp_path / "twin.csv")) as sink:
            assert twin_run(g, init, Perturbation(1e-3), p,
                            TimeConfig(dt=0.001, t_end=steps * 0.001), sink) is None
        assert sink.rows == steps + 1

    twin(3)  # caches and imports outside the measurement
    peaks = []
    tracemalloc.start()
    try:
        for steps in (200, 800):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            twin(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def count_planes(monkeypatch) -> dict[str, int]:
    """Count the r2c and c2r planes passing through Grid.rfft / Grid.irfft."""
    counts = {"r2c": 0, "c2r": 0}

    def counted(fn, kind):
        def wrapper(self, f, **kw):
            counts[kind] += int(np.prod(np.shape(f)[:-2]))
            return fn(self, f, **kw)
        return wrapper

    monkeypatch.setattr(Grid, "rfft", counted(Grid.rfft, "r2c"))
    monkeypatch.setattr(Grid, "irfft", counted(Grid.irfft, "c2r"))
    return counts


@pytest.mark.parametrize("n_cutoff", [None, 4])
def test_step_and_probe_plane_budget(monkeypatch, n_cutoff):
    # per stage 23 c2r (22 physical planes: u, omega, Q, grad Q and four lap Q
    # planes; and the tr(Q^2) round trip) and 12 r2c (5 + 6 outputs,
    # tr(Q^2)); the state stays in coefficients
    g = Grid(16)
    p = params(n_cutoff=n_cutoff)
    s = smooth_state(g, kmax=4)
    uh, qh = g.band.rfft(s.u), g.band.rfft(s.q)
    stepper = Stepper(g, p, TimeConfig(dt=1e-3))
    part = DyadicPartition(g)
    counts = count_planes(monkeypatch)
    cut = 0 if n_cutoff is None else 2  # Friedrichs mode: the record's uncut u

    def planes(fn, *args, **kw):
        counts.update(r2c=0, c2r=0)
        fn(*args, **kw)
        return counts["r2c"], counts["c2r"]

    assert planes(stepper.step, uh, qh, 1e-3) == (24, 46)
    *k1, rec = nonlinear(g, uh, qh, p, planes=True)
    assert planes(stepper.step, uh, qh, 1e-3, k1) == (12, 23)
    # the stage-1 record adds the E2 lap Q plane
    assert planes(nonlinear, g, uh, qh, p, planes=True) == (12, 24 + cut)
    # a record without k1: u, Q, the tr(Q^2) round trip and five lap Q planes
    assert planes(state_planes, g, uh, qh, p) == (1, 13)
    weights = probe_weights(g, part, (1.0, 0.5))
    assert planes(standard_probes, g, weights, rec, uh, qh, p, (0.5,)) == (0, 0)

    # run, per step: stage 1 with the record of the state it follows, then stage 2
    def per_step(runner, tcs):
        r2c, c2r = zip(*(planes(runner, tc) for tc in tcs))
        return r2c[1] - r2c[0], c2r[1] - c2r[0]

    fixed = [TimeConfig(dt=1e-3, t_end=m * 1e-3) for m in (2, 3)]
    assert per_step(lambda tc: run(g, s, p, tc, hs_probes=(0.5,)), fixed) == (24, 47 + cut)
    # twin_run, per twin step: two member steps; a probe row transforms nothing
    twin = Perturbation(1e-3, seed=1)
    assert per_step(lambda tc: twin_run(g, s, twin, p, tc), fixed) == (48, 92)
    w = probe_weights(g, part, (-0.5,))
    assert planes(timestepping._twin_probes, g, w, (uh, qh), (uh, 2.0 * qh), p) == (0, 0)
    # with dt = auto, member 1's record sizes the step and its stage 1 gives k1
    auto = [TimeConfig(dt="auto", t_end=m * 0.15) for m in (2, 3)]  # dt is about 0.157
    steps = [len(twin_run(g, s, twin, p, tc).times) - 1 for tc in auto]
    assert steps[1] == steps[0] + 1
    assert per_step(lambda tc: twin_run(g, s, twin, p, tc), auto) == (48, 93 + cut)


@pytest.mark.parametrize("n_cutoff", [None, 4])
def test_stepping_path_takes_only_pruned_inverse_transforms(monkeypatch, n_cutoff):
    # in-band data keeps every c2r input's columns past n//3 zero, so no
    # inverse transform of a run or twin run falls back to irfft2
    g = Grid(16)
    s = smooth_state(g, kmax=4)
    p = params(n_cutoff=n_cutoff)
    monkeypatch.setattr(spectral.scipy.fft, "irfft2",
                        lambda *a, **kw: pytest.fail("full inverse transform"))
    tc = TimeConfig(dt=1e-3, t_end=3e-3)
    run(g, s, p, tc, hs_probes=(0.5,))
    twin_run(g, s, Perturbation(0.0), p, tc)  # eps > 0 draws its fields by full transforms


@pytest.mark.parametrize("n, n_cutoff", [(16, None), (32, None), (16, 4), (32, 4)])
def test_band_inverse_on_run_arrays_matches_irfft2_of_scattered(monkeypatch, n, n_cutoff):
    # every band inverse of a run and a twin run at len 3.7 equals irfft2 of
    # its block scattered into the full layout, bit for bit
    g = Grid(n, length=3.7)
    p = params(n_cutoff=n_cutoff)
    s = smooth_state(g, kmax=n // 4)
    irfft, seen = Grid.irfft, []

    def checked(self, fh):
        out = irfft(self, fh)
        if self.m is not None:
            want = scipy.fft.irfft2(scatter(self, fh), s=(n, n), axes=(-2, -1))
            assert out.tobytes() == want.tobytes()
            seen.append(fh.shape)
        return out

    monkeypatch.setattr(Grid, "irfft", checked)
    tc = TimeConfig(dt=1e-2, t_end=2e-2)
    run(g, s, p, tc, hs_probes=(0.5,))
    twin_run(g, s, Perturbation(1e-3, seed=2), p, tc)
    assert len(seen) > 50


@pytest.mark.parametrize("n, length, n_cutoff", [
    pytest.param(16, 3.7, None, id="16-3.7"), pytest.param(32, 1.0, None, id="32-1.0"),
    pytest.param(16, 3.7, 4, id="16-3.7-cut4")])
def test_coefficient_channels_match_physical_quadrature(n, length, n_cutoff):
    # the state is carried as coefficients; every channel read from them must
    # match quadrature of the physical fields and inner_hat of fresh transforms
    g = Grid(n, length=length)
    part = DyadicPartition(g)
    p = params(n_cutoff=n_cutoff)
    init = smooth_state(g, kmax=n // 4)
    tc = TimeConfig(dt=2e-3 * length, t_end=8e-3 * length)

    def close(got, want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    traj = run(g, init, p, tc, hs_probes=(0.5,), state_stride=1)
    assert len(traj.states) == len(traj.times) == 5
    # row 0 reads init's own physical planes, exactly
    row0 = {key: col[0] for key, col in traj.series.items()}
    assert row0["l2_u2"] == g.inner(init.u, init.u)
    assert row0["l2_q2"] == g.inner(init.q, init.q)
    for pex in (1, 2, 3):
        assert row0[f"l2p{pex}_q"] == g.norm_lp(init.q, 2 * pex)
    assert row0["max_u"] == np.sqrt(np.sum(init.u**2, axis=0)).max()
    w = part.sobolev_weight(0.5)
    for i, st in enumerate(traj.states):
        assert st.t == traj.times[i]
        uh, qh = g.rfft(st.u), g.rfft(st.q)
        row = {key: col[i] for key, col in traj.series.items()}
        close(row["l2_u2"], g.inner(st.u, st.u))
        close(row["gradu2"], g.inner_hat(uh, uh, g.ksq))
        close(row["gradq2"], g.inner_hat(qh, qh, g.ksq))
        close(row["lapq2"], g.inner_hat(qh, qh, g.ksq**2))
        close(row["hs0p5_u2"], g.inner_hat(uh, uh, w))
        close(row["hs0p5_lapq2"], g.inner_hat(qh, qh, w * g.ksq**2))
        assert g.divergence_residual(uh) <= 1e-12
        # the P(Q) pairings, taken by quadrature, against the spectral pairing
        pqh = g.dealias_mask * g.rfft(_bulk_products(g, st.q, p)) - p.a * qh
        for key, want in (("pq_q", g.inner_hat(pqh, qh)),
                          ("pq_lapq", -g.inner_hat(pqh, qh, g.ksq))):
            assert abs(row[key] - want) <= 1e-13 * abs(want), (key, row[key], want)

    twin = twin_run(g, init, Perturbation(1e-2, seed=3), p, tc)
    sa, sb = twin.states
    du, dq = sb.u - sa.u, sb.q - sa.q
    duh, dqh = g.rfft(du), g.rfft(dq)
    wm = part.sobolev_weight(-0.5)
    row = {key: col[-1] for key, col in twin.series.items()}
    close(row["du_l22"], g.inner(du, du))
    close(row["dq_l22"], g.inner(dq, dq))
    close(row["du_hm2"], g.inner_hat(duh, duh, wm))
    close(row["gdq_hm2"], g.inner_hat(dqh, dqh, wm * g.ksq))
    close(row["lapdq_hm2"], g.inner_hat(dqh, dqh, wm * g.ksq**2))
    close(row["gdu_l22"], g.inner_hat(duh, duh, g.ksq))
    for tag, st in (("1", sa), ("2", sb)):
        qh = g.rfft(st.q)
        close(row[f"u{tag}_l22"], g.inner(st.u, st.u))
        close(row[f"q{tag}_l22"], g.inner(st.q, st.q))
        close(row[f"gq{tag}_l22"], g.inner_hat(qh, qh, g.ksq))
        close(row[f"lq{tag}_l22"], g.inner_hat(qh, qh, g.ksq**2))
    # member 1 of the twin is the plain run
    assert np.array_equal(sa.u, traj.states[-1].u) and np.array_equal(sa.q, traj.states[-1].q)


def test_twin_auto_dt_follows_member_one():
    # dt = "auto" sizes each twin step from member 1's current physical
    # state: init's own planes first, then irfft of the uncut coefficients
    g = Grid(32)
    init = smooth_state(g, kmax=6, amp_u=2.0)
    tc = TimeConfig(dt="auto", t_end=0.3, cfl=0.4)
    for n_cutoff in (None, 4):
        p = params(n_cutoff=n_cutoff)
        solo = run(g, init, p, tc)
        twin = twin_run(g, init, Perturbation(0.0), p, tc)
        dts = np.diff(solo.times)[:-1]  # the last step is cut to the horizon
        assert len(dts) >= 5 and dts.max() > 1.1 * dts.min()  # the flow decays, dt grows
        assert np.array_equal(twin.times, solo.times)

        stepper = Stepper(g, p, tc)
        uh, qh = g.band.gather(g.rfft(init.u)), g.band.gather(g.rfft(init.q))
        s, times = init, [0.0]
        while times[-1] < tc.t_end - 1e-12:
            dt = min(stepper.auto_dt(s), tc.t_end - times[-1])
            uh, qh = stepper.step(uh, qh, dt)
            s = State(g.band.irfft(uh), g.band.irfft(qh))
            times.append(times[-1] + dt)
        assert np.array_equal(solo.times, times)


def test_non_finite_step_reports_input_state(monkeypatch):
    # a step far past the stability limit: the abort names the step's end time
    # and the input state's max |u|, max |Q| and dt
    g = Grid(16)
    p = params(a=-5.0, b=0.0, c=1.0, gamma=2.0)
    init = smooth_state(g, amp_u=0.5, amp_q=2.0, kmax=4)
    stepper = Stepper(g, p, TimeConfig(dt=2.0))
    # the in-band coefficients that run() steps from
    uh, qh = g.band.gather(g.rfft(init.u)), g.band.gather(g.rfft(init.q))
    monkeypatch.setattr(timestepping, "ENERGY_GUARD", np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(100):
            try:
                uh_next, qh_next = stepper.step(uh, qh, 2.0)
            except BlowUpError as caught:
                err = caught
                break
            uh, qh = uh_next, qh_next
        else:
            pytest.fail("the step never left the finite range")
        assert np.isnan(err.t)
        assert err.diagnostics == {"max_u": np.abs(g.band.irfft(uh)).max(),
                                   "max_q": np.abs(g.band.irfft(qh)).max(), "dt": 2.0}
        rec = Trajectory(g, p)
        with pytest.raises(BlowUpError, match="non-finite") as info:
            run(g, init, p, TimeConfig(dt=2.0, t_end=400.0), sink=rec)
    times = rec.arrays().times
    assert len(times) == k + 1 and info.value.t == 2.0 * (k + 1)
    assert info.value.diagnostics["max_u"] == err.diagnostics["max_u"]


def out_of_band_noise(g, share, seed=0):
    """Physical planes (u, Q) holding only modes outside the dealias band."""
    rng = np.random.default_rng(seed)
    hat = rng.normal(size=(7, g.n, g.n // 2 + 1)) * ~g.dealias_mask
    noise = g.irfft(hat)
    return np.sqrt(share) * noise / np.sqrt(np.sum(noise**2))


def test_band_guard_rejects_out_of_band_initial_state(monkeypatch):
    # data past n/3 would make the first products alias: run and twin_run
    # refuse it (n = 16, kmax = 6 > 16/3, about 1e-2 of the energy)
    g = Grid(16)
    p = params()
    tc = TimeConfig(dt=1e-3, t_end=2e-3)
    wide = smooth_state(g, kmax=6)
    for call in (lambda: run(g, wide, p, tc),
                 lambda: twin_run(g, wide, Perturbation(1e-3), p, tc)):
        with pytest.raises(BandError, match="initial state has .* outside the dealias band"):
            call()
    # an out-of-band perturbation of in-band data is refused too
    monkeypatch.setattr(timestepping, "PERTURB_SPECTRUM", (1.0, 6, 2.0))
    with pytest.raises(BandError, match="perturbed initial state"):
        twin_run(g, smooth_state(g, kmax=4), Perturbation(1e-3), p, tc)


@pytest.mark.parametrize("scale", [1e308, np.inf, np.nan])
def test_band_guard_refuses_non_finite_energy(scale):
    # an overflowing or non-finite initial state used to pass the guard and
    # abort at the first step; run and twin_run refuse it
    g = Grid(16)
    p = params()
    tc = TimeConfig(dt=1e-3, t_end=2e-3)
    clean = smooth_state(g, kmax=4)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = State(clean.u, scale * clean.q)
        for call in (lambda: run(g, bad, p, tc),
                     lambda: twin_run(g, bad, Perturbation(1e-3), p, tc)):
            with pytest.raises(BandError, match="initial state has a non-finite energy"):
                call()
        with pytest.raises(BandError, match="perturbed initial state has a non-finite energy"):
            twin_run(g, clean, Perturbation(scale), p, tc)


def test_band_guard_masks_roundoff():
    # a share at roundoff level passes and is masked off once; above
    # BAND_GUARD the same data is refused
    g = Grid(16)
    p = params()
    tc = TimeConfig(dt=1e-3, t_end=4e-3)
    clean = smooth_state(g, kmax=4)
    energy = g.inner(clean.u, clean.u) + g.inner(clean.q, clean.q)
    base = run(g, clean, p, tc).states[-1]
    for share in (1e-26, 1e-22):
        noise = out_of_band_noise(g, share * energy / g.cell_area)
        noisy = State(clean.u + noise[:2], clean.q + noise[2:])
        got = run(g, noisy, p, tc).states[-1]
        for x, y in ((got.u, base.u), (got.q, base.q)):
            assert np.abs(x - y).max() <= 1e-14 * np.abs(y).max()
    noise = out_of_band_noise(g, 1e-18 * energy / g.cell_area)
    with pytest.raises(BandError):
        run(g, State(clean.u + noise[:2], clean.q + noise[2:]), p, tc)


def test_runs_share_one_partition(monkeypatch):
    # run and twin_run take the grid's shared DyadicPartition
    built = []
    post_init = DyadicPartition.__post_init__

    def counted(self):
        built.append(self.grid.n)
        post_init(self)

    monkeypatch.setattr(DyadicPartition, "__post_init__", counted)
    dyadic._partition.cache_clear()
    g = Grid(16)
    tc = TimeConfig(dt=1e-3, t_end=2e-3)
    init = smooth_state(g, kmax=4)
    run(g, init, params(), tc, hs_probes=(0.5,))
    run(g, init, params(), tc)
    twin_run(g, init, Perturbation(1e-3), params(), tc)
    assert built == [16]
