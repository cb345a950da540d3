import math

import numpy as np
import pytest

from qflow import checks as C
from qflow.dyadic import DyadicPartition
from qflow.qtensor import ModelParams, State, bulk_force, random_qtensor
from qflow.spectral import Grid, random_velocity
from qflow.timestepping import Perturbation, TimeConfig, run, twin_run


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


def uniaxial(grid, s):
    q = np.zeros((5, grid.n, grid.n))
    q[1] = -np.sqrt(2.0 / 3.0) * s
    return q


# -- cancellation ------------------------------------------------------------------


def test_cancellation_checks_transform_u_once(monkeypatch):
    # Omega is taken from the velocity gradient each check already holds;
    # one trial at n = 16, including the Leray round trip of random_velocity
    g = Grid(16)
    counts = {"r2c": 0, "c2r": 0}

    def counted(fn, kind):
        def wrapper(self, f):
            counts[kind] += int(np.prod(np.shape(f)[:-2]))
            return fn(self, f)
        return wrapper

    monkeypatch.setattr(Grid, "rfft", counted(Grid.rfft, "r2c"))
    monkeypatch.setattr(Grid, "irfft", counted(Grid.irfft, "c2r"))
    assert C.cancellation_ensemble(g, trials=1).passed
    assert counts == {"r2c": 9, "c2r": 11}
    counts.update(r2c=0, c2r=0)
    assert C.transport_cancellation_check(g, trials=1).passed
    assert counts == {"r2c": 9, "c2r": 16}


def test_cancellation_zero_velocity(grid):
    rng = np.random.default_rng(0)
    q1, q2 = random_qtensor(grid, rng), random_qtensor(grid, rng)
    rep = C.cancellation_check(grid, q1, q2, np.zeros((2, grid.n, grid.n)))
    assert rep.passed and rep.measured["term1"] == 0.0 and rep.measured["term2"] == 0.0


def test_cancellation_constant_q(grid):
    rng = np.random.default_rng(1)
    q = uniaxial(grid, 0.5)
    u = random_velocity(grid, rng)
    rep = C.cancellation_check(grid, q, q, u)
    assert rep.passed
    assert abs(rep.measured["term1"]) <= 1e-12 and abs(rep.measured["term2"]) <= 1e-12


def test_cancellation_random_triple(grid):
    rng = np.random.default_rng(2)
    rep = C.cancellation_check(grid, random_qtensor(grid, rng), random_qtensor(grid, rng),
                               random_velocity(grid, rng))
    assert rep.passed and rep.measured["sum_rel"] <= 1e-12


def test_cancellation_ensemble_deterministic(grid):
    r1 = C.cancellation_ensemble(grid, trials=10, seed=3)
    r2 = C.cancellation_ensemble(grid, trials=10, seed=3)
    assert r1.passed and r1.measured == r2.measured


def test_transport_cancellations(grid):
    rep = C.transport_cancellation_check(grid, trials=25, seed=0)
    assert rep.passed and rep.measured["worst_rel"] <= 1e-12


# -- LP machinery -------------------------------------------------------------------


def test_partition_unity_reports(grid):
    rep = C.partition_unity_check(grid)
    assert rep.passed and rep.measured["max_dev"] <= 1e-12


def test_bony_and_sym_decomp_small(grid):
    assert C.bony_check(grid, trials=10, seed=0).passed
    assert C.sym_decomp_check(grid, trials=3, seed=0).passed


def test_commutator_estimate_baseline_behaviour(grid, monkeypatch):
    rep = C.commutator_estimate_check(grid, trials=25, seed=0)
    assert rep.passed  # no baseline at 64^2: pass iff finite
    monkeypatch.setitem(C.BASELINES, "commutator_estimate",
                        {"C": rep.fitted["C"] / 2.0, "n": grid.n, "trials": 25})
    tight = C.commutator_estimate_check(grid, trials=25, seed=0)
    assert not tight.passed and tight.tolerance == C.SLACK * rep.fitted["C"] / 2.0


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_commutator_estimate_marks_vacuous_fit(seed):
    # at n = 8 these two-trial ensembles leave no denominator above the
    # floor, so C* = 0 was fitted from no trial: a vacuous pass, said so
    rep = C.commutator_estimate_check(Grid(8), trials=2, seed=seed)
    assert rep.passed and rep.note == "vacuous" and rep.fitted == {"C": 0.0}
    assert str(rep).endswith("[vacuous]")
    assert C.commutator_estimate_check(Grid(8), trials=2, seed=2).note != "vacuous"


def test_neg_index_and_product_checks(grid):
    rep = C.neg_index_check(grid, -0.5, trials=25, seed=0)
    assert rep.passed and 0.9 <= rep.measured["ratio_min"] <= rep.measured["ratio_max"] <= 1.0
    rep2 = C.product_law_check(grid, 0.5, 0.5, trials=50, seeds=(0, 1))
    assert math.isfinite(rep2.measured["max_ratio"])
    with pytest.raises(ValueError):
        C.product_law_check(grid, 0.9, -0.9, trials=10)


def test_linf_interp_single_mode(grid):
    # single mode: every norm comes from one multiplier entry, so the
    # inequality can be certified directly
    part = DyadicPartition(grid)
    x, _ = grid.nodes()
    f = np.cos(8 * x)
    fh = grid.rfft(f)
    linf = np.abs(f).max()
    l2 = grid.norm_l2(f)
    h1 = math.sqrt(grid.inner_hat(fh, fh, 1.0 + grid.ksq))
    hs1 = math.sqrt(part.hs_norm2_hat(fh, 1.5))
    for nn in range(1, 11):
        rhs = l2 + math.sqrt(nn) * h1 + 2.0 ** (-0.5 * nn) * hs1
        assert linf <= rhs  # C = 1 suffices for a pure mode on this box


def test_linf_interp_ensemble(grid):
    rep = C.linf_interp_check(grid, s=0.5, trials=25, seed=0)
    assert rep.passed and rep.fitted["C"] < 1.0


# -- trajectory checks ----------------------------------------------------------------


@pytest.fixture(scope="module")
def gentle_traj(grid):
    init = smooth_state(grid)
    return run(grid, init, params(), TimeConfig(dt=4e-3, t_end=0.3), hs_probes=(0.5,))


def test_energy_residual_single(gentle_traj):
    rep = C.energy_balance_check([gentle_traj])
    assert rep.passed and rep.note == "single run"


def test_energy_balance_convergence(grid):
    init = smooth_state(grid)
    p = params()
    trajs = [run(grid, init, p, TimeConfig(dt=dt, t_end=0.3)) for dt in (4e-3, 2e-3, 1e-3)]
    rep = C.energy_balance_check(trajs)
    assert rep.passed
    assert min(v for k, v in rep.measured.items() if k.startswith("order")) >= 1.9


def test_lp_bound_zero_and_decay(grid):
    zero = State(np.zeros((2, grid.n, grid.n)), np.zeros((5, grid.n, grid.n)))
    traj0 = run(grid, zero, params(), TimeConfig(dt=0.01, t_end=0.05))
    rep0 = C.lp_bound_check(traj0, 1)
    assert rep0.passed and rep0.note == "vacuous"

    # pure relaxation decays; C = 0 suffices
    init = State(np.zeros((2, grid.n, grid.n)), uniaxial(grid, 0.3))
    traj = run(grid, init, params(a=0.6, b=0.0), TimeConfig(dt=5e-3, t_end=0.3))
    rep = C.lp_bound_check(traj, 1)
    assert rep.passed and rep.fitted["C"] == 0.0


def test_lp_bound_growth_finite(grid):
    # bulk pumping (a < 0) grows Q until the cubic term saturates
    p = params(a=-2.0, b=0.3, c=1.0, gamma=1.5, L=0.1)
    init = smooth_state(grid, amp_u=0.05, amp_q=0.05, kmax=2)
    traj = run(grid, init, p, TimeConfig(dt=5e-3, t_end=1.0))
    for pexp in (1, 2, 3):
        rep = C.lp_bound_check(traj, pexp)
        assert rep.passed and math.isfinite(rep.fitted["C"])
    assert C.lp_bound_check(traj, 1).fitted["C"] > 0.0


def test_osgood_zero_trajectory(grid):
    zero = State(np.zeros((2, grid.n, grid.n)), np.zeros((5, grid.n, grid.n)))
    traj = run(grid, zero, params(), TimeConfig(dt=0.01, t_end=0.05), hs_probes=(0.5,))
    diag = C.osgood_check(traj, 0.5)
    assert diag.C == 0.0 and diag.verdict.all()


def test_osgood_decaying_run(gentle_traj):
    diag = C.osgood_check(gentle_traj, 0.5)
    assert math.isfinite(diag.C) and diag.C >= 0.0
    assert diag.verdict.all()
    assert diag.report.passed
    assert np.all(diag.f1 >= 1.0)


def test_osgood_requires_probes(grid):
    init = smooth_state(grid)
    traj = run(grid, init, params(), TimeConfig(dt=0.01, t_end=0.03))
    with pytest.raises(KeyError):
        C.osgood_check(traj, 0.5)


def test_fitted_constants_stable_under_refinement(grid):
    # regression guard at the frozen configuration: refinement must not
    # degrade the fitted growth constant (2% measurement slack)
    from tests.test_timestepping import upsample

    p = params()
    g32 = Grid(32)
    init32 = smooth_state(g32, kmax=6)
    cs = []
    for n, dt in ((32, 4e-3), (64, 2e-3)):
        g = Grid(n)
        init = init32 if n == 32 else State(upsample(g32, init32.u, g),
                                            upsample(g32, init32.q, g))
        traj = run(g, init, p, TimeConfig(dt=dt, t_end=0.5), hs_probes=(0.5,))
        cs.append(C.osgood_check(traj, 0.5).C)
    assert cs[1] <= cs[0] * 1.02


# -- twin checks ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def twin_pair(grid):
    init = smooth_state(grid)
    tc = TimeConfig(dt=4e-3, t_end=0.2)
    return (twin_run(grid, init, Perturbation(0.0), params(), tc),
            twin_run(grid, init, Perturbation(1e-4, seed=9), params(), tc))


def test_uniqueness_identical(twin_pair):
    rep = C.uniqueness_check(twin_pair[0])
    assert rep.passed and rep.note == "identical data"
    assert rep.measured["phi_max"] == 0.0


def test_uniqueness_perturbed(twin_pair):
    rep = C.uniqueness_check(twin_pair[1])
    assert rep.passed
    assert math.isfinite(rep.fitted["C"]) and rep.fitted["C"] >= 0.0
    assert rep.measured["chi_int"] > 0.0


def test_difference_regularity(twin_pair):
    zero = C.difference_regularity_check(twin_pair[0])
    assert zero.passed and zero.measured["sup_du_hm"] == 0.0
    rep = C.difference_regularity_check(twin_pair[1])
    assert rep.passed
    assert rep.measured["sup_du_hm"] > 0.0 and math.isfinite(rep.fitted["C_interp"])


def test_difference_regularity_single_mode(grid):
    # closed-form check of the weak-norm channels on a one-mode difference
    part = DyadicPartition(grid)
    x, y = grid.nodes()
    du = np.stack([np.sin(2 * y), np.zeros_like(x)])  # div-free single mode
    base = smooth_state(grid)
    pert = State(base.u + du, base.q.copy())
    from qflow.timestepping import _twin_probes, probe_weights

    w = part.sobolev_weight(-0.5)
    members = [(grid.band.rfft(st.u), grid.band.rfft(st.q)) for st in (base, pert)]
    row = _twin_probes(grid, probe_weights(grid, part, (-0.5,)), *members, params())
    duh = grid.rfft(du)
    expect = grid.inner_hat(duh, duh, w)
    assert row["du_hm2"] == pytest.approx(expect, rel=1e-12)
    # one mode at |k| = 2: the weight table gives the norm exactly
    k2 = 2.0
    wval = sum(4.0 ** (q * -0.5) * float(
        (np.isclose(grid.kmag, k2) * part.phi[q]).max()) ** 2 for q in part.qs)
    assert expect == pytest.approx(wval * grid.inner(du, du), rel=1e-10)


def test_gronwall_majorant_positive(twin_pair):
    chi = C.gronwall_majorant(twin_pair[1])
    assert np.all(chi > 0.0)


# -- force estimate -----------------------------------------------------------------------


def test_force_estimate_zero_vacuous(grid):
    p = params()
    part = DyadicPartition(grid)
    q = np.zeros((5, grid.n, grid.n))
    pq = bulk_force(q, p)
    w = part.sobolev_weight(0.5)
    assert grid.inner_hat(grid.rfft(pq), grid.rfft(pq), w) == 0.0


def test_force_estimate_uniaxial_closed_form(grid):
    # modulated uniaxial tensor: both sides reduce to scalar-field algebra
    p = params(a=0.3, b=0.9, c=1.1)
    part = DyadicPartition(grid)
    x, _ = grid.nodes()
    s = 0.4 * np.cos(x)
    q = uniaxial(grid, s)
    qh = grid.rfft(q)
    w = part.sobolev_weight(0.5)
    pq = bulk_force(q, p)
    lapq = grid.irfft(grid.laplacian_hat(qh))
    lhs = grid.inner_hat(grid.rfft(pq), grid.rfft(lapq), w)

    # scalar oracle: P(Q) = (-a s + b s^2/3 - 2 c s^3/3)(e3.e3 - Id/3)
    fs = -p.a * s + p.b * s**2 / 3.0 - 2.0 * p.c * s**3 / 3.0
    laps = grid.laplacian(s)
    expect = (2.0 / 3.0) * grid.inner_hat(grid.rfft(fs), grid.rfft(laps), w)
    assert lhs == pytest.approx(expect, rel=1e-10)


def test_force_estimate_ensemble(grid):
    rep = C.force_estimate_check(grid, params(), s=0.5, trials=20, seed=0)
    assert rep.passed and math.isfinite(rep.fitted["ratio"])


# -- Friedrichs consistency ----------------------------------------------------------------


def test_friedrichs_gap_monotone():
    g = Grid(32)
    rng = np.random.default_rng(4)
    init = State(0.4 * random_velocity(g, rng, kmax=8, decay=1.0),
                 0.3 * random_qtensor(g, rng, kmax=8, decay=1.0))
    rep = C.friedrichs_consistency_check(g, init, params(), TimeConfig(dt=4e-3, t_end=0.25),
                                         cutoffs=(2, 4, 8))
    assert rep.passed
    gaps = [rep.measured[f"gap_n{m}"] for m in (2, 4, 8)]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
def test_cumulative_trapezoid_matches_scipy(n):
    # the numpy helper repeats scipy's operations in scipy's order: equal bit for bit
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(0.01, 1.0, n))  # non-uniform samples
    y = rng.normal(size=n)
    got = C._cumulative_trapezoid(y, t)
    assert np.array_equal(got, cumulative_trapezoid(y, t, initial=0.0))
    assert got.dtype == np.float64 and got.shape == (n,)
