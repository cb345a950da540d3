"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy shared runs
(the 128^2 energy-refinement trio, the growth pair, the twin set) are
session fixtures, so the whole suite stays inside a desk-scale budget.
"""

import math
import time

import numpy as np
import pytest

from qflow import checks as C
from qflow.dyadic import DyadicPartition, product_estimate_sample
from qflow.qtensor import ModelParams, State, random_qtensor
from qflow.spectral import Grid, random_velocity
from qflow.timestepping import Perturbation, TimeConfig, run, twin_run

GENTLE = ModelParams(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
GROWTH = ModelParams(a=-2.0, b=0.3, c=1.0, gamma=1.5, nu=0.25, L=0.1)


def announce(num: int, name: str, passed: bool, detail: str, elapsed: float | None = None) -> None:
    verdict = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:2d} {name}: {verdict} ({detail}){timing}")


def smooth_state(grid, seed=42, amp_u=0.4, amp_q=0.3, kmax=4.0, decay=1.5):
    rng = np.random.default_rng(seed)
    return State(amp_u * random_velocity(grid, rng, kmax=kmax, decay=decay),
                 amp_q * random_qtensor(grid, rng, kmax=kmax, decay=decay))


@pytest.fixture(scope="session")
def grid128():
    return Grid(128)


@pytest.fixture(scope="session")
def energy_refinement_runs(grid128):
    """Fixed smooth 128^2 run to t=1 at dt, dt/2, dt/4."""
    init = smooth_state(grid128)
    start = time.time()
    trajs = [run(grid128, init, GENTLE, TimeConfig(dt=dt, t_end=1.0))
             for dt in (4e-3, 2e-3, 1e-3)]
    return trajs, time.time() - start


@pytest.fixture(scope="session")
def twin_set():
    """Twin runs to t=0.5 at 64^2: identical data plus eps in {1e-4, 1e-5}."""
    g = Grid(64)
    init = smooth_state(g, seed=5, kmax=6)
    tc = TimeConfig(dt=2e-3, t_end=0.5)
    out = {}
    for eps in (0.0, 1e-4, 1e-5):
        out[eps] = twin_run(g, init, Perturbation(eps, seed=9), GENTLE, tc)
    return out


def test_criterion_01_partition_of_unity():
    start = time.time()
    rep = C.partition_unity_check(Grid(256))
    elapsed = time.time() - start
    ok = rep.passed and rep.tolerance == 1e-12 and elapsed < 1.0
    announce(1, "partition of unity (256^2)", ok,
             f"max_dev={rep.measured['max_dev']:.3g}", elapsed)
    assert ok


def test_criterion_02_bony_and_sym_decomp(grid128):
    start = time.time()
    rep_b = C.bony_check(grid128, trials=100, seed=0)
    rep_s = C.sym_decomp_check(grid128, trials=100, seed=0)
    elapsed = time.time() - start
    ok = rep_b.passed and rep_s.passed and rep_b.tolerance == rep_s.tolerance == 1e-10
    ok &= elapsed < 30.0
    announce(2, "Bony + symmetric decomposition (128^2, 100 pairs)", ok,
             f"bony={rep_b.measured['worst_rel']:.3g} "
             f"sym={rep_s.measured['worst_rel']:.3g}", elapsed)
    assert ok


def test_criterion_03_cancellation():
    start = time.time()
    rep = C.cancellation_ensemble(Grid(64), trials=1000, seed=0)
    elapsed = time.time() - start
    ok = rep.passed and rep.tolerance == 1e-8 and elapsed < 60.0
    announce(3, "commutator cancellation (1000 triples, 64^2)", ok,
             f"worst_rel={rep.measured['worst_rel']:.3g}", elapsed)
    assert ok


def test_criterion_04_transport_cancellations():
    rep = C.transport_cancellation_check(Grid(64), trials=100, seed=0)
    ok = rep.passed and rep.tolerance == 1e-10
    announce(4, "Leray/transport cancellations (100 samples)", ok,
             f"worst_rel={rep.measured['worst_rel']:.3g}")
    assert ok


def test_criterion_05_energy_balance(energy_refinement_runs):
    trajs, run_time = energy_refinement_runs
    rep = C.energy_balance_check(trajs)
    orders = [v for k, v in rep.measured.items() if k.startswith("order")]
    ok = rep.passed and rep.tolerance == 1.9 and run_time < 300.0
    announce(5, "energy balance refinement (128^2, t=1)", ok,
             f"orders={[round(o, 3) for o in orders]}", run_time)
    assert ok


def test_criterion_06_lp_growth_bound(grid128):
    start = time.time()
    fitted = {}
    trajs = {}
    for seed in (5, 6):
        rng = np.random.default_rng(seed)
        init = State(0.05 * random_velocity(grid128, rng, kmax=1.5),
                     0.05 * random_qtensor(grid128, rng, kmax=1.5))
        trajs[seed] = run(grid128, init, GROWTH, TimeConfig(dt=5e-3, t_end=1.0))
        fitted[seed] = {p: C.lp_bound_check(trajs[seed], p).fitted["C"] for p in (1, 2, 3)}
    ok = True
    details = []
    for p in (1, 2, 3):
        c1, c2 = fitted[5][p], fitted[6][p]
        ok &= math.isfinite(c1) and math.isfinite(c2) and c1 > 0 and c2 > 0
        ok &= abs(c1 - c2) <= 0.10 * max(c1, c2)
        # cross-validation: the seed-5 constant (with its 10% slack) must
        # majorize the rerun's series against the rerun's own H^1 datum
        t = trajs[6].times
        qn = trajs[6].series[f"l2p{p}_q"]
        h1 = math.sqrt(trajs[6].series["l2_q2"][0] + trajs[6].series["gradq2"][0])
        ok &= bool(np.all(qn <= h1 * np.exp(1.1 * c1 * (t - t[0])) * (1 + 1e-9)))
        details.append(f"p={p}: C=({c1:.3f},{c2:.3f})")
    announce(6, "L^2p growth majorant (128^2, two seeds)", ok,
             "; ".join(details), time.time() - start)
    assert ok


def test_criterion_07_product_law_sampler(grid128):
    start = time.time()
    part = DyadicPartition(grid128)
    ok = True
    details = []
    for (s, t) in ((0.5, 0.5), (0.75, -0.25), (-0.25, 0.75), (0.9, 0.2)):
        maxima = [product_estimate_sample(part, s, t, 100, seed=sd)["max"]
                  for sd in (0, 1, 2)]
        drift = (max(maxima) - min(maxima)) / float(np.mean(maxima))
        ok &= all(math.isfinite(m) for m in maxima) and drift <= 0.05
        details.append(f"({s},{t}): max={max(maxima):.3g} drift={drift:.3f}")
    with pytest.raises(ValueError):
        product_estimate_sample(part, 0.9, -0.9, 10)
    details.append("(0.9,-0.9): rejected")
    announce(7, "product-law sampler (128^2, 3 seeds)", ok,
             "; ".join(details), time.time() - start)
    assert ok


def test_criterion_08_linf_interpolation(grid128):
    start = time.time()
    ok = True
    details = []
    for s in (0.25, 0.5, 1.0):
        rep = C.linf_interp_check(grid128, s=s, trials=100, seed=0)
        ok &= rep.passed and math.isfinite(rep.fitted["C"])
        details.append(f"s={s}: C={rep.fitted['C']:.4f}")
    announce(8, "three-term sup-norm bound, one C for N=1..10", ok,
             "; ".join(details), time.time() - start)
    assert ok


def test_criterion_09_uniqueness_contraction(twin_set):
    d0, d1, d2 = twin_set[0.0], twin_set[1e-4], twin_set[1e-5]
    rep0 = C.uniqueness_check(d0)
    ok = rep0.passed and rep0.measured["phi_max"] == 0.0

    rep1, rep2 = C.uniqueness_check(d1), C.uniqueness_check(d2)
    ok &= rep1.passed and rep2.passed
    c_joint = max(rep1.fitted["C"], rep2.fitted["C"])
    # one fitted constant validates both Gronwall envelopes
    from scipy.integrate import cumulative_trapezoid

    for d in (d1, d2):
        chi = C.gronwall_majorant(d)
        integ = cumulative_trapezoid(chi, d.times, initial=0.0)
        phi = d.series["phi"]
        ok &= bool(np.all(phi <= phi[0] * np.exp(c_joint * integ) * (1 + 1e-9)))

    ratio = d1.series["phi"][-1] / d2.series["phi"][-1]
    ok &= abs(ratio - 100.0) <= 20.0
    announce(9, "uniqueness contraction (twins at 64^2, t=0.5)", ok,
             f"phi_identical={rep0.measured['phi_max']:.1g}, C*={c_joint:.3g}, "
             f"eps^2 ratio={ratio:.2f}")
    assert ok


def test_criterion_10_osgood_machinery(grid128):
    start = time.time()
    init = smooth_state(grid128)
    traj = run(grid128, init, GENTLE, TimeConfig(dt=2e-3, t_end=1.0), hs_probes=(0.5,))
    diag = C.osgood_check(traj, 0.5)
    ok = math.isfinite(diag.C) and bool(diag.verdict.all())
    announce(10, "Osgood growth inequality + envelope (128^2, s=1/2)", ok,
             f"C*={diag.C:.4f}, envelope_ok={bool(diag.verdict.all())}",
             time.time() - start)
    assert ok


def test_criterion_11_force_estimate(grid128):
    start = time.time()
    ok = True
    details = []
    for s in (0.25, 0.5):
        r0 = C.force_estimate_check(grid128, GENTLE, s=s, trials=100, seed=0)
        r1 = C.force_estimate_check(grid128, GENTLE, s=s, trials=100, seed=1)
        a, b = r0.fitted["ratio"], r1.fitted["ratio"]
        ok &= r0.passed and r1.passed
        ok &= abs(a - b) <= 0.10 * max(a, b)
        details.append(f"s={s}: ratio=({a:.3g},{b:.3g})")
    announce(11, "bulk-force pairing bound (100 Q, frozen baseline)", ok,
             "; ".join(details), time.time() - start)
    assert ok


def test_criterion_12_friedrichs_consistency(grid128):
    start = time.time()
    rng = np.random.default_rng(7)
    init = State(0.4 * random_velocity(grid128, rng, kmax=20, decay=1.0),
                 0.3 * random_qtensor(grid128, rng, kmax=20, decay=1.0))
    rep = C.friedrichs_consistency_check(grid128, init, GENTLE,
                                         TimeConfig(dt=2.5e-3, t_end=0.5),
                                         cutoffs=(8, 16, 32))
    gaps = [rep.measured[f"gap_n{m}"] for m in (8, 16, 32)]
    announce(12, "Friedrichs-mode consistency (128^2, t=0.5)", rep.passed,
             f"gaps={[f'{g:.3g}' for g in gaps]}", time.time() - start)
    assert rep.passed
