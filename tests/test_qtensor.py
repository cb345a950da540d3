import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import qtensor
from qflow.qtensor import (
    S0_BASIS,
    ModelParams,
    State,
    _bulk_products,
    bulk_force,
    commutator12,
    mat_mul,
    nonlinear,
    q_to_mat,
    random_qtensor,
    s0_square,
    trace_q2,
    velocity_gradient,
    vorticity_mat,
)
from qflow.spectral import Grid, random_scalar, random_velocity
from tests.test_spectral import scatter


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def params(**kw):
    base = dict(a=-0.2, b=0.8, c=1.0, gamma=0.8, nu=0.25, L=0.4)
    base.update(kw)
    return ModelParams(**base)


def full_rhs(grid, s, p):
    """Full (u, Q) right-hand sides: nonlinear plus nu lap(u) and gamma L lap(Q)."""
    band = grid.band
    n_uh, n_qh = nonlinear(grid, band.rfft(s.u), band.rfft(s.q), p)
    return (band.irfft(n_uh) + p.nu * grid.laplacian(s.u),
            band.irfft(n_qh) + p.gamma * p.L * grid.laplacian(s.q))


def tensor_rhs(grid, s, p):
    return full_rhs(grid, s, p)[1]


def velocity_rhs(grid, s, p):
    return full_rhs(grid, s, p)[0]


# -- termwise oracles ----------------------------------------------------------
#
# Dense and physical-space forms of the model terms, each transforming its own
# inputs; the tests use them as the reference for `nonlinear`, which evaluates
# the same closed forms on one set of transformed planes, and takes the stress
# up to a gradient (three momentum planes where these take six).


def mat_to_q(m: np.ndarray) -> np.ndarray:
    """Project matrix entries (3, 3, n, n) onto the basis planes (5, n, n), the transpose GEMM.

    The projection discards any trace or antisymmetric part, so the result
    is the nearest S0 field in the Frobenius sense.
    """
    return (S0_BASIS.reshape(5, 9) @ m.reshape(9, -1)).reshape((5,) + m.shape[2:])


def trace_q3(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^3) via dense matrix products."""
    m = q_to_mat(q)
    return np.trace(mat_mul(mat_mul(m, m), m))


def corotate(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Commutator Omega Q - Q Omega for the planar spin Omega_12 = -Omega_21 = w.

    It generates rotations about e3: E2 stays fixed, (E1, E3) turn at rate
    2w and (E4, E5) at rate w.
    """
    out = np.empty_like(q)
    out[0] = 2.0 * w * q[2]
    out[1] = 0.0
    out[2] = -2.0 * w * q[0]
    out[3] = w * q[4]
    out[4] = -w * q[3]
    return out


def gradient_gram(d1q: np.ndarray, d2q: np.ndarray) -> np.ndarray:
    """(grad Q o grad Q)_ij = tr(d_i Q d_j Q) as the planes (11, 12, 22), shape (3, n, n)."""
    return np.stack([np.sum(d1q * d1q, axis=0), np.sum(d1q * d2q, axis=0),
                     np.sum(d2q * d2q, axis=0)])


def _stress_planes(out: np.ndarray, q: np.ndarray, lap: np.ndarray, d1q: np.ndarray,
                   d2q: np.ndarray) -> np.ndarray:
    """Write the four stress planes (Q lapQ - lapQ Q)_12, G_11, G_12, G_22 into out.

    G = grad Q o grad Q; the inputs are the physical planes Q, lap Q, d1 Q
    and d2 Q (lap[1] is not read, see commutator12), and out has shape
    (4, n, n).
    """
    out[0] = commutator12(q, lap)
    out[1:] = gradient_gram(d1q, d2q)
    return out


def _stress_div_hat(grid: Grid, sh: np.ndarray) -> np.ndarray:
    """(div S)_j = d_i S_ij of the planar stress from its four spectral planes.

    S_11 = -G_11, S_12 = C - G_12, S_21 = -C - G_12, S_22 = -G_22 with C the
    commutator entry; two planes of sh's layout.
    """
    ik1, ik2 = 1j * grid.k1, 1j * grid.k2
    comm, g11, g12, g22 = sh
    return np.stack([-ik1 * g11 - ik2 * (g12 + comm), ik1 * (comm - g12) - ik2 * g22])


def dealiased_bulk_force(grid: Grid, q: np.ndarray, p: ModelParams) -> np.ndarray:
    """bulk_force with its products dealiased (two-thirds rule, tr(Q^2) first)."""
    return -p.a * q + grid.dealias(_bulk_products(q, p.c * grid.dealias(trace_q2(q)), p))


def corotation(grid: Grid, q: np.ndarray, u: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Commutator Omega Q - Q Omega rotating the tensor with the flow."""
    uh = grid.rfft(u)
    w = grid.irfft(0.5 * (grid.deriv_hat(uh[1], 1) - grid.deriv_hat(uh[0], 2)))
    out = corotate(w, q)
    return grid.dealias(out) if dealias else out


def advect(grid: Grid, u: np.ndarray, f: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Transport term u . grad f for a field of any component count."""
    df = grid.gradient(grid.rfft(f))
    out = u[0] * df[0] + u[1] * df[1]
    return grid.dealias(out) if dealias else out


def _termwise_stress_planes(grid: Grid, q: np.ndarray) -> np.ndarray:
    """_stress_planes of Q, transforming its own derivative planes."""
    qh = grid.rfft(q)
    return _stress_planes(np.empty((4,) + q.shape[1:]), q, grid.irfft(grid.laplacian_hat(qh)),
                          *grid.gradient(qh))


def stress_tensor(grid: Grid, q: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Upper-left 2x2 block of Q lap(Q) - lap(Q) Q - grad(Q) o grad(Q).

    Only this block feeds the planar force; (grad Q o grad Q)_{ij} is
    tr(d_i Q d_j Q).  Shape (2, 2, n, n).
    """
    comm, g11, g12, g22 = _termwise_stress_planes(grid, q)
    sigma = np.array([[-g11, comm - g12], [-comm - g12, -g22]])
    return grid.dealias(sigma) if dealias else sigma


def elastic_stress_div(grid: Grid, q: np.ndarray, p: ModelParams) -> np.ndarray:
    """Planar components of L div{ Q lap(Q) - lap(Q) Q - grad(Q) o grad(Q) }.

    The divergence contracts the derivative with the row index,
    (div S)_j = d_i S_{ij}, which is the convention under which the
    corotation and stress contributions to the energy cancel exactly.
    """
    sh = grid.dealias_mask * grid.rfft(_termwise_stress_planes(grid, q))
    return p.L * grid.irfft(_stress_div_hat(grid, sh))


def uniaxial(grid, s):
    """Q = s (e3.e3 - Id/3) for a scalar field or constant s."""
    q = np.zeros((5, grid.n, grid.n))
    q[1] = -np.sqrt(2.0 / 3.0) * s
    return q


def test_basis_orthonormal_traceless():
    for a in range(5):
        ea = S0_BASIS[a]
        assert abs(np.trace(ea)) <= 1e-15
        assert np.abs(ea - ea.T).max() == 0.0
        for b in range(5):
            assert abs(np.trace(S0_BASIS[a] @ S0_BASIS[b]) - (a == b)) <= 1e-15


def test_mat_roundtrip_and_frobenius(grid):
    rng = np.random.default_rng(0)
    q = random_qtensor(grid, rng)
    m = q_to_mat(q)
    assert m.shape == (3, 3, grid.n, grid.n)
    assert np.abs(np.trace(m)).max() <= 1e-14
    assert np.abs(m - m.swapaxes(0, 1)).max() == 0.0
    assert np.abs(mat_to_q(m) - q).max() <= 1e-14
    frob = np.sum(m * m, axis=(0, 1))
    assert np.abs(frob - trace_q2(q)).max() <= 1e-13


def test_params_constraints():
    with pytest.raises(ValueError):
        params(c=-1.0)
    with pytest.raises(ValueError):
        params(c=0.0)
    with pytest.raises(ValueError):
        params(nu=-0.1)
    with pytest.raises(ValueError):
        params(n_cutoff=0)


def test_bulk_force_zero(grid):
    p = params()
    q = np.zeros((5, grid.n, grid.n))
    assert np.abs(bulk_force(q, p)).max() == 0.0


def test_bulk_force_uniaxial_formula(grid):
    # P(s(e3.e3 - Id/3)) = (-a + b s/3 - 2 c s^2/3) s (e3.e3 - Id/3)
    p = params(a=0.3, b=1.1, c=0.9)
    s = 0.7
    q = uniaxial(grid, s)
    got = bulk_force(q, p)
    factor = -p.a + p.b * s / 3.0 - 2.0 * p.c * s**2 / 3.0
    assert np.abs(got - factor * q).max() <= 1e-13


def test_bulk_force_matches_dense_oracle(grid):
    rng = np.random.default_rng(1)
    p = params()
    q = random_qtensor(grid, rng)
    m = q_to_mat(q)
    m2 = mat_mul(m, m)
    tr2 = np.trace(m2)
    eye = np.eye(3)[:, :, None, None]
    expect = -p.a * m + p.b * (m2 - tr2 * eye / 3.0) - p.c * tr2 * m
    got = q_to_mat(bulk_force(q, p))  # pointwise evaluation, no dealiasing
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
    # trace-free to near machine precision for every point
    assert np.abs(np.trace(got)).max() <= 1e-14


def test_molecular_field(grid):
    # at rest the Q right-hand side is gamma (P(Q) + L lap Q)
    p = params(a=0.4, b=0.7, c=1.2)
    q = uniaxial(grid, 0.5)  # constant in space
    h = tensor_rhs(grid, State(np.zeros((2, grid.n, grid.n)), q), p) / p.gamma
    assert np.abs(h - bulk_force(q, p)).max() <= 1e-12

    x, _ = grid.nodes()
    p0 = params(a=0.0, b=0.0, c=1e-14)
    q = np.zeros((5, grid.n, grid.n))
    q[0] = np.sin(x)
    h = tensor_rhs(grid, State(np.zeros((2, grid.n, grid.n)), q), p0) / p0.gamma
    assert np.abs(h + p0.L * q).max() <= 1e-11


def test_corotation_examples(grid):
    rng = np.random.default_rng(2)
    q = random_qtensor(grid, rng)
    assert np.abs(corotation(grid, q, np.zeros((2, grid.n, grid.n)))).max() == 0.0

    # planar Q = diag(1,-1,0), Omega_12 = 1 at x = 0 via u = (0, 2 sin x)
    x, _ = grid.nodes()
    u = np.stack([np.zeros_like(x), 2.0 * np.sin(x)])
    qc = np.zeros((5, grid.n, grid.n))
    qc[0] = np.sqrt(2.0)  # diag(1,-1,0)
    out = q_to_mat(corotation(grid, qc, u, dealias=False))
    col0 = out[..., 0, 0]  # the matrix at x = 0
    assert abs(col0[0, 1] + 2.0) <= 1e-12 and abs(col0[1, 0] + 2.0) <= 1e-12
    assert np.abs(np.diagonal(col0)).max() <= 1e-12

    u_rand = random_velocity(grid, rng)
    flipped = corotation(grid, q, -u_rand)
    assert np.abs(flipped + corotation(grid, q, u_rand)).max() <= 1e-13


def test_corotation_output_symmetric_traceless(grid):
    rng = np.random.default_rng(3)
    q = random_qtensor(grid, rng)
    u = random_velocity(grid, rng)
    m = q_to_mat(corotation(grid, q, u))
    assert np.abs(m - m.swapaxes(0, 1)).max() == 0.0
    assert np.abs(np.trace(m)).max() <= 1e-14
    # basis projection is lossless here: the dense commutator is already in S0
    om = vorticity_mat(velocity_gradient(grid, u))
    mq = q_to_mat(q)
    dense = mat_mul(om, mq) - mat_mul(mq, om)
    assert np.abs(m - grid.dealias(dense)).max() <= 1e-12


def test_advection_examples(grid):
    x, _ = grid.nodes()
    u = np.stack([np.ones_like(x), np.zeros_like(x)])
    assert np.abs(advect(grid, u, np.ones_like(x))).max() <= 1e-13
    out = advect(grid, u, np.sin(x), dealias=False)
    assert np.abs(out - np.cos(x)).max() <= 1e-12

    rng = np.random.default_rng(4)
    udiv = random_velocity(grid, rng)
    f = random_scalar(grid, rng)
    mean = abs(grid.integral(advect(grid, udiv, f)))
    assert mean <= 1e-10 * grid.norm_l2(udiv) * grid.norm_l2(f)


def test_stress_divergence_examples(grid):
    p = params()
    q0 = uniaxial(grid, 0.3)
    assert np.abs(elastic_stress_div(grid, q0, p)).max() <= 1e-12

    rng = np.random.default_rng(5)
    q = random_qtensor(grid, rng)
    force = elastic_stress_div(grid, q, p)
    assert np.abs(force.mean(axis=(-2, -1))).max() <= 1e-10 * np.abs(force).max()


def test_stress_duality(grid):
    # <div S, u> = -<S, grad u> under the Frobenius pairing, by quadrature
    rng = np.random.default_rng(6)
    p = params()
    q = random_qtensor(grid, rng)
    u = random_velocity(grid, rng)
    force = elastic_stress_div(grid, q, p)
    sigma = p.L * stress_tensor(grid, q)
    uh = grid.rfft(u)
    pairing = 0.0
    for i in range(2):
        for j in range(2):
            pairing += grid.inner(sigma[i, j], grid.irfft(grid.deriv_hat(uh[j], i + 1)))
    lhs = grid.inner(force, u)
    assert abs(lhs + pairing) <= 1e-8 * (abs(lhs) + abs(pairing))


def test_tensor_rhs_examples(grid):
    p = params(a=0.5, b=0.0, c=1e-14, gamma=1.3)
    q = uniaxial(grid, 0.4)
    s = State(np.zeros((2, grid.n, grid.n)), q)
    rhs = tensor_rhs(grid, s, p)
    assert np.abs(rhs + p.gamma * p.a * q).max() <= 1e-12

    rng = np.random.default_rng(7)
    s2 = State(random_velocity(grid, rng), random_qtensor(grid, rng))
    m = q_to_mat(tensor_rhs(grid, s2, params()))
    assert np.abs(np.trace(m)).max() <= 1e-13


def test_friedrichs_wrapping(grid):
    # velocity modes outside the annulus [1/m, m] do not transport Q
    x, y = grid.nodes()
    p = params(n_cutoff=2)
    u_high = np.stack([np.sin(5 * y), np.sin(5 * x)])  # |k|=5 > m=2: erased by the cutoff
    rng = np.random.default_rng(8)
    q = random_qtensor(grid, rng)
    s = State(u_high, q)
    rhs_cut = tensor_rhs(grid, s, p)
    rhs_ref = tensor_rhs(grid, State(np.zeros_like(u_high), q), params())
    assert np.abs(rhs_cut - p.gamma / params().gamma * rhs_ref).max() <= 1e-11

    # momentum nonlinearities are annulus-supported in Friedrichs mode
    p4 = params(n_cutoff=4, nu=1e-12)
    s3 = State(random_velocity(grid, rng), q)
    rhsh = grid.rfft(velocity_rhs(grid, s3, p4))
    outside = (grid.kmag < 1.0 / 4.0) | (grid.kmag > 4.0)
    assert np.abs(rhsh[:, outside]).max() <= 1e-9 * np.abs(rhsh).max()


def test_nonlinear_friedrichs_matches_termwise_cut(grid):
    # J_n P is linear: cutting the summed momentum terms once equals cutting
    # the advection and stress terms apart
    rng = np.random.default_rng(16)
    p = params(n_cutoff=4)
    s = State(random_velocity(grid, rng), random_qtensor(grid, rng))
    band = grid.band
    n_uh, n_qh = nonlinear(grid, band.rfft(s.u), band.rfft(s.q), p)
    n_u, n_q = band.irfft(n_uh), band.irfft(n_qh)
    ucut = grid.irfft(grid.freq_cutoff_hat(grid.rfft(s.u), 4))
    advh = grid.freq_cutoff_hat(grid.leray_hat(-grid.rfft(advect(grid, ucut, ucut))), 4)
    stressh = grid.freq_cutoff_hat(grid.leray_hat(grid.rfft(elastic_stress_div(grid, s.q, p))), 4)
    expect = grid.irfft(advh + stressh)
    assert np.abs(n_u - expect).max() <= 1e-12 * np.abs(expect).max()
    ref_q = (-advect(grid, ucut, s.q) + corotation(grid, s.q, ucut)
             + p.gamma * dealiased_bulk_force(grid, s.q, p))
    assert np.abs(n_q - ref_q).max() <= 1e-12 * np.abs(ref_q).max()


def test_nonlinear_on_out_of_band_coefficients_matches_full_transforms(monkeypatch):
    # unmasked coefficients of an n = 16, kmax = 6 > n/3 state reach past
    # column n//3; nonlinear takes their band block, and every band inverse
    # equals irfft2 of the scattered block bit for bit
    g = Grid(16)
    rng = np.random.default_rng(17)
    uh = g.rfft(random_velocity(g, rng, kmax=6))
    qh = g.rfft(random_qtensor(g, rng, kmax=6))
    assert uh[..., g.n // 3 + 1:].any() and qh[..., g.n // 3 + 1:].any()
    p = params()
    got = nonlinear(g, g.band.gather(uh), g.band.gather(qh), p)
    monkeypatch.setattr(Grid, "irfft", lambda self, fh: scipy.fft.irfft2(
        scatter(self, fh) if self.m is not None else fh, s=(self.n, self.n), axes=(-2, -1),
        workers=self.workers))
    for a, b in zip(got, nonlinear(g, g.band.gather(uh), g.band.gather(qh), p)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, length, n_cutoff", [(64, 2 * np.pi, None), (64, 3.7, None),
                                                (32, 2 * np.pi, 4)])
def test_nonlinear_momentum_matches_six_plane_stress_form(n, length, n_cutoff):
    # N_u takes the stress as lap Q : grad Q up to a gradient; on in-band
    # fields it equals P[omega u_perp + L div S] with the four stress
    # planes, six momentum planes in all, dealiased before the divergence
    g = Grid(n, length)
    band = g.band
    rng = np.random.default_rng(18)
    p = params(n_cutoff=n_cutoff)
    uh, qh = band.rfft(random_velocity(g, rng)), band.rfft(random_qtensor(g, rng))
    got = nonlinear(g, uh, qh, p)[0]
    uh_cut = uh if n_cutoff is None else band.freq_cutoff_hat(uh, n_cutoff)
    u = band.irfft(uh_cut)
    omega = band.irfft(band.deriv_hat(uh_cut[1], 1) - band.deriv_hat(uh_cut[0], 2))
    adv = band.rfft(np.stack([omega * u[1], -omega * u[0]]))
    sh = band.rfft(_termwise_stress_planes(g, band.irfft(qh)))
    expect = band.leray_hat(adv + p.L * _stress_div_hat(band, sh))
    if n_cutoff is not None:
        expect = band.freq_cutoff_hat(expect, n_cutoff)
    expect[:, 0, 0] = 0.0
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("n, n_cutoff", [(128, None), (256, 8)])
def test_nonlinear_peak_memory(n, n_cutoff):
    # every plane of a stage dies at its last reader: the traced peak of one
    # call with its record stays within 36 (n, n) float planes (35.8 for the
    # nine-call stage at 256^2 with n_cutoff)
    import tracemalloc

    g = Grid(n)
    rng = np.random.default_rng(19)
    p = params(n_cutoff=n_cutoff)
    uh, qh = g.band.rfft(random_velocity(g, rng)), g.band.rfft(random_qtensor(g, rng))
    nonlinear(g, uh, qh, p, planes=True)  # caches outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = nonlinear(g, uh, qh, p, planes=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(out) == 3
    assert peak <= 36 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("n, length", [(32, 2 * np.pi), (64, 3.7)])
def test_closed_forms_match_dense_oracle(n, length):
    g = Grid(n, length)
    rng = np.random.default_rng(17)
    q = random_qtensor(g, rng)
    u = random_velocity(g, rng)
    m = q_to_mat(q)

    def close(got, expect):
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    close(s0_square(q), mat_to_q(mat_mul(m, m)))
    om = vorticity_mat(velocity_gradient(g, u))
    close(corotate(om[0, 1], q), mat_to_q(mat_mul(om, m) - mat_mul(m, om)))
    lap = g.laplacian(q)
    lm = q_to_mat(lap)
    close(commutator12(q, lap), (mat_mul(m, lm) - mat_mul(lm, m))[0, 1])
    d1q, d2q = g.gradient(g.rfft(q))
    dm = (q_to_mat(d1q), q_to_mat(d2q))
    close(gradient_gram(d1q, d2q),
          np.stack([np.trace(mat_mul(dm[i], dm[j])) for i, j in ((0, 0), (0, 1), (1, 1))]))


def test_corotation_generator_structure():
    # E2 is fixed; (E1, E3) turn at rate 2w and (E4, E5) at rate w
    gen = np.stack([corotate(np.float64(1.0), e) for e in np.eye(5)], axis=1)
    expect = np.zeros((5, 5))
    expect[0, 2], expect[2, 0] = 2.0, -2.0
    expect[3, 4], expect[4, 3] = 1.0, -1.0
    assert np.array_equal(gen, expect)


def test_nonlinear_is_the_only_right_hand_side():
    for name in ("tensor_rhs", "velocity_rhs", "tensor_rhs_nonstiff", "velocity_rhs_nonstiff",
                 "molecular_field"):
        assert not hasattr(qtensor, name)


def test_velocity_rhs_examples(grid):
    # Taylor-Green: advection is a gradient, the projector leaves -2 nu u
    x, y = grid.nodes()
    u = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    p = params(nu=0.3)
    s = State(u, np.zeros((5, grid.n, grid.n)))
    rhs = velocity_rhs(grid, s, p)
    assert np.abs(rhs + 2 * p.nu * u).max() <= 1e-11

    q0 = uniaxial(grid, 0.3)
    s2 = State(np.zeros((2, grid.n, grid.n)), q0)
    assert np.abs(velocity_rhs(grid, s2, p)).max() <= 1e-12

    rng = np.random.default_rng(9)
    s3 = State(random_velocity(grid, rng), random_qtensor(grid, rng))
    rhsh = grid.rfft(velocity_rhs(grid, s3, p))
    assert grid.divergence_residual(rhsh) <= 1e-12


def test_cubic_traces(grid):
    s = 0.8
    q = uniaxial(grid, s)
    assert np.abs(trace_q2(q) - 2 * s**2 / 3).max() <= 1e-13
    assert np.abs(trace_q3(q) - 2 * s**3 / 9).max() <= 1e-13
    z = np.zeros((5, grid.n, grid.n))
    assert np.abs(trace_q2(z)).max() == 0.0 and np.abs(trace_q3(z)).max() == 0.0


def test_trace_q3_eigenvalue_identity(grid):
    rng = np.random.default_rng(10)
    q = random_qtensor(grid, rng)
    m = q_to_mat(q)[..., ::8, ::8]  # subsample: eigendecompositions are slow
    lam = np.stack([np.linalg.eigvalsh(m[..., i, j]) for i, j in np.ndindex(m.shape[2:])])
    # sum l^3 = 3 l1 l2 l3 = -3 l1 l2 (l1+l2) for trace-free
    expect = np.sum(lam**3, axis=-1).reshape(m.shape[2:])
    got = trace_q3(q)[::8, ::8]
    assert np.abs(got - expect).max() <= 1e-12


def test_trace_q3_young_bound(grid):
    # |tr Q^3| <= eps tr{Q^2}^2 + C(eps) tr{Q^2} at eps = 1; sharp C is 1/24
    rng = np.random.default_rng(11)
    cfit = 0.0
    for _ in range(20):
        q = random_qtensor(grid, rng) * rng.uniform(0.05, 3.0)
        t2 = trace_q2(q)
        t3 = np.abs(trace_q3(q))
        mask = t2 > 1e-14
        cfit = max(cfit, ((t3[mask] - t2[mask] ** 2) / t2[mask]).max())
    assert cfit <= 1.0 / 24.0 + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.01, 5.0))
def test_s0_closure_property(seed, amp):
    grid = Grid(16)
    rng = np.random.default_rng(seed)
    q = amp * random_qtensor(grid, rng, kmax=4)
    u = random_velocity(grid, rng, kmax=4)
    out = tensor_rhs(grid, State(u, q), params())
    m = q_to_mat(out)
    assert np.abs(m - m.swapaxes(0, 1)).max() == 0.0
    assert np.abs(np.trace(m)).max() <= 1e-12 * (1 + np.abs(out).max())


def test_corotation_orthogonality(grid):
    rng = np.random.default_rng(12)
    q = random_qtensor(grid, rng)
    u = random_velocity(grid, rng)
    co = corotation(grid, q, u, dealias=False)
    val = abs(grid.inner(co, q))
    m = q_to_mat(co)
    scale = grid.norm_l2(np.sqrt(np.sum(m * m, axis=(0, 1)))) * grid.norm_l2(q)
    assert val <= 1e-10 * scale


def test_transport_skew_symmetry(grid):
    rng = np.random.default_rng(13)
    q = random_qtensor(grid, rng)
    u = random_velocity(grid, rng)
    adv = advect(grid, u, q, dealias=False)
    val = abs(grid.inner(adv, q))
    assert val <= 1e-10 * grid.norm_l2(adv) * grid.norm_l2(q)


def test_stress_transport_pairing(grid):
    # int tr{(u.grad Q) lap Q} = int div{grad Q o grad Q} . u
    rng = np.random.default_rng(14)
    q = random_qtensor(grid, rng)
    u = random_velocity(grid, rng)
    qh = grid.rfft(q)
    lapq = grid.irfft(grid.laplacian_hat(qh))
    lhs = grid.inner(advect(grid, u, q, dealias=False), lapq)

    dq = (grid.irfft(grid.deriv_hat(qh, 1)), grid.irfft(grid.deriv_hat(qh, 2)))
    div = np.zeros((2, grid.n, grid.n))
    for j in range(2):
        col = np.stack([np.sum(dq[0] * dq[j], axis=0), np.sum(dq[1] * dq[j], axis=0)])
        colh = grid.rfft(col)
        div[j] = grid.irfft(grid.deriv_hat(colh[0], 1) + grid.deriv_hat(colh[1], 2))
    rhs = grid.inner(div, u)
    assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + abs(rhs) + 1e-30)


def test_velocity_gradient_embedding(grid):
    rng = np.random.default_rng(15)
    u = random_velocity(grid, rng)
    g3 = velocity_gradient(grid, u)
    assert g3.shape == (3, 3, grid.n, grid.n)
    assert np.abs(g3[2]).max() == 0.0 and np.abs(g3[:, 2]).max() == 0.0
    om = vorticity_mat(velocity_gradient(grid, u))
    assert np.abs(om + om.swapaxes(0, 1)).max() == 0.0
    # Omega_12 = vorticity/2 with the d_i u_j convention
    uh = grid.rfft(u)
    vort = grid.irfft(grid.deriv_hat(uh[1], 1) - grid.deriv_hat(uh[0], 2))
    assert np.abs(om[0, 1] - 0.5 * vort).max() <= 1e-12
