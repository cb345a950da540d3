"""Q-tensor algebra and the coupled Q/velocity nonlinear right-hand side.

The order parameter is a symmetric traceless 3x3 matrix field stored as
five coefficient planes in the fixed orthonormal Frobenius basis

    E1 = (e1.e1 - e2.e2)/sqrt(2)        E4 = (e1.e3 + e3.e1)/sqrt(2)
    E2 = (e1.e1 + e2.e2 - 2 e3.e3)/sqrt(6)
    E3 = (e1.e2 + e2.e1)/sqrt(2)        E5 = (e2.e3 + e3.e2)/sqrt(2)

so symmetry and tracelessness hold by construction and the pointwise
Frobenius norm is |Q|^2 = sum_a c_a^2.  The velocity is planar; the
velocity gradient is embedded as a 3x3 matrix with zero third row and
column, convention (grad u)_{ij} = d_i u_j.

Pointwise products are evaluated in closed form on the coefficient planes
(no dense 3x3 matrices on the stepping path).  Dealiasing uses the
two-thirds rule, applied once to each summed output; the cubic bulk term
tr(Q^2) Q is formed as two successive dealiased binary products (first
tr(Q^2), then the multiplication by Q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, random_scalar

_S2 = np.sqrt(2.0)
_S6 = np.sqrt(6.0)

#: Orthonormal basis of the symmetric traceless 3x3 matrices, shape (5, 3, 3).
S0_BASIS = np.array(
    [
        [[1 / _S2, 0, 0], [0, -1 / _S2, 0], [0, 0, 0]],
        [[1 / _S6, 0, 0], [0, 1 / _S6, 0], [0, 0, -2 / _S6]],
        [[0, 1 / _S2, 0], [1 / _S2, 0, 0], [0, 0, 0]],
        [[0, 0, 1 / _S2], [0, 0, 0], [1 / _S2, 0, 0]],
        [[0, 0, 0], [0, 0, 1 / _S2], [0, 1 / _S2, 0]],
    ]
)


def q_to_mat(q: np.ndarray) -> np.ndarray:
    """Expand basis planes (5, n, n) into matrix entries (3, 3, n, n) by one fixed (9, 5) GEMM."""
    return (S0_BASIS.reshape(5, 9).T @ q.reshape(5, -1)).reshape((3, 3) + q.shape[1:])


def mat_to_q(m: np.ndarray) -> np.ndarray:
    """Project matrix entries (3, 3, n, n) onto the basis planes (5, n, n), the transpose GEMM.

    The projection discards any trace or antisymmetric part, so the result
    is the nearest S0 field in the Frobenius sense.
    """
    return (S0_BASIS.reshape(5, 9) @ m.reshape(9, -1)).reshape((5,) + m.shape[2:])


def mat_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of (3, 3, ...) fields over the two leading axes."""
    return np.einsum("ik...,kj...->ij...", x, y)


@dataclass(frozen=True)
class ModelParams:
    """Bulk coefficients a, b, c, mobility gamma, viscosity nu, elasticity L."""

    a: float
    b: float
    c: float
    gamma: float
    nu: float
    L: float
    n_cutoff: int | None = None

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"bulk coefficient c must be positive, got {self.c}")
        for name in ("gamma", "nu", "L"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_cutoff is not None and self.n_cutoff < 1:
            raise ValueError(f"n_cutoff must be >= 1, got {self.n_cutoff}")


@dataclass
class State:
    """Flow state: planar velocity u (2, n, n), tensor q (5, n, n), time t."""

    u: np.ndarray
    q: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.u.copy(), self.q.copy(), self.t)


# -- pointwise S0 algebra in closed form ------------------------------------------
#
# In the E basis every pointwise product the model needs is a fixed bilinear
# map of coefficient planes; the dense (3, 3, n, n) expansion through
# q_to_mat / vorticity_mat is kept only as an independent oracle.


def trace_q2(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^2) = |Q|^2 (orthonormal basis)."""
    return np.sum(q * q, axis=0)


def trace_q3(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^3) via dense matrix products."""
    m = q_to_mat(q)
    return np.trace(mat_mul(mat_mul(m, m), m))


def s0_square(q: np.ndarray) -> np.ndarray:
    """Pointwise proj_S0(Q^2)_a = sum_bc C_abc c_b c_c with C_abc = tr(E_a E_b E_c).

    Of the 125 constants C_abc, 25 are nonzero; they are collected here
    term by term.
    """
    c1, c2, c3, c4, c5 = q
    out = np.empty_like(q)
    out[0] = (2.0 / _S6) * c1 * c2 + (c4 * c4 - c5 * c5) / (2.0 * _S2)
    out[1] = (c1 * c1 - c2 * c2 + c3 * c3 - 0.5 * (c4 * c4 + c5 * c5)) / _S6
    out[2] = (2.0 / _S6) * c2 * c3 + c4 * c5 / _S2
    out[3] = (c1 * c4 + c3 * c5) / _S2 - c2 * c4 / _S6
    out[4] = (c3 * c4 - c1 * c5) / _S2 - c2 * c5 / _S6
    return out


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


def commutator12(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(Q R - R Q)_12, the one independent entry of the antisymmetric planar block.

    r[1], the E2 plane of R, drops out and is never read.
    """
    return q[0] * r[2] - q[2] * r[0] + 0.5 * (q[3] * r[4] - q[4] * r[3])


def gradient_gram(d1q: np.ndarray, d2q: np.ndarray) -> np.ndarray:
    """(grad Q o grad Q)_ij = tr(d_i Q d_j Q) as the planes (11, 12, 22), shape (3, n, n)."""
    return np.stack([np.sum(d1q * d1q, axis=0), np.sum(d1q * d2q, axis=0),
                     np.sum(d2q * d2q, axis=0)])


def random_qtensor(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float | None = None,
    decay: float = 1.5,
) -> np.ndarray:
    """Seeded band-limited S0 field: five independent random coefficient planes."""
    q = np.stack([random_scalar(grid, rng, kmin, kmax, decay) for _ in range(5)])
    peak = np.sqrt(trace_q2(q)).max()
    return q / peak if peak > 0 else q


def velocity_gradient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Embedded 3x3 gradient field G_{ij} = d_i u_j, shape (3, 3, n, n)."""
    g = np.zeros((3, 3) + u.shape[1:])
    g[:2, :2] = grid.gradient(grid.rfft(u))
    return g


def vorticity_mat(grid: Grid, u: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Antisymmetric part Omega = (grad u - grad u^T)/2 as a 3x3 field.

    g, if given, is velocity_gradient(grid, u), which is then not transformed again.
    """
    if g is None:
        g = velocity_gradient(grid, u)
    return 0.5 * (g - g.swapaxes(0, 1))


# -- model terms ---------------------------------------------------------------
#
# The termwise physical-space operators below transform their own inputs;
# tests use them as the reference for `nonlinear`, which evaluates the same
# closed forms on one set of transformed planes.


def _bulk_products(grid: Grid, q: np.ndarray, p: ModelParams) -> np.ndarray:
    """Products b proj_S0(Q^2) - c tr(Q^2) Q of the bulk force, tr(Q^2) dealiased first."""
    out = s0_square(q)
    out *= p.b
    out -= (p.c * grid.dealias(trace_q2(q)))[None] * q
    return out


def bulk_force(q: np.ndarray, p: ModelParams, grid: Grid | None = None) -> np.ndarray:
    """Landau-de Gennes bulk force -aQ + b(Q^2 - tr(Q^2)Id/3) - c tr(Q^2) Q.

    With a grid supplied the quadratic and cubic products are dealiased
    (two-thirds rule, tr(Q^2) first); without one the evaluation is plain
    pointwise arithmetic.
    """
    if grid is None:
        return -p.a * q + p.b * s0_square(q) - p.c * trace_q2(q)[None] * q
    return -p.a * q + grid.dealias(_bulk_products(grid, q, p))


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


def _termwise_stress_planes(grid: Grid, q: np.ndarray) -> np.ndarray:
    """_stress_planes of Q, transforming its own derivative planes."""
    qh = grid.rfft(q)
    return _stress_planes(np.empty((4,) + q.shape[1:]), q, grid.irfft(grid.laplacian_hat(qh)),
                          *grid.gradient(qh))


def _stress_div_hat(grid: Grid, sh: np.ndarray) -> np.ndarray:
    """(div S)_j = d_i S_ij of the planar stress from its four spectral planes.

    S_11 = -G_11, S_12 = C - G_12, S_21 = -C - G_12, S_22 = -G_22 with C the
    commutator entry; two planes of sh's layout.
    """
    ik1, ik2 = 1j * grid.k1, 1j * grid.k2
    comm, g11, g12, g22 = sh
    return np.stack([-ik1 * g11 - ik2 * (g12 + comm), ik1 * (comm - g12) - ik2 * g22])


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


#: The lap Q planes that (Q lapQ - lapQ Q)_12 reads: E1, E3, E4, E5, not E2.
_COMMUTATOR_PLANES = [0, 2, 3, 4]


def _momentum_hat(grid: Grid, u: np.ndarray, omega: np.ndarray, q: np.ndarray, lap: np.ndarray,
                  dq: np.ndarray, p: ModelParams) -> np.ndarray:
    """P[omega u_perp + L div S] from the physical planes; omega = d1 u2 - d2 u1, dq[i-1] = d_i Q.

    lap holds the lap Q planes _COMMUTATOR_PLANES.  omega u_perp =
    (omega u2, -omega u1) differs from -u.grad(u) by the gradient of
    |u|^2/2, which the Leray projection removes.  The six momentum planes
    (advection, the stress commutator entry and grad Q o grad Q) are
    dealiased once, after their products, by the band view's forward transform.
    """
    mom = np.empty((6,) + u.shape[1:])
    mom[0] = omega * u[1]
    mom[1] = -omega * u[0]
    _stress_planes(mom[2:], q, (lap[0], None, lap[1], lap[2], lap[3]), dq[0], dq[1])
    mh = grid.band.rfft(mom)
    return grid.leray_hat(mh[:2] + p.L * _stress_div_hat(grid, mh[2:]))


def _tensor_hat(grid: Grid, u: np.ndarray, w: np.ndarray, q: np.ndarray, qh: np.ndarray,
                dq: np.ndarray, bulk: np.ndarray, p: ModelParams) -> np.ndarray:
    """-u.grad(Q) + Omega Q - Q Omega + gamma P(Q) from the physical planes, spin w = Omega_12.

    bulk is _bulk_products(grid, q, p); it is overwritten with the five
    summed product planes, which are dealiased once (the band view's
    forward transform); -gamma a Q is added in spectral space.
    """
    n_q = bulk
    n_q *= p.gamma
    n_q += corotate(w, q)
    n_q -= u[0] * dq[0]
    n_q -= u[1] * dq[1]
    n_qh = grid.band.rfft(n_q)
    n_qh -= (p.gamma * p.a) * qh
    return n_qh


@dataclass
class StatePlanes:
    """Physical planes of one state (uh, qh) in the band layout, and its P(Q) pairings.

    u = irfft(uh), uncut also in Friedrichs mode, and q = irfft(qh).  b_q
    and b_lapq are the L^2 pairings <B, Q> and <B, lap Q> of the undealiased
    bulk products B = b proj_S0(Q^2) - c tr(Q^2) Q, taken by quadrature.
    The two-thirds mask is a projector and Q is in band, so by discrete
    Parseval <P(Q), Q> = -a ||Q||^2 + b_q and
    <P(Q), lap Q> = a ||grad Q||^2 + b_lapq, with no transform of P(Q).
    """

    u: np.ndarray
    q: np.ndarray
    b_q: float
    b_lapq: float


def _pairing(grid: Grid, f, h) -> float:
    """sum_a <f[a], h[a]> over paired planes, one plane of scratch at a time."""
    return float(sum(np.sum(fa * ha) for fa, ha in zip(f, h))) * grid.cell_area


def _state_planes(grid: Grid, u: np.ndarray, q: np.ndarray, qh: np.ndarray, bulk: np.ndarray,
                  lap: np.ndarray) -> StatePlanes:
    """StatePlanes from the physical planes u, Q, B = bulk and the lap Q planes _COMMUTATOR_PLANES.

    Transforms the one lap Q plane that lap lacks, E2 (1 c2r).
    """
    lap_e2 = grid.irfft(grid.laplacian_hat(qh[1]))
    b_lapq = _pairing(grid, [*(bulk[a] for a in _COMMUTATOR_PLANES), bulk[1]], [*lap, lap_e2])
    return StatePlanes(u, q, _pairing(grid, bulk, q), b_lapq)


def state_planes(grid: Grid, uh: np.ndarray, qh: np.ndarray, p: ModelParams) -> StatePlanes:
    """StatePlanes of the band coefficients (uh, qh) of grid (or of its band view),
    with no right-hand side.

    Transforms only what the record holds: u, Q, the tr(Q^2) round trip
    of B and the five lap Q planes (13 c2r + 1 r2c).
    """
    grid = grid.band
    q = grid.irfft(qh)
    lap = grid.irfft(grid.laplacian_hat(qh[_COMMUTATOR_PLANES]))
    return _state_planes(grid, grid.irfft(uh), q, qh, _bulk_products(grid, q, p), lap)


def nonlinear(
    grid: Grid, uh: np.ndarray, qh: np.ndarray, p: ModelParams, planes: bool = False
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, StatePlanes]:
    """Non-stiff right-hand sides (N_u, N_Q) for the integrating-factor scheme.

    Spectral in, spectral out, in the band layout (see Grid.band): uh
    (2, 2m+1, m+1) and qh (5, 2m+1, m+1) are the in-band coefficients of
    grid (or of its band view), m = n//3, and so are the results.
    N_Q = -u.grad(Q) + Omega Q - Q Omega + gamma P(Q) and
    N_u = P[-u.grad(u) + L div{...}], Leray-projected and mean-zero; the
    stiff terms nu lap(u) and gamma L lap(Q) are the stepper's.  With a
    Friedrichs index n the transport velocity is annulus-cut once and the
    momentum nonlinearities are wrapped as J_n P(...), as in the truncated
    system.

    Advection of momentum is taken in vorticity form, P(omega u_perp),
    which equals P(-u.grad u) on in-band u because two-thirds-rule products
    of in-band fields are exact.  One call transforms the 22 physical planes
    u, omega, Q, d1 Q, d2 Q and the four lap Q planes the stress commutator
    reads, evaluates the closed-form S0 products, and transforms back the
    summed products with one dealias mask per output (5 planes for N_Q,
    6 momentum planes); only tr(Q^2) inside the cubic term takes its own
    dealiased round trip.

    planes=True also returns the StatePlanes record of (uh, qh), built from
    this call's own planes u, Q, the bulk products (before they are scaled
    into N_Q) and lap Q.  That adds the E2 lap Q plane (1 c2r) and, in
    Friedrichs mode, where the call's u is the cut velocity, the uncut u
    (2 c2r).
    """
    g = grid.band
    uh_cut = uh if p.n_cutoff is None else g.freq_cutoff_hat(uh, p.n_cutoff)
    u = g.irfft(uh_cut)
    q = g.irfft(qh)
    dq = g.gradient(qh)
    omega = g.irfft(g.deriv_hat(uh_cut[1], 1) - g.deriv_hat(uh_cut[0], 2))
    lap = g.irfft(g.laplacian_hat(qh[_COMMUTATOR_PLANES]))
    n_uh = _momentum_hat(g, u, omega, q, lap, dq, p)
    bulk = _bulk_products(g, q, p)
    if planes:
        record = _state_planes(g, u if uh_cut is uh else g.irfft(uh), q, qh, bulk, lap)
    del lap
    n_qh = _tensor_hat(g, u, 0.5 * omega, q, qh, dq, bulk, p)
    if p.n_cutoff is not None:
        n_uh = g.freq_cutoff_hat(n_uh, p.n_cutoff)
    n_uh[:, 0, 0] = 0.0
    return (n_uh, n_qh, record) if planes else (n_uh, n_qh)
