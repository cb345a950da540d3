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
# q_to_mat / vorticity_mat serves only the checks and dyadic.SymDecompContext.


def trace_q2(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^2) = |Q|^2 (orthonormal basis)."""
    return np.sum(q * q, axis=0)


def s0_square(q: np.ndarray) -> np.ndarray:
    """Pointwise proj_S0(Q^2)_a = sum_bc C_abc c_b c_c with C_abc = tr(E_a E_b E_c).

    Of the 125 constants C_abc, 25 are nonzero; they are collected here
    term by term into out's rows; c4^2 and c5^2 are taken once, into rows 3 and 4.
    """
    c1, c2, c3, c4, c5 = q
    out = np.empty_like(q)
    sq4, sq5 = np.multiply(c4, c4, out=out[3]), np.multiply(c5, c5, out=out[4])
    np.add((2.0 / _S6) * c1 * c2, (sq4 - sq5) / (2.0 * _S2), out=out[0])
    np.divide(c1 * c1 - c2 * c2 + c3 * c3 - 0.5 * (sq4 + sq5), _S6, out=out[1])
    np.add((2.0 / _S6) * c2 * c3, c4 * c5 / _S2, out=out[2])
    np.subtract((c1 * c4 + c3 * c5) / _S2, c2 * c4 / _S6, out=out[3])
    np.subtract((c3 * c4 - c1 * c5) / _S2, c2 * c5 / _S6, out=out[4])
    return out


def commutator12(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(Q R - R Q)_12, the one independent entry of the antisymmetric planar block.

    r[1], the E2 plane of R, drops out and is never read.
    """
    return q[0] * r[2] - q[2] * r[0] + 0.5 * (q[3] * r[4] - q[4] * r[3])


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


def vorticity_mat(g: np.ndarray) -> np.ndarray:
    """Antisymmetric part Omega = (grad u - grad u^T)/2 of g = velocity_gradient(grid, u)."""
    return 0.5 * (g - g.swapaxes(0, 1))


# -- model terms ---------------------------------------------------------------
#
# `nonlinear` evaluates every term of the model on one set of transformed
# planes; `bulk_force` is the plain pointwise bulk force the checks bound.


def _bulk_products(q: np.ndarray, cd: np.ndarray, p: ModelParams) -> np.ndarray:
    """Bulk-force products b proj_S0(Q^2) - cd Q, cd = c times the dealiased tr(Q^2)."""
    out = s0_square(q)
    out *= p.b
    for out_a, q_a in zip(out, q):
        out_a -= cd * q_a
    return out


def bulk_force(q: np.ndarray, p: ModelParams) -> np.ndarray:
    """Landau-de Gennes bulk force -aQ + b(Q^2 - tr(Q^2)Id/3) - c tr(Q^2) Q, pointwise."""
    return -p.a * q + p.b * s0_square(q) - p.c * trace_q2(q)[None] * q


def _momentum_hat(grid: Grid, u: np.ndarray, omega: np.ndarray, q: np.ndarray, lap: np.ndarray,
                  dq: np.ndarray, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(P[omega u_perp + L div S], dealiased tr(Q^2)); omega = d1 u2 - d2 u1, dq[i-1] = d_i Q.

    Both forces are taken up to a gradient, which the Leray projection
    removes.  omega u_perp = (omega u2, -omega u1) is -u.grad(u) +
    grad(|u|^2/2).  The stress S = Q lapQ - lapQ Q - grad Q o grad Q has
    the antisymmetric block of C = (Q lapQ - lapQ Q)_12, with divergence
    (-d2 C, d1 C), and div(grad Q o grad Q)_j = sum_a lapq_a d_j q_a +
    d_j(|grad Q|^2/2).  The three planes omega u_perp - L sum_a lapq_a
    grad q_a and C are dealiased once, after their products, by the band
    view's forward transform; L (-i k2, i k1) C_hat is added in spectral space.
    """
    mom = np.empty((4,) + u.shape[1:])
    np.einsum("a...,ia...->i...", lap, dq, out=mom[:2])
    mom[:2] *= -p.L
    mom[0] += omega * u[1]
    mom[1] -= omega * u[0]
    mom[2] = commutator12(q, lap)
    np.einsum("a...,a...->...", q, q, out=mom[3])
    fh = grid.band.rfft(mom)
    ch = p.L * fh[2]
    fh[0] -= 1j * grid.k2 * ch
    fh[1] += 1j * grid.k1 * ch
    return grid.leray_hat(fh[:2]), grid.band.irfft(fh[3])


def _tensor_hat(grid: Grid, u: np.ndarray, omega: np.ndarray, q: np.ndarray, qh: np.ndarray,
                dq: np.ndarray, bulk: np.ndarray, p: ModelParams) -> np.ndarray:
    """-u.grad(Q) + Omega Q - Q Omega + gamma P(Q) from the physical planes, Omega_12 = omega/2.

    bulk is _bulk_products' output; it is overwritten with the five summed product
    planes, which are dealiased once (the band view's forward transform);
    -gamma a Q is added in spectral space.  The commutator Omega Q - Q Omega
    generates rotations about e3: E2 stays fixed, (E1, E3) turn at rate omega
    and (E4, E5) at rate omega/2, added through one plane of scratch.
    """
    n_q = bulk
    n_q *= p.gamma
    n_q -= np.einsum("i...,ia...->a...", u, dq)
    t = np.multiply(omega, q[2])
    n_q[0] += t
    n_q[2] -= np.multiply(omega, q[0], out=t)
    n_q[3] += np.multiply(np.multiply(omega, q[4], out=t), 0.5, out=t)
    n_q[4] -= np.multiply(np.multiply(omega, q[3], out=t), 0.5, out=t)
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


def state_planes(grid: Grid, uh: np.ndarray, qh: np.ndarray, p: ModelParams) -> StatePlanes:
    """StatePlanes of the band coefficients (uh, qh) of grid (or of its band view),
    with no right-hand side.

    Transforms only what the record holds: u, Q, the tr(Q^2) round trip
    of B and the five lap Q planes (13 c2r + 1 r2c).
    """
    grid = grid.band
    q = grid.irfft(qh)
    bulk = _bulk_products(q, p.c * grid.dealias(trace_q2(q)), p)
    lap = grid.irfft(grid.laplacian_hat(qh))
    return StatePlanes(grid.irfft(uh), q,
                       *(float(np.vdot(bulk, f)) * grid.cell_area for f in (q, lap)))


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

    Advection of momentum is taken in vorticity form, P(omega u_perp), and
    the elastic force as P(L (-d2 C, d1 C) - L sum_a lapq_a grad q_a), with
    C = (Q lapQ - lapQ Q)_12 (see _momentum_hat).  Each differs from the
    model's form by a gradient, so the two agree on in-band fields, where
    two-thirds-rule products are exact.  One call transforms the 23
    physical planes in four inverses (u and omega; d1 Q and d2 Q; Q; lap Q),
    evaluates the closed-form S0 products, and transforms back the summed
    products with one dealias mask per output: 5 planes for N_Q, and the 3
    momentum planes with tr(Q^2), which the cubic term reads dealiased
    through a one-plane inverse.  That is 7 transform calls.

    planes=True also returns the StatePlanes record of (uh, qh), built from
    this call's own planes u, Q, the bulk products (before they are scaled
    into N_Q) and lap Q, and a copy of u (whose base would keep omega alive).
    That adds no transform, except in Friedrichs mode, where the call's u
    is the cut velocity: the uncut u (2 c2r).
    """
    g = grid.band
    uh_cut = uh if p.n_cutoff is None else g.freq_cutoff_hat(uh, p.n_cutoff)
    uw = np.empty((3,) + uh.shape[1:], dtype=complex)  # first: the order with the lowest peak RSS
    uw[:2] = uh_cut
    np.subtract(g.deriv_hat(uh_cut[1], 1), g.deriv_hat(uh_cut[0], 2), out=uw[2])
    uw = g.irfft(uw)
    u, omega = uw[:2], uw[2]
    dq = g.gradient(qh)
    q = g.irfft(qh)
    lap = g.irfft(g.laplacian_hat(qh))
    n_uh, cd = _momentum_hat(g, u, omega, q, lap, dq, p)
    cd *= p.c
    bulk = _bulk_products(q, cd, p)
    del cd
    if planes:
        b_q, b_lapq = (float(np.vdot(bulk, f)) * g.cell_area for f in (q, lap))
    del lap
    n_qh = _tensor_hat(g, u, omega, q, qh, dq, bulk, p)
    if p.n_cutoff is not None:
        n_uh = g.freq_cutoff_hat(n_uh, p.n_cutoff)
    n_uh[:, 0, 0] = 0.0
    if not planes:
        return n_uh, n_qh
    return n_uh, n_qh, StatePlanes(u.copy() if uh_cut is uh else g.irfft(uh), q, b_q, b_lapq)
