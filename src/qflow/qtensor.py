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

Every pseudo-spectral product is dealiased with the two-thirds rule; the
cubic bulk term tr(Q^2) Q is formed as two successive dealiased binary
products (first tr(Q^2), then the multiplication by Q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid

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
    """Expand basis planes (5, n, n) into dense matrices (n, n, 3, 3)."""
    return np.einsum("aij,axy->xyij", S0_BASIS, q)


def mat_to_q(m: np.ndarray) -> np.ndarray:
    """Project dense matrices (n, n, 3, 3) onto the basis planes (5, n, n).

    The projection discards any trace or antisymmetric part, so the result
    is the nearest S0 field in the Frobenius sense.
    """
    return np.einsum("aij,xyij->axy", S0_BASIS, m)


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


# -- pointwise S0 algebra ------------------------------------------------------


def trace_q2(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^2) = |Q|^2 (orthonormal basis)."""
    return np.sum(q * q, axis=0)


def trace_q3(q: np.ndarray) -> np.ndarray:
    """Pointwise tr(Q^3) via dense matrix products."""
    m = q_to_mat(q)
    return np.trace(m @ m @ m, axis1=-2, axis2=-1)


def q_square_mat(q: np.ndarray) -> np.ndarray:
    """Dense pointwise Q^2, shape (n, n, 3, 3)."""
    m = q_to_mat(q)
    return m @ m


def random_qtensor(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float | None = None,
    decay: float = 1.5,
) -> np.ndarray:
    """Seeded band-limited S0 field: five independent random coefficient planes."""
    from .spectral import random_scalar

    q = np.stack([random_scalar(grid, rng, kmin, kmax, decay) for _ in range(5)])
    peak = np.sqrt(trace_q2(q)).max()
    return q / peak if peak > 0 else q


def velocity_gradient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Embedded 3x3 gradient field G_{ij} = d_i u_j, shape (n, n, 3, 3)."""
    n = grid.n
    uh = grid.rfft(u)
    g = np.zeros((n, n, 3, 3))
    for j in range(2):
        g[..., 0, j] = grid.irfft(grid.deriv_hat(uh[j], 1))
        g[..., 1, j] = grid.irfft(grid.deriv_hat(uh[j], 2))
    return g


def vorticity_mat(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Antisymmetric part Omega = (grad u - grad u^T)/2 as a 3x3 field."""
    g = velocity_gradient(grid, u)
    return 0.5 * (g - np.swapaxes(g, -1, -2))


# -- model terms ---------------------------------------------------------------


def bulk_force(q: np.ndarray, p: ModelParams, grid: Grid | None = None) -> np.ndarray:
    """Landau-de Gennes bulk force -aQ + b(Q^2 - tr(Q^2)Id/3) - c tr(Q^2) Q.

    With a grid supplied the quadratic and cubic products are dealiased
    (two-thirds rule, quadratic first); without one the evaluation is
    plain pointwise matrix arithmetic.
    """
    if grid is None:
        q2 = mat_to_q(q_square_mat(q))  # projection removes the trace part
        t2 = trace_q2(q)
        return -p.a * q + p.b * q2 - p.c * t2[None] * q
    q2 = grid.dealias(mat_to_q(q_square_mat(q)))
    t2 = grid.dealias(trace_q2(q))
    cubic = grid.dealias(t2[None] * q)
    return -p.a * q + p.b * q2 - p.c * cubic


def corotation(grid: Grid, q: np.ndarray, u: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Commutator Omega Q - Q Omega rotating the tensor with the flow."""
    om = vorticity_mat(grid, u)
    m = q_to_mat(q)
    out = mat_to_q(om @ m - m @ om)
    return grid.dealias(out) if dealias else out


def advect(grid: Grid, u: np.ndarray, f: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Transport term u . grad f for a field of any component count."""
    fh = grid.rfft(f)
    out = u[0] * grid.irfft(grid.deriv_hat(fh, 1)) + u[1] * grid.irfft(grid.deriv_hat(fh, 2))
    return grid.dealias(out) if dealias else out


def stress_tensor(grid: Grid, q: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Upper-left 2x2 block of Q lap(Q) - lap(Q) Q - grad(Q) o grad(Q).

    Only this block feeds the planar force; (grad Q o grad Q)_{ij} is
    tr(d_i Q d_j Q).  Shape (2, 2, n, n).
    """
    qh = grid.rfft(q)
    lap = grid.irfft(grid.laplacian_hat(qh))
    dq = (grid.irfft(grid.deriv_hat(qh, 1)), grid.irfft(grid.deriv_hat(qh, 2)))

    m = q_to_mat(q)
    lm = q_to_mat(lap)
    comm = m @ lm - lm @ m  # antisymmetric
    sigma = np.empty((2, 2, grid.n, grid.n))
    for i in range(2):
        for j in range(2):
            sigma[i, j] = comm[..., i, j] - np.sum(dq[i] * dq[j], axis=0)
    return grid.dealias(sigma) if dealias else sigma


def elastic_stress_div(grid: Grid, q: np.ndarray, p: ModelParams) -> np.ndarray:
    """Planar components of L div{ Q lap(Q) - lap(Q) Q - grad(Q) o grad(Q) }.

    The divergence contracts the derivative with the row index,
    (div S)_j = d_i S_{ij}, which is the convention under which the
    corotation and stress contributions to the energy cancel exactly.
    """
    sh = grid.rfft(stress_tensor(grid, q, dealias=False))
    sh = sh * grid.dealias_mask
    out = np.empty((2, grid.n, grid.n))
    for j in range(2):
        out[j] = grid.irfft(grid.deriv_hat(sh[0, j], 1) + grid.deriv_hat(sh[1, j], 2))
    return p.L * out


def nonlinear(grid: Grid, s: State, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Non-stiff right-hand sides (N_u, N_Q) for the integrating-factor scheme.

    N_Q = -u.grad(Q) + Omega Q - Q Omega + gamma P(Q) and
    N_u = P[-u.grad(u) + L div{...}], Leray-projected and mean-zero; the
    stiff terms nu lap(u) and gamma L lap(Q) are the stepper's.  With a
    Friedrichs index n the transport velocity is annulus-cut once and the
    momentum nonlinearities are wrapped as J_n P(...), as in the truncated
    system.
    """
    u = s.u if p.n_cutoff is None else grid.freq_cutoff(s.u, p.n_cutoff)
    n_q = -advect(grid, u, s.q) + corotation(grid, s.q, u) + p.gamma * bulk_force(s.q, p, grid)
    n_uh = grid.leray_hat(grid.rfft(-advect(grid, u, u) + elastic_stress_div(grid, s.q, p)))
    if p.n_cutoff is not None:
        n_uh = grid.freq_cutoff_hat(n_uh, p.n_cutoff)
    n_uh[:, 0, 0] = 0.0
    return grid.irfft(n_uh), n_q
