"""Numerical homogeneous Littlewood-Paley calculus on the lattice.

Dyadic blocks, low-pass partial sums, Besov/Sobolev norms and inner
products, the Bony paraproduct splitting and the four-term symmetric
decomposition per block of the product of two S0 fields.

The radial cutoff chi equals 1 on |xi| <= 3/4, vanishes on |xi| >= 1 and
interpolates with the canonical smooth bump g((1-r)*4), where
g(x) = h(x)/(h(x)+h(1-x)) and h(x) = exp(-1/x) for x > 0.  Block indices
are truncated to the band [q_min, q_max] resolvable on the grid; every
block outside that band vanishes identically on the lattice, so all the
telescoping identities below are exact.  The homogeneous calculus acts on
mean-zero fields; zero modes are dropped by every multiplier.  All
multiplier tables have the grid's half-spectrum shape (n, n//2+1); block
inverses may run on the box view of phi_q's support (block_irfft).
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .qtensor import mat_mul, q_to_mat
from .spectral import Grid, random_scalar


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 for r <= 3/4, 0 for r >= 1."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 1.0] = 0.0
    mid = (r > 0.75) & (r < 1.0)
    if np.any(mid):
        x = (1.0 - r[mid]) * 4.0
        hx = np.exp(-1.0 / x)
        h1x = np.exp(-1.0 / (1.0 - x), where=x < 1.0, out=np.zeros_like(x))
        out[mid] = hx / (hx + h1x)
    return out


@dataclass(frozen=True)
class NormSpec:
    """Besov norm indices: regularity s, integrability p, summation r."""

    s: float
    p: float = 2.0
    r: float = 2.0


@dataclass
class DyadicPartition:
    """Tabulated phi_q multipliers and cached Sobolev weight tables."""

    grid: Grid
    q_min: int = field(init=False)
    q_max: int = field(init=False)
    phi: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = self.grid
        kpos = g.kmag[g.kmag > 0]
        kmin, kmax = kpos.min(), kpos.max()
        self.q_min = math.floor(math.log2(kmin))
        self.q_max = math.ceil(math.log2(2.0 * kmax / 3.0))
        self.phi = {
            q: chi_profile(g.kmag * 2.0 ** (-q - 1)) - chi_profile(g.kmag * 2.0 ** (-q))
            for q in range(self.q_min, self.q_max + 1)
        }
        # the least m with phi_q zero outside the box max(|k1|, |k2|) <= m, read from the table
        cheb = np.rint(np.maximum(np.abs(g.k1), g.k2) * (g.length / (2.0 * np.pi)))
        self.support = {q: int(cheb[phi != 0].max(initial=0)) for q, phi in self.phi.items()}
        self._weights: dict[float, np.ndarray] = {}

    @property
    def qs(self) -> range:
        return range(self.q_min, self.q_max + 1)

    def require_q(self, q: int) -> None:
        if not self.q_min <= q <= self.q_max:
            raise ValueError(f"block index {q} outside resolved band [{self.q_min}, {self.q_max}]")

    # -- block operators ------------------------------------------------------

    def lowpass_multiplier(self, j: int) -> np.ndarray:
        """Multiplier of S_j = sum_{q <= j-1} of the blocks; zero mode removed."""
        m = chi_profile(self.grid.kmag * 2.0 ** (-j))
        m[0, 0] = 0.0
        return m

    def block_irfft(self, fh: np.ndarray, *qs: int) -> np.ndarray:
        """irfft of the product of the phi_q over qs with full-layout coefficients fh.

        The product vanishes outside the support box m of the narrowest phi_q.
        Where 4m < n it is formed and inverse-transformed on that box view,
        whose pruned pass beats irfft2 there, else on the full grid: same bits.
        """
        m = min(self.support[q] for q in qs)
        g = self.grid.box(m) if 4 * m < self.grid.n else self.grid
        mult = functools.reduce(operator.mul, (g.gather(self.phi[q]) for q in qs))
        return g.irfft(mult * g.gather(fh))

    def block(self, f: np.ndarray, q: int) -> np.ndarray:
        self.require_q(q)
        return self.block_irfft(self.grid.rfft(f), q)

    def lowpass(self, f: np.ndarray, j: int) -> np.ndarray:
        return self.grid.irfft(self.lowpass_multiplier(j) * self.grid.rfft(f))

    # -- norms and inner products ----------------------------------------------

    def sobolev_weight(self, s: float) -> np.ndarray:
        """Weight table sum_q 2^(2qs) phi_q(k)^2 for the Besov-flavored H^s."""
        w = self._weights.get(s)
        if w is None:
            w = np.zeros_like(self.grid.kmag)
            for q in self.qs:
                w += 4.0**(q * s) * self.phi[q] ** 2
            self._weights[s] = w
        return w

    def hs_norm2_hat(self, fh: np.ndarray, s: float) -> float:
        """||f||_{H^s}^2 = sum_q 2^(2qs) ||block_q f||_{L^2}^2 from fh = rfft(f)."""
        return max(self.grid.inner_hat(fh, fh, self.sobolev_weight(s)), 0.0)

    def besov_norm(self, f: np.ndarray, spec: NormSpec) -> float:
        """Lattice-truncated homogeneous Besov norm of the mean-zero part of f."""
        fh = self.grid.rfft(self.grid.zero_mean(f))
        return _lr_norm(self, spec, (self.block_irfft(fh, q) for q in self.qs))

    # -- Bony paraproduct -------------------------------------------------------

    def bony(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split f*g into (T_f g, T_g f, R(f,g)) on the mean-zero parts.

        The sum of the three fields reconstructs the product of the
        mean-zero parts; mean-interaction terms are the caller's to add.
        """
        f = self.grid.zero_mean(f)
        g = self.grid.zero_mean(g)
        fh, gh = self.grid.rfft(f), self.grid.rfft(g)
        bf = {q: self.block_irfft(fh, q) for q in self.qs}
        bg = {q: self.block_irfft(gh, q) for q in self.qs}
        sf = self._prefix_sums(bf)
        sg = self._prefix_sums(bg)

        tfg = np.zeros_like(f)
        tgf = np.zeros_like(f)
        rem = np.zeros_like(f)
        for q in self.qs:
            tfg += sf[q - 2] * bg[q]
            tgf += sg[q - 2] * bf[q]
            for l in (-1, 0, 1):
                if self.q_min <= q + l <= self.q_max:
                    rem += bf[q] * bg[q + l]
        return tfg, tgf, rem

    def _prefix_sums(self, blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """s[j] = sum of blocks with index <= j (the S_{j+1} field)."""
        zero = np.zeros_like(blocks[self.q_min])
        out = {self.q_min - 2: zero, self.q_min - 1: zero}
        acc = zero
        for q in self.qs:
            acc = acc + blocks[q]
            out[q] = acc
        for q in range(self.q_max + 1, self.q_max + 4):
            out[q] = acc
        return out


def shared_partition(grid: Grid) -> DyadicPartition:
    """One DyadicPartition per (n, length, FFT workers), shared with its weight tables.

    grid must be a full grid: a box view compares equal to it but holds box tables.
    """
    if grid.m is not None:
        raise ValueError(f"shared_partition needs the full grid, not its box view box({grid.m})")
    return _partition(grid, grid.workers)


@functools.lru_cache(maxsize=4)
def _partition(grid: Grid, workers: int) -> DyadicPartition:
    return DyadicPartition(grid)


class SymDecompContext:
    """J1..J4 and block_q(AB) for one pair of S0 fields A, B.

    A and B are coefficient planes (5, n, n) in the basis `qtensor.S0_BASIS`.
    For mean-zero A and B the four terms

        J1 = sum_{|q-q'|<=5} [block_q, S_{q'-1}A] block_{q'} B
        J2 = sum_{|q-q'|<=5} (S_{q'-1}A - S_{q-1}A) block_q block_{q'} B
        J3 = S_{q-1}A block_q B
        J4 = sum_{q'>=q-5} block_q(block_{q'}A S_{q'+2} B)

    sum to block_q(AB) exactly on the lattice (q' runs over the resolved band).
    Linear quantities stay in 5 planes, expanded to dense 3x3 once per product
    operand; products and terms are (3, 3, n, n), as AB is not S0.  Each J1 and
    J4 window sum is transformed once; terms(q) keeps block_q block_{q+1} B.
    S_{q-1}A has no blocks for q <= q_min + 1, so its products there are
    exactly zero and are not formed.
    """

    def __init__(self, part: DyadicPartition, a: np.ndarray, b: np.ndarray):
        if any(f.ndim != 3 or f.shape[0] != 5 for f in (a, b)):
            raise ValueError(f"S0 planes (5, n, n) expected, got {a.shape} and {b.shape}")
        g, self.part = part.grid, part
        a, b = g.zero_mean(a), g.zero_mean(b)
        ah, self.bh = g.rfft(a), g.rfft(b)
        self.ab_hat = g.rfft(mat_mul(q_to_mat(a), q_to_mat(b)))
        block_a = {q: part.block_irfft(ah, q) for q in part.qs}
        block_b = {q: part.block_irfft(self.bh, q) for q in part.qs}
        # a J1 window [lo, hi] and a J4 start lo read the running sums over
        # ascending q' only at hi, at lo - 1 and at q_max (always some hi)
        self.window = {q: (max(q - 5, part.q_min), min(q + 5, part.q_max)) for q in part.qs}
        windows = set(self.window.values())
        ends = {hi for _, hi in windows} | {lo - 1 for lo, _ in windows}
        at = {part.q_min - 1: (0.0, 0.0)}
        # S_{q-1}A dense, None where it vanishes; J3, also the J1 summand at q' = q
        self.low_a, self.j3 = {}, {}
        self._zero = np.zeros((3, 3) + a.shape[1:])
        self._zero.flags.writeable = False
        sa, sb = np.zeros_like(a), block_b[part.q_min]
        low = None
        sum_p = sum_r = 0.0
        for q in part.qs:
            if q >= part.q_min + 2:
                sa = sa + block_a[q - 2]
                low = q_to_mat(sa)
            if q < part.q_max:  # S_{q+2}B sums the blocks up to q + 1
                sb = sb + block_b[q + 1]
                high = q_to_mat(sb)
            self.low_a[q] = low
            self.j3[q] = p = self._zero if low is None else mat_mul(low, q_to_mat(block_b[q]))
            sum_p = sum_p + p
            sum_r = sum_r + mat_mul(q_to_mat(block_a[q]), high)
            if q in ends:
                at[q] = sum_p, sum_r
        del block_a, block_b, sa, sb, sum_p, sum_r
        self.w1 = {(lo, hi): g.rfft(at[hi][0] - at[lo - 1][0]) for lo, hi in windows}
        self.w4 = {lo: g.rfft(at[part.q_max][1] - at[lo - 1][1]) for lo in {w[0] for w in windows}}
        self._pair: dict[tuple[int, int], np.ndarray] = {}

    def terms(self, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        part = self.part
        lo, hi = self.window[q]
        j1 = part.block_irfft(self.w1[lo, hi], q)
        j4 = part.block_irfft(self.w4[lo], q)
        held, self._pair = self._pair, {}
        # with m_{q'} = S_{q'-1}A block_q block_{q'} B, J1 subtracts every m_{q'} and
        # J2 = sum_{q' != q} m_{q'} - S_{q-1}A sum_{q' != q} block_q block_{q'} B;
        # block_q block_q' vanishes for |q - q'| > 1
        m_off = dd_off = 0.0
        for qp in range(max(q - 1, part.q_min), min(q + 1, part.q_max) + 1):
            dd = held.get((qp, q))
            if dd is None:
                dd = part.block_irfft(self.bh, q, qp)
            if qp > q:
                self._pair[q, qp] = dd
            low = self.low_a[qp]
            m = self._zero if low is None else mat_mul(low, q_to_mat(dd))
            j1 -= m
            if qp != q:
                m_off, dd_off = m_off + m, dd_off + dd
        low = self.low_a[q]
        j2 = m_off - (self._zero if low is None else mat_mul(low, q_to_mat(dd_off)))
        return j1, j2, self.j3[q], j4

    def block_product(self, q: int) -> np.ndarray:
        """block_q(AB), the left-hand side of the reconstruction identity."""
        return self.part.block_irfft(self.ab_hat, q)


def _lr_norm(part: DyadicPartition, spec: NormSpec, fields: Iterable[np.ndarray]) -> float:
    """l^r sum over the resolved q of 2^(s q) ||field_q||_{L^p}, fields given in q order."""
    g = part.grid
    seq = np.array([2.0 ** (spec.s * q) * g.norm_lp(f, spec.p) for q, f in zip(part.qs, fields)])
    if spec.r == np.inf:
        return float(seq.max(initial=0.0))
    return float(np.sum(seq**spec.r) ** (1.0 / spec.r))


def commutator(
    part: DyadicPartition, a: np.ndarray, f: np.ndarray, q: int, qp: int
) -> np.ndarray:
    """[block_q, S_{qp-1}a] block_{qp} f for scalar fields a, f and |q - qp| <= 5."""
    if abs(q - qp) > 5:
        raise ValueError(f"commutator indices must satisfy |q - qp| <= 5, got {q}, {qp}")
    part.require_q(q)
    part.require_q(qp)
    g = part.grid
    sa = part.lowpass(g.zero_mean(a), qp - 1)
    fh = g.rfft(f)
    first = part.block_irfft(g.rfft(sa * part.block_irfft(fh, qp)), q)
    second = sa * part.block_irfft(fh, q, qp)
    return first - second


def neg_index_equiv(
    part: DyadicPartition, f: np.ndarray, spec: NormSpec
) -> tuple[float, float, float | None]:
    """Block-norm, lowpass-norm and their ratio for a negative index s.

    Both sides are truncated l^r sums over the resolved band; the ratio is
    None when the block norm vanishes.
    """
    if spec.s >= 0:
        raise ValueError(f"negative regularity index required, got s={spec.s}")
    g = part.grid
    f = g.zero_mean(f)
    fh = g.rfft(f)
    bn = _lr_norm(part, spec, (part.block_irfft(fh, q) for q in part.qs))
    ln = _lr_norm(part, spec, (g.irfft(part.lowpass_multiplier(q) * fh) for q in part.qs))
    ratio = ln / bn if bn > 0 else None
    return bn, ln, ratio


def product_estimate_sample(
    part: DyadicPartition,
    s: float,
    t: float,
    trials: int,
    seed: int = 0,
) -> dict[str, float]:
    """Ratio statistics for ||ab||_{H^{s+t-1}} / (||a||_{H^s} ||b||_{H^t}).

    Samples seeded pairs with random phases under a flat envelope on the
    band 1 <= |k| <= n/4; requires |s| < 1, |t| < 1 and s + t > 0.  The
    flat envelope keeps the per-sample ratio distribution concentrated, so
    the max statistic is stable across seeds at the reference resolution
    (128^2, 100 trials).
    """
    if not (abs(s) < 1 and abs(t) < 1):
        raise ValueError(f"indices must satisfy |s| < 1 and |t| < 1, got ({s}, {t})")
    if not s + t > 0:
        raise ValueError(f"indices must satisfy s + t > 0, got s + t = {s + t}")
    if trials < 1:
        raise ValueError("at least one trial required")
    g = part.grid
    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for i in range(trials):
        a = random_scalar(g, rng, decay=0.0)
        b = random_scalar(g, rng, decay=0.0)
        na = math.sqrt(part.hs_norm2_hat(g.rfft(a), s))
        nb = math.sqrt(part.hs_norm2_hat(g.rfft(b), t))
        nab = math.sqrt(part.hs_norm2_hat(g.rfft(g.zero_mean(a * b)), s + t - 1.0))
        ratios[i] = nab / (na * nb) if na * nb > 0 else 0.0
    return {
        "max": float(ratios.max()),
        "mean": float(ratios.mean()),
        "min": float(ratios.min()),
        "trials": float(trials),
    }
