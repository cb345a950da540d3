"""Periodic spectral grid, transforms and Fourier-multiplier operators.

All fields live on a square torus [0, len)^2 sampled on an n x n lattice
(n a power of two).  Real fields are float64 arrays of shape (..., n, n);
their spectral mirrors are the half-spectrum (rfft) coefficients, complex128
arrays of shape (..., n, n//2+1) produced by an unscaled forward transform
(the inverse carries the 1/n^2).  Wavenumbers are the integer lattice
{-n/2+1, ..., n/2} along the first axis and {0, ..., n/2} along the second,
scaled by 2*pi/len; the Nyquist index is mapped to +n/2.  Every lattice
table has the half-spectrum shape (n, n//2+1).

Grid.box(m) is a box view of a grid: a Grid of the same n and len whose
spectral arrays hold only the modes max(|k1|, |k2|) <= m, as one (2m+1, m+1)
block (rows 0..m then n-m..n-1, columns 0..m), and whose tables are gathered
from the full ones.  Its transforms and multipliers are those of the full
layout, restricted to the box value for value.  The band view box(n//3) is
the dealias band; dyadic blocks use the boxes of their supports.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft


#: Largest grid n: one (n, n) float plane is then 32 GiB, past any desk machine.
MAX_N = 2**16


def fft_workers() -> int:
    """Worker count for scipy FFTs, capped by the QFLOW_THREADS env var."""
    raw = os.environ.get("QFLOW_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise ValueError(f"QFLOW_THREADS must be an integer, got {raw!r}")
    if w < 1:
        raise ValueError(f"QFLOW_THREADS must be >= 1, got {w}")
    return w


def _in_place(transform, view: np.ndarray, workers: int) -> None:
    """Complex transform along the first lattice axis of a view, into the view.

    overwrite_x lets scipy reuse the view's memory (it does for complex
    input), but does not promise it; a result elsewhere is copied back.
    """
    res = transform(view, axis=-2, overwrite_x=True, workers=workers)
    if not np.may_share_memory(res, view):
        view[...] = res


def _lattice_index(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT order, Nyquist mapped to +n/2."""
    idx = np.fft.fftfreq(n, 1.0 / n)
    idx[n // 2] = n // 2
    return idx


@dataclass(frozen=True)
class Grid:
    """Precomputed lattice and multiplier tables for one resolution.

    Parameters
    ----------
    n : int
        Points per axis; a power of two in [8, MAX_N].
    length : float
        Physical period of the torus (default 2*pi).
    """

    n: int
    length: float = 2.0 * np.pi

    # filled in __post_init__
    k1: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    ksq: np.ndarray = field(init=False, repr=False, compare=False)
    ksq_safe: np.ndarray = field(init=False, repr=False, compare=False)
    kmag: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    parseval: np.ndarray = field(init=False, repr=False, compare=False)
    workers: int = field(init=False, repr=False, compare=False)
    #: The half-width of a box view, whose spectral arrays are the box block; None on the full grid
    m: int | None = field(init=False, default=None, repr=False, compare=False)
    _boxes: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if not 8 <= n <= MAX_N or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two in [8, {MAX_N}], got {n}")
        if not self.length > 0:
            raise ValueError(f"period must be positive, got {self.length}")
        half = n // 2 + 1
        idx = _lattice_index(n)
        k = idx * (2.0 * np.pi / self.length)
        kx, ky = np.meshgrid(k, k[:half], indexing="ij")
        ix, iy = np.meshgrid(idx, idx[:half], indexing="ij")
        mask = np.maximum(np.abs(ix), np.abs(iy)) <= n / 3.0
        # Parseval weights: interior columns stand for a conjugate pair
        dup = np.full(half, 2.0)
        dup[0] = dup[-1] = 1.0
        object.__setattr__(self, "k1", kx)
        object.__setattr__(self, "k2", ky)
        object.__setattr__(self, "ksq", kx**2 + ky**2)
        h = self.length / n  # h * h overflows to inf where cell_area's ** would raise
        if not (self.ksq[0, 1] > 0 and np.isfinite(self.ksq).all() and h * h < np.inf):
            raise ValueError(f"period {self.length!r} is out of range at n = {n}: "
                             "|k|^2 or the cell area under- or overflows")
        # |k|^2 with the zero mode set to 1, a safe divisor for the Leray projection
        object.__setattr__(self, "ksq_safe", np.where(self.ksq == 0.0, 1.0, self.ksq))
        object.__setattr__(self, "kmag", np.sqrt(kx**2 + ky**2))
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "parseval", dup[None, :])
        object.__setattr__(self, "workers", fft_workers())

    @functools.cached_property
    def band(self) -> Grid:
        """The band view box(n//3) of this grid (itself on the band view)."""
        return self.box(self.n // 3)

    def box(self, m: int) -> Grid:
        """The box view of the modes max(|k1|, |k2|) <= m < n/2, built once per m from the full grid
        (a box view is its own box).  It compares equal to the full grid, so it must not stand in
        for it where full-layout tables are expected (shared_partition refuses it)."""
        if m == self.m:
            return self
        if self.m is not None or not 0 <= m < self.n // 2:
            raise ValueError(f"box({m}) needs the full grid and 0 <= m < {self.n // 2}")
        if m not in self._boxes:
            view = self._boxes[m] = object.__new__(Grid)
            view.__dict__.update(n=self.n, length=self.length, workers=self.workers, m=m,
                                 parseval=self.parseval[:, : m + 1])
            view.__dict__.update({name: view.gather(getattr(self, name)) for name in
                                  ("k1", "k2", "ksq", "ksq_safe", "kmag", "dealias_mask")})
        return self._boxes[m]

    def gather(self, fh: np.ndarray) -> np.ndarray:
        """This layout's block of full-layout coefficients or tables fh: on a box view a new
        (..., 2m+1, m+1) array, on the full grid fh itself."""
        n, m = self.n, self.m
        if m is None:
            return fh
        return np.concatenate((fh[..., : m + 1, : m + 1], fh[..., n - m :, : m + 1]), axis=-2)

    # -- transforms ---------------------------------------------------------

    # A box view's pruned passes run the complex first-axis pass on its m+1
    # columns k2 <= m only.  n is a power of two, so the inverse's two 1/n
    # scalings equal irfft2's one 1/n^2 exactly.  Each call makes exactly one
    # call of a scipy.fft N-D entry point, so a library-level count of
    # transformed planes matches the count taken at these methods.

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Forward half-spectrum transform (unscaled), batched over leading axes.

        On a box view it is box-pruned and returns the box block, equal
        value for value to gather(rfft(f)) of the full grid.
        """
        if self.m is None:
            return scipy.fft.rfft2(f, axes=(-2, -1), workers=self.workers)
        out = scipy.fft.rfftn(f, axes=(-1,), workers=self.workers)
        _in_place(scipy.fft.fft, out[..., : self.m + 1], self.workers)
        return self.gather(out)

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        """Inverse half-spectrum transform (carries 1/n^2) to a real field.

        On the full grid it is one irfft2.  On a box view fh is the box
        block, scattered into a zeroed scratch buffer for the box-pruned
        pass, so fh is not touched.
        """
        n, m = self.n, self.m
        if m is None:
            return scipy.fft.irfft2(fh, s=(n, n), axes=(-2, -1), workers=self.workers)
        buf = np.empty(fh.shape[:-2] + (n, n // 2 + 1), dtype=complex)
        buf[..., m + 1 :] = 0.0
        kept = buf[..., : m + 1]
        kept[..., : m + 1, :] = fh[..., : m + 1, :]
        kept[..., m + 1 : n - m, :] = 0.0
        kept[..., n - m :, :] = fh[..., m + 1 :, :]
        _in_place(scipy.fft.ifft, kept, self.workers)
        return scipy.fft.irfftn(buf, s=(n,), axes=(-1,), workers=self.workers)

    def gradient(self, fh: np.ndarray) -> np.ndarray:
        """Physical (d1 f, d2 f), shape (2,) + f.shape, from fh = rfft(f) in one batched irfft.

        The products i k fh are written straight into the transform's input buffer.
        """
        buf = np.empty((2,) + fh.shape, dtype=complex)
        np.multiply(1j * self.k1, fh, out=buf[0])
        np.multiply(1j * self.k2, fh, out=buf[1])
        return self.irfft(buf)

    # -- pointwise lattice data --------------------------------------------

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.arange(self.n) * (self.length / self.n)
        return np.meshgrid(x, x, indexing="ij")

    @property
    def cell_area(self) -> float:
        return (self.length / self.n) ** 2

    # -- multiplier operators (spectral in, spectral out) -------------------

    def deriv_hat(self, fh: np.ndarray, axis: int) -> np.ndarray:
        """Multiply by i*k_axis.  axis is 1 or 2."""
        if axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {axis}")
        k = self.k1 if axis == 1 else self.k2
        return fh * (1j * k)

    def laplacian_hat(self, fh: np.ndarray) -> np.ndarray:
        return -self.ksq * fh

    def leray_hat(self, vh: np.ndarray) -> np.ndarray:
        """Project a 2-component spectral field onto divergence-free fields by the tables of
        _leray_tables, kept for the process on a box view, built per call on the full grid.

        The zero mode passes through unchanged (mean removal is a separate, deliberate step).
        """
        if vh.shape[:-2] != (2,):
            raise ValueError(f"expected two spectral planes, got shape {vh.shape}")
        p11, p12, p22 = (_leray_tables(self) if self.m is None
                         else _box_leray_tables(self.n, self.length, self.m))
        out = np.empty_like(vh)
        np.add(p11 * vh[0], p12 * vh[1], out=out[0])
        np.add(p12 * vh[0], p22 * vh[1], out=out[1])
        out[..., 0, 0] = vh[..., 0, 0]
        return out

    def freq_cutoff_hat(self, fh: np.ndarray, m: int) -> np.ndarray:
        """Sharp annulus cutoff: keep modes with |k| in [1/m, m], zero the rest.

        The zero mode always lies outside the annulus and is removed.
        """
        if m < 1:
            raise ValueError(f"cutoff index must be >= 1, got {m}")
        return fh * ((self.kmag >= 1.0 / m) & (self.kmag <= float(m)))

    # -- real-space convenience wrappers -------------------------------------

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.irfft(self.laplacian_hat(self.rfft(f)))

    def leray(self, v: np.ndarray) -> np.ndarray:
        return self.irfft(self.leray_hat(self.rfft(v)))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        band = self.band
        return band.irfft(band.rfft(f))

    def zero_mean(self, f: np.ndarray) -> np.ndarray:
        return f - f.mean(axis=(-2, -1), keepdims=True)

    # -- quadrature, norms and inner products ---------------------------------

    def integral(self, f: np.ndarray) -> float:
        """Trapezoid quadrature of a scalar field over the torus."""
        return float(f.sum()) * self.cell_area

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Discrete L^2 inner product, summed over any leading component axes."""
        return float(np.sum(f * g)) * self.cell_area

    def norm_l2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(f * f) * self.cell_area))

    def norm_lp(self, f: np.ndarray, p: float, mag2: np.ndarray | None = None) -> float:
        """L^p norm of the pointwise Euclidean magnitude over component axes.

        mag2, if given, is the squared magnitude of f, shared between calls.
        """
        if mag2 is None:
            mag2 = self._mag2(f)
        if p == np.inf:
            return float(np.sqrt(mag2.max(initial=0.0)))
        return float((np.sum(mag2 ** (p / 2.0)) * self.cell_area) ** (1.0 / p))

    @staticmethod
    def _mag2(f: np.ndarray) -> np.ndarray:
        if f.ndim == 2:
            return f * f
        return np.sum(f * f, axis=tuple(range(f.ndim - 2)))

    def inner_hat(self, fh: np.ndarray, gh: np.ndarray, weight: np.ndarray | None = None) -> float:
        """L^2 pairing of real fields from their half-spectrum coefficients.

        The Parseval weight counts each interior column twice, once for its
        conjugate partner; an optional multiplier must be even in k.  With
        an H^s weight table, DyadicPartition.sobolev_weight(s) or
        (1 + ksq)**s, it is the H^s pairing.
        """
        w = self.cell_area / self.n**2
        prod = (fh * gh.conj()).real * self.parseval
        if weight is not None:
            prod = prod * weight
        return float(np.sum(prod) * w)

    def power_hat(self, fh: np.ndarray) -> np.ndarray:
        """Per-mode share of ||f||^2 from spectral coefficients, one table of the grid's layout.

        |fh|^2 summed over any leading component axes, with the Parseval
        weight and the quadrature scale of inner_hat built in, so that
        sum(power_hat(fh) * weight) equals inner_hat(fh, fh, weight) up to
        roundoff.  One table serves every weighted norm of the same field.
        """
        return (self._mag2(fh.real) + self._mag2(fh.imag)) * (
            self.parseval * (self.cell_area / self.n**2))

    def divergence_residual(self, vh: np.ndarray) -> float:
        """max_k |k . v_hat(k)| relative to the coefficient magnitude times the
        full lattice's largest |k|, at (n/2, n/2), on either layout."""
        kdotv = np.abs(self.k1 * vh[0] + self.k2 * vh[1])
        corner = (self.n // 2) * (2.0 * np.pi / self.length)
        scale = np.abs(vh).max(initial=0.0) * max(np.sqrt(corner**2 + corner**2), 1.0)
        if scale == 0.0:
            return 0.0
        return float(kdotv.max() / scale)


def _leray_tables(grid: Grid) -> np.ndarray:
    """The Leray projector tables 1 - k1^2/k^2, -k1 k2/k^2, 1 - k2^2/k^2 of grid's layout."""
    k1, k2, ksq = grid.k1, grid.k2, grid.ksq_safe
    return np.stack([1.0 - k1 * k1 / ksq, -k1 * k2 / ksq, 1.0 - k2 * k2 / ksq])


@functools.lru_cache(maxsize=16)
def _box_leray_tables(n: int, length: float, m: int) -> np.ndarray:
    """_leray_tables of box(m), read-only; full-grid or per-Grid tables fragmented the heap."""
    out = _leray_tables(Grid(n, length).box(m))
    out.flags.writeable = False
    return out


# -- seeded band-limited field generators -------------------------------------


@functools.lru_cache(maxsize=16)
def _band_tables(
    n: int, length: float, kmin: float, kmax: float, decay: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only band mask (n, n) and amplitudes (|k|/scale)^-decay on the band."""
    scale = 2.0 * np.pi / length
    k = _lattice_index(n) * scale
    kx, ky = np.meshgrid(k, k, indexing="ij")
    kmag = np.sqrt(kx**2 + ky**2)
    # the zero mode, where |k|^-decay is infinite, is never in the band
    band = (kmag > 0) & (kmag >= kmin * scale) & (kmag <= kmax * scale)
    amp = (kmag[band] / scale) ** (-decay)
    band.flags.writeable = False
    amp.flags.writeable = False
    return band, amp


def random_scalar(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float | None = None,
    decay: float = 1.5,
) -> np.ndarray:
    """Mean-zero real field with power-law amplitude and random phases.

    Spectral support is the annulus kmin <= |k| <= kmax in lattice units,
    without the zero mode; kmax defaults to n/4 so that triple products stay
    alias-free under the two-thirds rule.  The phases are drawn on the full n x n lattice (so the
    rng stream does not depend on the band), amplitude times phase is
    evaluated on the band modes only, and the field is synthesized by a
    full complex inverse transform whose real part Hermitian-symmetrizes
    it; this keeps every seeded field (and the constants fitted on them)
    bitwise stable.
    """
    n = grid.n
    if kmax is None:
        kmax = n / 4.0
    band, amp = _band_tables(n, grid.length, kmin, kmax, decay)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    fh = np.zeros((n, n), dtype=complex)
    fh[band] = amp * np.exp(1j * phases[band]) * n**2
    f = scipy.fft.ifft2(fh, axes=(-2, -1), workers=grid.workers).real
    f = grid.zero_mean(f)
    peak = np.abs(f).max()
    return f / peak if peak > 0 else f


def random_velocity(
    grid: Grid,
    rng: np.random.Generator,
    kmin: float = 1.0,
    kmax: float | None = None,
    decay: float = 1.5,
) -> np.ndarray:
    """Divergence-free, mean-zero 2-component field (Leray-projected)."""
    v = np.stack([random_scalar(grid, rng, kmin, kmax, decay) for _ in range(2)])
    v = grid.zero_mean(grid.leray(v))
    peak = np.sqrt(np.sum(v * v, axis=0)).max()
    return v / peak if peak > 0 else v
