"""The benchmark's speed probe: a fixed reference kernel timed on the CPU
that runs the measured code, during the measurement.

Each vCPU of the host this benchmark was written on changes speed by up to
2x in phases from under a second to minutes long (README.md, "Steadiness").
`SpeedProbe` times a small reference kernel just before and after each
measured round and, on a wall-clock timer, every `INTERVAL_S` seconds inside
it.  The median of those timings follows the CPU's speed over the round,
and the benchmark reports each time scaled to the kernel's time at a
reference speed (`run.PROBE_REF_S`).

The kernel is written here with numpy and scipy alone, so that no change to
qflow changes it.  It has two parts:

- a frozen half-step of a pseudo-spectral Q-tensor solver at n = 32:
  per-plane real transforms and spectral derivatives, a dealiased advection
  product, the S0-basis expansion to 3x3 matrices, a commutator and the
  projection back.  Like qflow's own steps, it mixes interpreter overhead,
  small transforms and dense algebra;
- one pointwise product and real-transform round trip of a plane at the
  workload's n, so that the probe also works in the workload's cache regime.
  At n = 256 the planes outgrow one core's L2 and slow down less than
  cache-resident work does when the host is loaded; without this part the
  probe over-corrected the 256^2 workload by about 10%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.fft

INTERVAL_S = 0.1    # timer period inside a round; the kernel takes 1-3 ms
EDGE_SAMPLES = 3    # timings just before and just after a round
N = 32

S2, S6 = np.sqrt(2.0), np.sqrt(6.0)
BASIS = np.array([
    [[1 / S2, 0, 0], [0, -1 / S2, 0], [0, 0, 0]],
    [[1 / S6, 0, 0], [0, 1 / S6, 0], [0, 0, -2 / S6]],
    [[0, 1 / S2, 0], [1 / S2, 0, 0], [0, 0, 0]],
    [[0, 0, 1 / S2], [0, 0, 0], [1 / S2, 0, 0]],
    [[0, 0, 0], [0, 0, 1 / S2], [0, 1 / S2, 0]],
])


class SpeedProbe:
    """Times the reference kernel over one measured interval at a time."""

    def __init__(self, n: int) -> None:
        rng = np.random.default_rng(0)
        # bound now, so that a tracer installed later counts none of the kernel
        self.rfft2, self.irfft2, self.einsum, self.matmul = (
            scipy.fft.rfft2, scipy.fft.irfft2, np.einsum, np.matmul)
        self.u = rng.standard_normal((2, N, N))
        self.q = rng.standard_normal((5, N, N))
        kx = 1j * np.fft.fftfreq(N, 1.0 / N)[:, None] * np.ones(N // 2 + 1)
        ky = 1j * np.fft.rfftfreq(N, 1.0 / N)[None, :] * np.ones((N, 1))
        self.ik = (kx, ky)
        self.lap = (kx * kx + ky * ky).real
        self.mask = np.maximum(np.abs(kx), np.abs(ky)) <= N / 3
        self.n = n
        self.plane = rng.standard_normal((2, n, n))
        self.edge: list[float] = []
        self.timed: list[float] = []

    def kernel(self) -> tuple[np.ndarray, np.ndarray]:
        rfft2, irfft2, s = self.rfft2, self.irfft2, (N, N)
        qh = [rfft2(c) for c in self.q]
        dq = [[irfft2(ik * h, s=s) for ik in self.ik] for h in qh]
        lq = np.stack([irfft2(self.lap * h, s=s) for h in qh])
        adv = [rfft2(self.u[0] * d[0] + self.u[1] * d[1]) * self.mask for d in dq]
        m = self.einsum("aij,axy->xyij", BASIS, self.q)
        lm = self.einsum("aij,axy->xyij", BASIS, lq)
        comm = self.matmul(m, lm) - self.matmul(lm, m)
        half_step = np.stack([irfft2(a, s=s) for a in adv]) + self.einsum("aij,xyij->axy", BASIS, comm)
        return half_step, irfft2(rfft2(self.plane[0] * self.plane[1]), s=(self.n, self.n))

    def _time(self) -> float:
        t = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t

    def _on_timer(self, *_) -> None:
        self.timed.append(self._time())

    def start(self, timer: bool = True) -> None:
        """Begin an interval: edge timings, then the timer if asked for."""
        self.edge = [self._time() for _ in range(EDGE_SAMPLES)]
        self.timed = []
        if timer:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def timer_s(self) -> float:
        """Seconds the timer's kernel runs have taken so far in this interval."""
        return sum(self.timed)

    def stop(self) -> float:
        """End the interval; returns the median kernel time over it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.edge += [self._time() for _ in range(EDGE_SAMPLES)]
        return statistics.median(self.edge + self.timed)
