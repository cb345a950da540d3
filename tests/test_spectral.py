import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import spectral
from qflow.dyadic import shared_partition
from qflow.spectral import Grid, random_scalar, random_velocity


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def scatter(view: Grid, bh: np.ndarray) -> np.ndarray:
    """The full-layout array holding the block bh of a box view, zero elsewhere."""
    n, m = view.n, view.m
    full = np.zeros(bh.shape[:-2] + (n, n // 2 + 1), dtype=bh.dtype)
    full[..., : m + 1, : m + 1] = bh[..., : m + 1, :]
    full[..., n - m:, : m + 1] = bh[..., m + 1:, :]
    return full


def test_grid_lattice_range():
    g = Grid(64)
    ints = np.unique(np.round(g.k1 * g.length / (2 * np.pi)))
    assert ints.min() == -31 and ints.max() == 32
    cols = np.round(g.k2[0] * g.length / (2 * np.pi))
    assert np.array_equal(cols, np.arange(33))  # half spectrum: k2 = 0..n/2
    assert Grid(8).n == 8  # smallest legal grid


def test_grid_has_one_half_spectrum_layout():
    g = Grid(32, length=3.7)
    for name in ("k1", "k2", "ksq", "ksq_safe", "kmag", "dealias_mask"):
        assert getattr(g, name).shape == (32, 17)
    assert g.parseval.shape == (1, 17)
    assert g.ksq_safe[0, 0] == 1.0 and np.array_equal(g.ksq_safe.ravel()[1:], g.ksq.ravel()[1:])
    assert g.rfft(np.zeros((3, 32, 32))).shape == (3, 32, 17)
    assert not hasattr(g, "fft") and not hasattr(g, "ifft")
    assert not [name for name in dir(g) if name.endswith("_r")]


@pytest.mark.parametrize("n", [7, 4, 12, 0])
def test_grid_rejects_bad_n(n):
    with pytest.raises(ValueError):
        Grid(n)


def test_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        Grid(16, length=0.0)


def test_single_mode_derivative(grid):
    x, _ = grid.nodes()
    assert np.allclose(grid.gradient(grid.rfft(np.sin(x)))[0], np.cos(x), atol=1e-12)
    assert np.allclose(grid.laplacian(np.sin(3 * x)), -9 * np.sin(3 * x), atol=1e-11)


def test_deriv_rejects_bad_axis_order(grid):
    fh = grid.rfft(np.zeros((grid.n, grid.n)))
    with pytest.raises(ValueError):
        grid.deriv_hat(fh, 3)


@pytest.mark.parametrize("band", [True, False], ids=["in_band", "out_of_band"])
@pytest.mark.parametrize("planes", [5, 2])
def test_gradient_is_one_batched_irfft(grid, monkeypatch, planes, band):
    # one transform of the stacked (d1 f, d2 f), equal bit for bit to the
    # per-axis transforms on the band view and on the full-spectrum path
    f = np.random.default_rng(planes).standard_normal((planes, grid.n, grid.n))
    g = grid.band if band else grid
    fh = g.rfft(f)
    assert fh[..., grid.n // 3 + 1:].any() != band
    expect = np.stack([g.irfft(g.deriv_hat(fh, axis)) for axis in (1, 2)])
    calls = []
    irfft = Grid.irfft
    monkeypatch.setattr(Grid, "irfft", lambda self, x: calls.append(x.shape) or irfft(self, x))
    got = g.gradient(fh)
    assert calls == [(2,) + fh.shape]
    assert got.shape == (2,) + f.shape and got.tobytes() == expect.tobytes()


def test_roundtrip_and_parseval(grid):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(grid.n, grid.n))
    g = rng.normal(size=(grid.n, grid.n))
    fh, gh = grid.rfft(f), grid.rfft(g)
    assert np.abs(grid.irfft(fh) - f).max() <= 1e-12 * np.abs(f).max()
    # the Parseval weight counts each interior column for its conjugate twin
    assert abs(grid.inner_hat(fh, fh) - grid.inner(f, f)) <= 1e-12 * grid.inner(f, f)
    assert abs(grid.inner_hat(fh, gh) - grid.inner(f, g)) <= 1e-12 * grid.inner(f, f)


def test_hermitian_symmetry(grid):
    rng = np.random.default_rng(1)
    f = rng.normal(size=(grid.n, grid.n))
    fh = grid.rfft(f)
    n = grid.n
    # the half spectrum is the nonnegative-k2 part of the full one
    full = np.fft.fft2(f)
    assert np.abs(full[:, : n // 2 + 1] - fh).max() <= 1e-9 * np.abs(fh).max()
    # the columns k2 = 0 and k2 = n/2 are their own mirror images
    mirror = (-np.arange(n)) % n
    for j in (0, n // 2):
        assert np.abs(fh[mirror, j] - fh[:, j].conj()).max() <= 1e-9 * np.abs(fh).max()
    assert abs(fh[0, 0].imag) == 0.0


def test_leray_kills_gradients(grid):
    x, y = grid.nodes()
    phi = np.sin(x + y)
    gradphi = grid.gradient(grid.rfft(phi))
    assert np.abs(grid.leray(gradphi)).max() <= 1e-12


def test_leray_keeps_solenoidal(grid):
    rng = np.random.default_rng(2)
    psi = random_scalar(grid, rng)
    d1psi, d2psi = grid.gradient(grid.rfft(psi))
    v = np.stack([-d2psi, d1psi])
    assert np.abs(grid.leray(v) - v).max() <= 1e-12 * np.abs(v).max()


def test_leray_mixed_example(grid):
    # v = (sin x, sin x): the first component is a gradient, the second is solenoidal
    x, _ = grid.nodes()
    v = np.stack([np.sin(x), np.sin(x)])
    out = grid.leray(v)
    assert np.abs(out[0]).max() <= 1e-12
    assert np.abs(out[1] - np.sin(x)).max() <= 1e-12


def test_leray_matches_dense_projection_matrix(grid):
    # independent oracle: apply I - k k^T/|k|^2 mode by mode
    rng = np.random.default_rng(3)
    v = np.stack([random_scalar(grid, rng), random_scalar(grid, rng)])
    vh = grid.rfft(v)
    expect = np.empty_like(vh)
    for i in range(grid.n):
        for j in range(grid.n // 2 + 1):
            k = np.array([grid.k1[i, j], grid.k2[i, j]])
            coeff = np.array([vh[0, i, j], vh[1, i, j]])
            if k @ k == 0:
                expect[:, i, j] = coeff
            else:
                proj = np.eye(2) - np.outer(k, k) / (k @ k)
                expect[:, i, j] = proj @ coeff
    got = grid.leray_hat(vh)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(vh).max()


def test_leray_idempotent_self_adjoint(grid):
    rng = np.random.default_rng(4)
    u = np.stack([random_scalar(grid, rng), random_scalar(grid, rng)])
    v = np.stack([random_scalar(grid, rng), random_scalar(grid, rng)])
    pu = grid.leray(u)
    scale = np.abs(pu).max()
    assert np.abs(grid.leray(pu) - pu).max() <= 1e-12 * scale
    lhs = grid.inner(pu, v)
    rhs = grid.inner(u, grid.leray(v))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    assert grid.divergence_residual(grid.rfft(pu)) <= 1e-12


def freq_cutoff(grid, f, m):
    return grid.irfft(grid.freq_cutoff_hat(grid.rfft(f), m))


def test_freq_cutoff_examples(grid):
    x, _ = grid.nodes()
    const = np.ones((grid.n, grid.n))
    assert np.abs(freq_cutoff(grid, const, 5)).max() <= 1e-14
    f1 = np.sin(x)
    assert np.abs(freq_cutoff(grid, f1, 1) - f1).max() <= 1e-12
    assert np.abs(freq_cutoff(grid, np.sin(3 * x), 2)).max() <= 1e-14
    with pytest.raises(ValueError):
        freq_cutoff(grid, f1, 0)


def test_freq_cutoff_idempotent(grid):
    rng = np.random.default_rng(5)
    f = rng.normal(size=(grid.n, grid.n))
    for m in (1, 4, 16):
        once = freq_cutoff(grid, f, m)
        assert np.abs(freq_cutoff(grid, once, m) - once).max() <= 1e-13 * (np.abs(once).max() + 1)


def test_dealias_examples(grid):
    rng = np.random.default_rng(6)
    f = random_scalar(grid, rng, kmax=grid.n / 4)  # well inside the kept band
    assert np.abs(grid.dealias(f) - f).max() <= 1e-12
    x, _ = grid.nodes()
    nyq = np.cos((grid.n // 2) * x)
    assert np.abs(grid.dealias(nyq)).max() <= 1e-13
    full = rng.normal(size=(grid.n, grid.n))
    once = grid.dealias(full)
    assert np.abs(grid.dealias(once) - once).max() <= 1e-13 * np.abs(once).max()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_band_transforms_match_full_transforms(monkeypatch, workers):
    # the band view's forward pass equals the gathered mask * rfft value for
    # value, and its inverse equals irfft2 of the scattered block bit for
    # bit; the full grid's irfft is irfft2 for every input (masked,
    # column-truncated, unmasked); neither inverse writes to its input
    monkeypatch.setenv("QFLOW_THREADS", workers)
    rng = np.random.default_rng(11)
    for n in (8, 16, 32, 64, 128, 256):
        for length in (2 * np.pi, 3.7):
            g = Grid(n, length=length)
            band = g.band
            cols = np.arange(n // 2 + 1) <= n / 3  # the columns the band transforms keep
            for lead in ((), (2,), (5,), (2, 3)):
                f = rng.normal(size=lead + (n, n))
                full = g.rfft(f)
                bh = band.rfft(f)
                assert bh.shape == lead + (2 * (n // 3) + 1, n // 3 + 1)
                assert np.array_equal(bh, band.gather(g.dealias_mask * full))
                before = bh.copy()
                expect = scipy.fft.irfft2(scatter(band, bh), s=(n, n), axes=(-2, -1))
                assert band.irfft(bh).tobytes() == expect.tobytes()
                assert bh.tobytes() == before.tobytes()
                for fh in (g.dealias_mask * full, cols * full, full):
                    before = fh.copy()
                    expect = scipy.fft.irfft2(fh, s=(n, n), axes=(-2, -1))
                    assert g.irfft(fh).tobytes() == expect.tobytes()
                    assert fh.tobytes() == before.tobytes()


@pytest.mark.parametrize("band", [True, False], ids=["in_band", "out_of_band"])
def test_full_grid_irfft_is_one_irfft2_call(monkeypatch, band):
    # only the band view prunes: on the full grid the inverse is one irfft2
    # call and no other scipy.fft call, whether or not its input is in band
    g = Grid(32)
    fh = g.rfft(np.random.default_rng(3).normal(size=(2, 32, 32)))
    if band:
        fh = g.dealias_mask * fh
    expect = scipy.fft.irfft2(fh, s=(32, 32), axes=(-2, -1))
    calls = []
    for name in ("irfft2", "irfftn", "ifft", "fft", "ifft2", "rfftn"):
        fn = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name,
                            lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    assert g.irfft(fh).tobytes() == expect.tobytes()
    assert calls == ["irfft2"]


def test_band_view_layout():
    # one (2m+1, m+1) block of the in-band modes, m = n//3, with tables
    # gathered from the full grid; built once and without __post_init__
    g = Grid(32, length=3.7)
    band = g.band
    assert band is g.band and band.band is band and band.m == 10 and g.m is None
    assert band == g and band.n == g.n and band.length == g.length
    for name in ("k1", "k2", "ksq", "ksq_safe", "kmag", "dealias_mask"):
        table = getattr(band, name)
        assert table.shape == (21, 11)
        assert np.array_equal(scatter(band, table), np.where(g.dealias_mask, getattr(g, name), 0))
    assert band.dealias_mask.all() and g.dealias_mask.sum() == band.dealias_mask.size
    assert np.array_equal(band.parseval, g.parseval[:, :11])
    assert band.rfft(np.zeros((3, 32, 32))).shape == (3, 21, 11)
    with pytest.raises(ValueError, match=r"box view box\(10\)"):
        shared_partition(band)


def test_box_views():
    # box(m) is built once per m from the full grid; a box view is only its
    # own box; a non-band box view is refused by shared_partition as well
    g = Grid(32, length=3.7)
    box = g.box(4)
    assert box is g.box(4) and box.box(4) is box and box.m == 4 and box == g
    idx = np.round(np.maximum(np.abs(g.k1), g.k2) * 3.7 / (2 * np.pi))
    for name in ("k1", "ksq", "kmag", "dealias_mask"):
        table = getattr(box, name)
        assert table.shape == (9, 5)
        assert np.array_equal(scatter(box, table), np.where(idx <= 4, getattr(g, name), 0))
    assert np.array_equal(box.parseval, g.parseval[:, :5])
    f = np.random.default_rng(5).normal(size=(2, 32, 32))
    assert np.array_equal(box.rfft(f), box.gather(g.rfft(f)))
    for bad in (lambda: box.box(3), lambda: g.box(16), lambda: g.box(-1)):
        with pytest.raises(ValueError, match="needs the full grid"):
            bad()
    with pytest.raises(ValueError, match=r"box view box\(4\)"):
        shared_partition(box)


@pytest.mark.parametrize("n, length", [(16, 2 * np.pi), (32, 3.7)])
def test_band_multipliers_match_gathered_full_layout(n, length):
    # every multiplier on band arrays equals the gathered full-layout result
    # value for value; power_sum sums the band table it is given, and agrees
    # with the full-layout sum at roundoff (the two add in different orders);
    # both layouts scale the divergence residual by the full lattice's largest |k|
    g = Grid(n, length=length)
    band = g.band
    rng = np.random.default_rng(n)
    full = g.dealias_mask * g.rfft(rng.normal(size=(2, n, n)))
    bh = band.gather(full)
    assert np.array_equal(band.leray_hat(bh), band.gather(g.leray_hat(full)))
    assert np.array_equal(band.laplacian_hat(bh), band.gather(g.laplacian_hat(full)))
    for axis in (1, 2):
        assert np.array_equal(band.deriv_hat(bh, axis), band.gather(g.deriv_hat(full, axis)))
    for m in (1, 2, 4):
        assert np.array_equal(band.freq_cutoff_hat(bh, m), band.gather(g.freq_cutoff_hat(full, m)))
    assert band.gradient(bh).tobytes() == g.gradient(full).tobytes()
    div = np.abs(g.k1 * full[0] + g.k2 * full[1]).max() / (np.abs(full).max() * g.kmag.max())
    assert band.divergence_residual(bh) == g.divergence_residual(full) == div
    power = band.power_hat(bh)
    assert np.array_equal(power, band.gather(g.power_hat(full)))
    weight = g.ksq**2
    for bw, w in ((band.gather(weight), weight), (None, None)):
        got = band.power_sum(power, bw)
        assert got == float(np.sum(power if bw is None else power * bw))
        ref = g.power_sum(g.power_hat(full), w)
        assert abs(got - ref) <= 1e-14 * ref
    inner = g.inner_hat(full, full, weight)
    assert abs(band.inner_hat(bh, bh, band.gather(weight)) - inner) <= 1e-14 * inner
    f = rng.normal(size=(n, n))
    assert g.dealias(f).tobytes() == g.irfft(g.dealias_mask * g.rfft(f)).tobytes()


def test_random_velocity_invariants(grid):
    rng = np.random.default_rng(7)
    v = random_velocity(grid, rng)
    assert grid.divergence_residual(grid.rfft(v)) <= 1e-12
    assert np.abs(v.mean(axis=(-2, -1))).max() <= 1e-14


def full_lattice_random_scalar(n, length, rng, kmin=1.0, kmax=None, decay=1.5):
    """Reference synthesis of random_scalar on the full n x n lattice."""
    if kmax is None:
        kmax = n / 4.0
    idx = np.fft.fftfreq(n, 1.0 / n)
    idx[n // 2] = n // 2
    scale = 2.0 * np.pi / length
    kx, ky = np.meshgrid(idx * scale, idx * scale, indexing="ij")
    kmag = np.sqrt(kx**2 + ky**2)
    band = (kmag >= kmin * scale) & (kmag <= kmax * scale)
    amp = np.zeros((n, n))
    amp[band] = (kmag[band] / scale) ** (-decay)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    fh = amp * np.exp(1j * phases) * n**2
    f = scipy.fft.ifft2(fh, axes=(-2, -1), workers=1).real
    f = f - f.mean(axis=(-2, -1), keepdims=True)
    peak = np.abs(f).max()
    return f / peak if peak > 0 else f


def pinned_keywords(n):
    """Keyword sets of random_scalar pinned to the full-lattice synthesis."""
    return [
        {"kmax": n / 3.0, "decay": 2.0},
        {},  # the default envelope
        {"kmax": 6.0, "decay": 2.0},  # the random_spectrum preset
        {"decay": 0.0},  # the product-law sampler
        {"kmin": 2.0},
    ]


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("length", [2 * np.pi, 1.0, 3.7])
def test_random_scalar_bitwise_pinned(n, length):
    # seeded fields (and the constants fitted on them) must not move
    g = Grid(n, length)
    for seed, kw in enumerate(pinned_keywords(n), start=11):
        got = random_scalar(g, np.random.default_rng(seed), **kw)
        expect = full_lattice_random_scalar(n, length, np.random.default_rng(seed), **kw)
        assert np.array_equal(got, expect)
    # one rng stream through calls with other keywords in between: the
    # band tables of one call never leak into the next
    first, other = pinned_keywords(n)[2], pinned_keywords(n)[4]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for kw in (first, other, first):
        assert np.array_equal(random_scalar(g, rng, **kw),
                              full_lattice_random_scalar(n, length, ref, **kw))


def test_random_scalar_nonpositive_kmin_matches_kmin_one(grid):
    # kmin <= 0 used to put the zero mode, where |k|^-decay is infinite, in
    # the band: an all-NaN field for decay > 0, a roundoff change for decay <= 0
    for decay in (1.5, 0.0, -1.0):
        ref = random_scalar(grid, np.random.default_rng(4), kmin=1.0, decay=decay)
        for kmin in (0.0, -3.0, 0.5):
            with np.errstate(divide="ignore", invalid="ignore"):
                got = random_scalar(grid, np.random.default_rng(4), kmin=kmin, decay=decay)
            assert np.isfinite(got).all() and np.array_equal(got, ref)


def test_random_scalar_band_tables_read_only():
    band, amp = spectral._band_tables(16, 2 * np.pi, 1.0, 4.0, 1.5)
    assert band.shape == (16, 16) and amp.shape == (int(band.sum()),)
    with pytest.raises(ValueError):
        band[0, 0] = True
    with pytest.raises(ValueError):
        amp[0] = 0.0
    assert spectral._band_tables(16, 2 * np.pi, 1.0, 4.0, 1.5)[1] is amp


# -- operator identities on any period ------------------------------------------

SIZES = st.sampled_from([8, 16, 32])
PERIODS = st.floats(0.5, 20.0)
SEEDS = st.integers(0, 2**31 - 1)


@settings(max_examples=25, deadline=None)
@given(SIZES, PERIODS, SEEDS)
def test_leray_identities_any_period(n, length, seed):
    g = Grid(n, length)
    vh = g.rfft(np.random.default_rng(seed).standard_normal((2, n, n)))
    ph = g.leray_hat(vh)
    assert g.divergence_residual(ph) <= 1e-12
    assert np.abs(g.leray_hat(ph) - ph).max() <= 1e-12 * np.abs(ph).max()


@settings(max_examples=25, deadline=None)
@given(SIZES, PERIODS, SEEDS)
def test_inner_hat_matches_quadrature_any_period(n, length, seed):
    g = Grid(n, length)
    rng = np.random.default_rng(seed)
    f, h = rng.standard_normal((2, 2, n, n))
    scale = g.norm_l2(f) * g.norm_l2(h)
    assert abs(g.inner_hat(g.rfft(f), g.rfft(h)) - g.inner(f, h)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(SIZES, PERIODS, SEEDS)
def test_laplacian_is_sum_of_second_derivatives_any_period(n, length, seed):
    g = Grid(n, length)
    fh = g.rfft(np.random.default_rng(seed).standard_normal((n, n)))
    lap = g.laplacian_hat(fh)
    parts = g.deriv_hat(g.deriv_hat(fh, 1), 1) + g.deriv_hat(g.deriv_hat(fh, 2), 2)
    assert np.abs(lap - parts).max() <= 1e-12 * np.abs(lap).max()
