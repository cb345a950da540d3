import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.dyadic import (
    DyadicPartition,
    NormSpec,
    SymDecompContext,
    chi_profile,
    commutator,
    neg_index_equiv,
    product_estimate_sample,
)
from qflow.qtensor import mat_mul, q_to_mat, random_qtensor
from qflow.spectral import Grid, random_scalar


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


@pytest.fixture(scope="module")
def part(grid):
    return DyadicPartition(grid)


def test_chi_profile_plateaus():
    r = np.linspace(0, 2, 1001)
    c = chi_profile(r)
    assert np.all(c[r <= 0.75] == 1.0)
    assert np.all(c[r >= 1.0] == 0.0)
    assert np.all(np.diff(c) <= 1e-12)  # monotone non-increasing


def test_partition_of_unity(part, grid):
    total = sum(part.phi[q] for q in part.qs)
    nz = grid.kmag > 0
    assert np.abs(total[nz] - 1.0).max() <= 1e-12
    assert total[0, 0] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.floats(0.5, 20.0))
def test_partition_of_unity_any_period(n, length):
    g = Grid(n, length)
    part = DyadicPartition(g)
    total = sum(part.phi[q] for q in part.qs)
    assert np.abs(total[g.kmag > 0] - 1.0).max() <= 1e-12
    assert total[0, 0] == 0.0


@pytest.mark.parametrize("length", [2 * np.pi, 3.7, 1.0])
@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_block_irfft_on_support_box_matches_irfft2(monkeypatch, n, length):
    # every phi_q-multiplied spectrum, and every phi_q phi_q+1 one, is
    # inverse-transformed on the box of its support where 4m < n, else on the
    # full grid, and equals irfft2 of the full-layout product bit for bit; the
    # support is the largest max(|k1|, |k2|) where the table is nonzero.  Only
    # the sign of an exact zero may differ: phi_0 phi_1 has no lattice point at
    # len 2 pi, and irfft2 also sums the signed zeros 0 * fh outside the box
    g = Grid(n, length)
    part = DyadicPartition(g)
    assert g.box(n // 3) is g.band
    idx = np.abs(np.round(g.k1[:, 0] * length / (2 * np.pi)))
    cheb = np.maximum(idx[:, None], np.arange(n // 2 + 1)[None, :])
    for q in part.qs:
        assert part.support[q] == cheb[part.phi[q] != 0].max()
        assert not part.phi[q][cheb > part.support[q]].any()
    irfft, layouts = Grid.irfft, []
    monkeypatch.setattr(Grid, "irfft", lambda self, fh: layouts.append(self.m) or irfft(self, fh))
    rng = np.random.default_rng(n)
    for lead in ((), (9,)):
        fh = g.rfft(rng.normal(size=lead + (n, n)))
        before = fh.copy()
        for qs in [(q,) for q in part.qs] + [(q, q + 1) for q in part.qs[:-1]]:
            mult = part.phi[qs[0]] if len(qs) == 1 else part.phi[qs[0]] * part.phi[qs[1]]
            want = scipy.fft.irfft2(mult * fh, s=(n, n), axes=(-2, -1))
            assert (part.block_irfft(fh, *qs) + 0.0).tobytes() == (want + 0.0).tobytes()
            m = part.support[qs[0]]
            assert layouts.pop() == (m if 4 * m < n else None)
        assert fh.tobytes() == before.tobytes()


def test_tables_share_half_spectrum_layout(part, grid):
    half = (grid.n, grid.n // 2 + 1)
    assert all(part.phi[q].shape == half for q in part.qs)
    assert part.sobolev_weight(0.5).shape == half
    assert part.lowpass_multiplier(2).shape == half
    for name in ("phi_r", "sobolev_weight_r", "sobolev_inner"):
        assert not hasattr(part, name)


def test_block_supports_disjoint(part):
    for q in part.qs:
        for qp in part.qs:
            if abs(q - qp) >= 2:
                assert np.all(part.phi[q] * part.phi[qp] == 0.0)


def test_block_of_single_mode(part, grid):
    x, _ = grid.nodes()
    j = 3
    f = np.cos((2**j) * x)
    for q in part.qs:
        b = part.block(f, q)
        if q in (j - 1, j):
            continue
        assert np.abs(b).max() <= 1e-13


def test_block_rejects_out_of_range(part, grid):
    f = np.zeros((grid.n, grid.n))
    with pytest.raises(ValueError):
        part.block(f, part.q_max + 1)


def test_blocks_sum_to_field(part, grid):
    rng = np.random.default_rng(0)
    f = random_scalar(grid, rng)
    total = sum(part.block(f, q) for q in part.qs)
    assert np.abs(total - f).max() <= 1e-12 * np.abs(f).max()
    const = np.ones((grid.n, grid.n))
    for q in part.qs:
        assert np.abs(part.block(const, q)).max() <= 1e-13


def test_lowpass_limits(part, grid):
    rng = np.random.default_rng(1)
    f = random_scalar(grid, rng) + 0.7
    high = part.lowpass(f, part.q_max + 2)
    assert np.abs(high - (f - f.mean())).max() <= 1e-12
    low = part.lowpass(f, part.q_min - 1)
    assert np.abs(low).max() <= 1e-13


def test_lowpass_telescoping(part, grid):
    rng = np.random.default_rng(2)
    f = random_scalar(grid, rng)
    for j in range(part.q_min + 1, part.q_max):
        lhs = part.lowpass(f, j + 1) - part.lowpass(f, j)
        rhs = part.block(f, j)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (np.abs(rhs).max() + 1e-3)


def test_besov_zero_and_single_mode(part, grid):
    assert part.besov_norm(np.zeros((grid.n, grid.n)), NormSpec(0.5)) == 0.0
    x, _ = grid.nodes()
    j = 3
    f = np.cos((2**j) * x)
    seq = [2.0 ** (0.5 * q) * grid.norm_l2(part.block(f, q)) for q in part.qs]
    contributing = [q for q, v in zip(part.qs, seq) if v > 1e-12]
    assert set(contributing) <= {j - 1, j}
    expect = math.sqrt(sum(v**2 for v in seq))
    assert abs(part.besov_norm(f, NormSpec(0.5)) - expect) <= 1e-12 * expect


def test_besov_vs_multiplier_norm_band(grid, part):
    # block norm at s=1 is uniformly comparable to || |grad| f ||_L2
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(100):
        f = random_scalar(grid, rng)
        b = part.besov_norm(f, NormSpec(1.0))
        fh = grid.rfft(f)
        m = math.sqrt(grid.inner_hat(fh, fh, grid.ksq))
        ratios.append(b / m)
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0


def test_sobolev_inner_properties(part, grid):
    rng = np.random.default_rng(4)
    f = random_scalar(grid, rng)
    g = random_scalar(grid, rng)
    fh, gh = grid.rfft(f), grid.rfft(g)
    for s in (-0.5, 0.0, 0.5, 1.0):
        w = part.sobolev_weight(s)  # <f, g>_{H^s} = inner_hat(fh, gh, w)
        assert grid.inner_hat(fh, fh, w) >= 0.0
        sym = grid.inner_hat(fh, gh, w) - grid.inner_hat(gh, fh, w)
        assert abs(sym) <= 1e-12 * abs(grid.inner_hat(fh, gh, w) + 1e-30)
        b2 = part.besov_norm(f, NormSpec(s)) ** 2
        assert abs(b2 - grid.inner_hat(fh, fh, w)) <= 1e-12 * b2


def test_sobolev_inner_s0_comparable_l2(part, grid):
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(50):
        f = random_scalar(grid, rng)
        ratios.append(part.hs_norm2_hat(grid.rfft(f), 0.0) / grid.inner(f, f))
    # block overlap: sum_q phi_q(k)^2 lies in [1/2, 1] since at most two
    # blocks overlap and they sum to one
    assert 0.5 - 1e-12 <= min(ratios) and max(ratios) <= 1.0 + 1e-12


def test_bony_reconstruction_with_means(part, grid):
    rng = np.random.default_rng(6)
    f = random_scalar(grid, rng) + 0.35
    g = random_scalar(grid, rng) - 1.2
    tfg, tgf, rem = part.bony(f, g)
    recon = tfg + tgf + rem + f.mean() * g + g.mean() * f - f.mean() * g.mean()
    assert np.abs(recon - f * g).max() <= 1e-10 * np.abs(f * g).max()


def test_bony_separated_modes_land_in_paraproduct(part, grid):
    x, _ = grid.nodes()
    f = np.cos(x)            # block 0
    g = np.cos(16 * x)       # block 4: separation >= 3 octaves
    tfg, tgf, rem = part.bony(f, g)
    prod = f * g
    assert np.abs(tfg - prod).max() <= 1e-12 * np.abs(prod).max()
    assert np.abs(tgf).max() <= 1e-13
    assert np.abs(rem).max() <= 1e-13


def test_bony_equal_single_mode_goes_to_remainder(part, grid):
    x, _ = grid.nodes()
    f = np.cos(4 * x)
    tfg, tgf, rem = part.bony(f, f)
    # product = (1 + cos 8x)/2 lands entirely in R, including the mean it creates
    assert np.abs(tfg).max() <= 1e-13 and np.abs(tgf).max() <= 1e-13
    assert np.abs(rem - f * f).max() <= 1e-12


def test_sym_decomp_reconstruction(part, grid):
    rng = np.random.default_rng(7)
    a = random_qtensor(grid, rng)
    b = random_qtensor(grid, rng)
    ctx = SymDecompContext(part, a, b)
    for q in part.qs:
        lhs = ctx.block_product(q)
        den = np.abs(lhs).max()
        if den <= 1e-14:
            continue
        assert np.abs(sum(ctx.terms(q)) - lhs).max() <= 1e-10 * den


def test_sym_decomp_j2_vanishes_for_low_a(part, grid):
    # A far below block q-2 makes S_{q'-1}A - S_{q-1}A = 0 in the window
    x, _ = grid.nodes()
    a = np.zeros((5, grid.n, grid.n))
    a[2] = np.sqrt(2.0) * np.cos(x)  # A_12 = A_21 = cos x: block 0 only
    rng = np.random.default_rng(8)
    b = random_qtensor(grid, rng)
    ctx = SymDecompContext(part, a, b)
    q = part.q_max  # far above the support of A
    _, j2, _, _ = ctx.terms(q)
    # no blocks of A between q'-1 and q-1: zero up to FFT roundoff
    assert np.abs(j2).max() <= 1e-13 * np.abs(q_to_mat(b)).max()


def test_sym_decomp_zero_b(part, grid):
    rng = np.random.default_rng(9)
    a = random_qtensor(grid, rng)
    ctx = SymDecompContext(part, a, np.zeros_like(a))
    for q in (part.q_min, part.q_max):
        assert all(np.abs(t).max() == 0.0 for t in ctx.terms(q))


def test_sym_decomp_requires_matrix_fields(part, grid):
    # A and B are S0 coefficient planes (5, n, n); neither scalar fields
    # nor dense matrix fields are taken
    n = grid.n
    for shape in ((n, n), (3, 3, n, n)):
        with pytest.raises(ValueError):
            SymDecompContext(part, np.zeros(shape), np.zeros(shape))
    with pytest.raises(ValueError):
        SymDecompContext(part, np.zeros((5, n, n)), np.zeros((3, 3, n, n)))


def test_sym_decomp_weighted_pairing(part, grid):
    # summing per-block pairings with 2^(2qs) weights reproduces the H^s
    # pairing <AB, C>_{H^s} when the four terms replace block_q(AB)
    rng = np.random.default_rng(12)
    a = random_qtensor(grid, rng)
    b = random_qtensor(grid, rng)
    c = q_to_mat(random_qtensor(grid, rng))
    s = -0.5
    ctx = SymDecompContext(part, a, b)
    ab = mat_mul(q_to_mat(grid.zero_mean(a)), q_to_mat(grid.zero_mean(b)))

    # summed over the nine entries
    direct = grid.inner_hat(grid.rfft(grid.zero_mean(ab)), grid.rfft(c), part.sobolev_weight(s))
    via_blocks = 0.0
    for q in part.qs:
        terms = sum(ctx.terms(q))
        cq = grid.irfft(part.phi[q] * grid.rfft(c))
        via_blocks += 4.0 ** (q * s) * grid.inner(terms, cq)
    assert abs(via_blocks - direct) <= 1e-8 * (abs(direct) + 1e-30)


class ReferenceSymDecomp:
    """The termwise construction of J1..J4 for matrix fields (3, 3, n, n):
    every window sum formed per q."""

    def __init__(self, part, a, b):
        g = part.grid
        self.part, self.grid = part, g
        a, b = g.zero_mean(a), g.zero_mean(b)
        ah, self.bh = g.rfft(a), g.rfft(b)
        self.ab_hat = g.rfft(mat_mul(a, b))
        block_a = {q: g.irfft(part.phi[q] * ah) for q in part.qs}
        self.block_b = {q: g.irfft(part.phi[q] * self.bh) for q in part.qs}
        self.sa = part._prefix_sums(block_a)
        sb = part._prefix_sums(self.block_b)
        self.p_hat = {q: g.rfft(mat_mul(self.sa[q - 2], self.block_b[q])) for q in part.qs}
        self.r_hat = {q: g.rfft(mat_mul(block_a[q], sb[q + 1])) for q in part.qs}

    def terms(self, q):
        part, g = self.part, self.grid
        window = [qp for qp in part.qs if abs(q - qp) <= 5]
        j1 = g.irfft(part.phi[q] * sum(self.p_hat[qp] for qp in window))
        j2 = np.zeros_like(j1)
        for qp in window:
            if abs(q - qp) <= 1:
                dd = g.irfft(part.phi[q] * part.phi[qp] * self.bh)
                j1 -= mat_mul(self.sa[qp - 2], dd)
                j2 += mat_mul(self.sa[qp - 2] - self.sa[q - 2], dd)
        j3 = mat_mul(self.sa[q - 2], self.block_b[q])
        j4 = g.irfft(part.phi[q] * sum(self.r_hat[qp] for qp in part.qs if qp >= q - 5))
        return j1, j2, j3, j4

    def block_product(self, q):
        return self.grid.irfft(self.part.phi[q] * self.ab_hat)


def s0_pair(grid, seed):
    rng = np.random.default_rng(seed)
    return [random_qtensor(grid, rng) for _ in range(2)]


def s0_pair_with_means(grid, seed):
    # a nonzero mean in every plane, which the context must drop, and modes
    # up to |k| = n/2, so that the top block of A and B is not empty
    rng = np.random.default_rng(seed)
    return [random_qtensor(grid, rng, kmax=grid.n / 2) + rng.normal(size=(5, 1, 1))
            for _ in range(2)]


def general_pair(grid, seed):
    # non-symmetric, not traceless, with a nonzero mean in every entry
    rng = np.random.default_rng(seed)
    return [np.stack([np.stack([random_scalar(grid, rng) + rng.normal() for _ in range(3)])
                      for _ in range(3)]) for _ in range(2)]


@pytest.mark.parametrize("n, length, make, seed", [
    (32, 2 * np.pi, s0_pair, 0), (32, 2 * np.pi, s0_pair, 1), (16, 3.7, s0_pair_with_means, 2),
])
def test_sym_decomp_matches_reference_terms(n, length, make, seed):
    # the 5-plane context computes J1..J4 and block_q(AB) as the termwise
    # formulas on the dense expansions do, up to roundoff: it sums the
    # window products in physical space and regroups J1 and J2, so the
    # bound is relative to the oracle's largest term (measured <= 1.5e-15)
    g = Grid(n, length)
    part = DyadicPartition(g)
    a, b = make(g, seed)
    ctx, ref = SymDecompContext(part, a, b), ReferenceSymDecomp(part, q_to_mat(a), q_to_mat(b))
    # the blocks, the prefix sums and the per-q' running sums live only
    # while the context is built
    for name in ("a", "b", "ah", "block_a", "block_b", "sa", "sb", "p_hat", "r_hat",
                 "psum", "rsum", "sum_p", "sum_r", "at"):
        assert not hasattr(ctx, name)
    expect = {q: ref.terms(q) for q in part.qs}
    scale = max(np.abs(t).max() for ts in expect.values() for t in ts)
    for q in part.qs:
        assert np.abs(ctx.block_product(q) - ref.block_product(q)).max() <= 1e-13 * scale
        for got, want in zip(ctx.terms(q), expect[q]):
            assert np.abs(got - want).max() <= 1e-13 * scale
    # out-of-order calls recompute what the ascending pass carries
    for q in reversed(part.qs):
        for got, want in zip(ctx.terms(q), expect[q]):
            assert np.abs(got - want).max() <= 1e-13 * scale
    # the oracle itself takes any matrix pair: non-symmetric, not
    # traceless, with means
    ref = ReferenceSymDecomp(part, *general_pair(g, seed))
    for q in part.qs:
        lhs = ref.block_product(q)
        assert np.abs(sum(ref.terms(q)) - lhs).max() <= 1e-10 * np.abs(lhs).max()


@pytest.mark.parametrize("n, r2c, c2r", [(16, 37, 183), (32, 37, 230)])
def test_sym_decomp_plane_budget(monkeypatch, n, r2c, c2r):
    # r2c: A and B (5 planes each), AB (9), and one 9-plane sum per distinct
    # J1 window and J4 start; c2r: the blocks of A and B (5 planes each),
    # then per q J1, J4 and block_q(AB) (9 each), plus block_q block_q' B
    # (5) once per unordered pair |q - q'| <= 1.  The c2r planes of the q
    # whose support box m has 4m < n (q <= 1 at n = 16, q <= 2 at n = 32;
    # for a pair, the smaller q) are taken on box views, the rest on the
    # full grid: at n = 16, 20 + 54 + 20 of the 40 + 108 + 35 block, term
    # and pair planes; at n = 32, 30 + 81 + 30 of 50 + 135 + 45
    g = Grid(n)
    part = DyadicPartition(g)
    a, b = s0_pair(g, 3)
    counts = {"r2c": 0, "c2r": 0, "c2r_box": 0}

    def counted(fn, kind):
        def wrapper(self, f):
            counts[kind] += int(np.prod(np.shape(f)[:-2]))
            if kind == "c2r" and self.m is not None:
                counts["c2r_box"] += int(np.prod(np.shape(f)[:-2]))
            return fn(self, f)
        return wrapper

    monkeypatch.setattr(Grid, "rfft", counted(Grid.rfft, "r2c"))
    monkeypatch.setattr(Grid, "irfft", counted(Grid.irfft, "c2r"))
    ctx = SymDecompContext(part, a, b)
    for q in part.qs:
        ctx.terms(q)
        ctx.block_product(q)
    assert (counts["r2c"], counts["c2r"]) == (r2c, c2r)
    c2r_box = {16: 94, 32: 141}[n]
    assert (counts["c2r"] - counts["c2r_box"], counts["c2r_box"]) == (c2r - c2r_box, c2r_box)


def test_sym_decomp_skips_zero_low_pass_products(monkeypatch):
    # S_{q-1}A has no blocks for q <= q_min + 1: at n = 128 a pair forms 32
    # dense products (AB, J3 and the S_{q+2}B products, and the window
    # products), not 41
    from qflow import dyadic

    g = Grid(128)
    part = DyadicPartition(g)
    a, b = s0_pair(g, 4)
    calls = []
    monkeypatch.setattr(dyadic, "mat_mul", lambda x, y: calls.append(1) or mat_mul(x, y))
    ctx = SymDecompContext(part, a, b)
    for q in part.qs:
        lhs = ctx.block_product(q)
        assert np.abs(sum(ctx.terms(q)) - lhs).max() <= 1e-10 * np.abs(lhs).max()
    assert len(calls) == 32


def test_commutator_constant_a_vanishes(part, grid):
    rng = np.random.default_rng(10)
    f = random_scalar(grid, rng)
    a = np.full((grid.n, grid.n), 2.5)
    q = (part.q_min + part.q_max) // 2
    out = commutator(part, a, f, q, q)
    assert np.abs(out).max() <= 1e-12


def test_commutator_linearity(part, grid):
    rng = np.random.default_rng(11)
    a = random_scalar(grid, rng)
    f1 = random_scalar(grid, rng)
    f2 = random_scalar(grid, rng)
    q = (part.q_min + part.q_max) // 2
    lhs = commutator(part, a, 2.0 * f1 - 0.5 * f2, q, q + 1)
    rhs = 2.0 * commutator(part, a, f1, q, q + 1) - 0.5 * commutator(part, a, f2, q, q + 1)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (np.abs(rhs).max() + 1e-30)


def test_commutator_window_precondition(part, grid):
    f = np.zeros((grid.n, grid.n))
    with pytest.raises(ValueError):
        commutator(part, f, f, part.q_min, part.q_min + 6)


def test_neg_index_examples(part, grid):
    bn, ln, ratio = neg_index_equiv(part, np.zeros((grid.n, grid.n)), NormSpec(-0.5))
    assert bn == 0.0 and ln == 0.0 and ratio is None
    with pytest.raises(ValueError):
        neg_index_equiv(part, np.zeros((grid.n, grid.n)), NormSpec(0.5))


def test_neg_index_single_mode_closed_form(part, grid):
    x, _ = grid.nodes()
    f = np.cos(8 * x)
    spec = NormSpec(-0.5)
    bn, ln, ratio = neg_index_equiv(part, f, spec)
    l2 = grid.norm_l2(f)
    kmag = 8.0
    expect_bn = math.sqrt(sum((2.0 ** (spec.s * q) * chi_phi(part, q, kmag) * l2) ** 2
                              for q in part.qs))
    expect_ln = math.sqrt(sum((2.0 ** (spec.s * q)
                               * chi_profile(np.array([kmag * 2.0 ** (-q)]))[0] * l2) ** 2
                              for q in part.qs))
    assert abs(bn - expect_bn) <= 1e-12 * expect_bn
    assert abs(ln - expect_ln) <= 1e-12 * expect_ln
    assert ratio == pytest.approx(expect_ln / expect_bn, rel=1e-12)


def chi_phi(part, q, kmag):
    arr = np.array([kmag])
    return float(chi_profile(arr * 2.0 ** (-q - 1))[0] - chi_profile(arr * 2.0 ** (-q))[0])


def test_product_sampler_validation(part):
    with pytest.raises(ValueError):
        product_estimate_sample(part, 0.9, -0.9, 10)
    with pytest.raises(ValueError):
        product_estimate_sample(part, 1.2, 0.5, 10)
    with pytest.raises(ValueError):
        product_estimate_sample(part, 0.5, 0.5, 0)


def test_product_sampler_deterministic(part):
    s1 = product_estimate_sample(part, 0.5, 0.5, 20, seed=3)
    s2 = product_estimate_sample(part, 0.5, 0.5, 20, seed=3)
    assert s1 == s2
    assert 0.0 < s1["max"] < 10.0
