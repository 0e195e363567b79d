import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyflab.geometry
from cyflab.geometry import (
    DefinitenessError,
    FiberChart,
    FiberGrid,
    GeometryError,
    Herm2,
    InvalidFieldError,
    d_z,
    d_zbar,
    ddc_fiber,
    ddc_real_fields,
    drop_nyquist_modes,
    fft,
    fiber_integral,
    flat_symbol,
    fourier_multiply,
    herm_det,
    herm_inverse,
    herm_mean,
    herm_min_eig,
    hessian_weights,
    ifft,
    irfft,
    laplace_beltrami,
    linear_coeff_derivative,
    matrix_min_eig,
    prolong_spectrum,
    rfft,
)
from conftest import as_metric, random_chart_and_metric, random_trig_field


def test_grid_validation():
    with pytest.raises(GeometryError):
        FiberGrid(1, 6)
    with pytest.raises(GeometryError):
        FiberGrid(1, 15)
    with pytest.raises(GeometryError):
        FiberGrid(3, 16)


def test_chart_needs_upper_half_plane(grid64):
    with pytest.raises(DefinitenessError):
        FiberChart.make(grid64, tau=1.0 - 0.2j)


@pytest.mark.parametrize("tau", [complex(float("nan"), 1.0), complex(1.0, float("nan")),
                                 complex(float("inf"), 1.0), complex(0.0, float("inf")),
                                 complex(float("nan"), float("nan"))])
def test_chart_needs_a_finite_modulus(grid64, tau):
    """A NaN or infinite tau is rejected, not turned into NaN chart coefficients;
    a NaN Im tau fails the positivity test itself."""
    error = DefinitenessError if np.isnan(tau.imag) else GeometryError
    with pytest.raises(error):
        FiberChart.make(grid64, tau=tau)


def test_n2_chart_needs_a_finite_period_matrix():
    om = np.array([[complex(0.0, float("inf")), 0.1], [0.1, 1j]])
    with pytest.raises(GeometryError, match="finite"):
        FiberChart.make(FiberGrid(2, 8), omega_matrix=om)


def _n1_tables_by_complex_products(tau, N):
    """The n = 1 chart tables as complex products build them: C from the 1 x 1
    inverse, M = 2 pi i sum_m C_m k_m, the dd^c table M (-conj M), the flat
    symbol summed with the identity's weight, and its inverse."""
    om = np.array([[tau]])
    inv = np.linalg.inv(om - om.conj())
    C = ((-om.conj() @ inv)[0, 0], inv[0, 0])
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    kx, ky = np.meshgrid(k, k[: N // 2 + 1], indexing="ij", sparse=True)
    m = np.zeros((1, 1), dtype=complex)
    for c, kk in zip(C, (kx, ky)):
        m = m + c * kk
    z = 2j * np.pi * m
    ddc = np.multiply(z, -np.conj(z)).real.copy()
    lam = np.zeros(ddc.shape)
    lam -= 1.0 * ddc
    lam[lam < 0] = 0.0
    with np.errstate(divide="ignore"):
        flat_inverse = np.where(lam > 0, -1.0 / lam, 0.0)
    return np.array([C]), ddc, lam, flat_inverse


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-10, 10).filter(lambda x: x != 0), im=st.floats(1e-2, 1e2),
       N=st.sampled_from([8, 16, 64]))
def test_n1_chart_tables_keep_the_complex_product_bits(re, im, N):
    """The n = 1 tables built from the closed-form C and the mode norm equal
    the complex-product construction bit for bit, signed zeros included."""
    chart = FiberChart.make(FiberGrid(1, N), tau=complex(re, im))
    C, ddc, lam, flat_inverse = _n1_tables_by_complex_products(chart.tau, N)
    table, im_table = chart.ddc_mult_half[0, 0]
    assert im_table is None
    for built, reference in ((chart.dz_coeffs, C), (table, ddc), (flat_symbol(chart), lam),
                             (chart.flat_inverse_mult, flat_inverse)):
        assert built.shape == reference.shape
        assert built.tobytes() == reference.tobytes()


def test_spectral_round_trip(grid64):
    rng = np.random.RandomState(0)
    f = rng.standard_normal(grid64.shape) + 1j * rng.standard_normal(grid64.shape)
    back = ifft(fft(f))
    assert np.max(np.abs(back - f)) < 1e-13 * np.max(np.abs(f))


def test_coordinate_monomials(square_chart):
    # d_z z = 1, d_z zbar = 0 through the chain-rule coefficients
    tau = square_chart.tau
    assert abs(linear_coeff_derivative(square_chart, (1, tau), ("z", 0)) - 1) < 1e-13
    assert abs(linear_coeff_derivative(square_chart, (1, np.conj(tau)), ("z", 0))) < 1e-13
    # Re z = x at tau = i: derivative 1/2
    assert abs(linear_coeff_derivative(square_chart, (1, 0), ("z", 0)) - 0.5) < 1e-13


def test_fiber_derivative_examples(square_chart):
    grid = square_chart.grid
    x = grid.coords[0]
    f = np.cos(2 * np.pi * x)
    # chain rule: d_z d_zbar cos(2 pi x) = -pi^2 cos(2 pi x) on the square torus
    hess = ddc_fiber(f, square_chart)
    assert np.max(np.abs(hess[0, 0] + np.pi ** 2 * f)) < 1e-11
    # constant field -> zero derivative
    assert np.max(np.abs(d_z(np.ones(grid.shape), square_chart))) < 1e-13
    with pytest.raises(InvalidFieldError):
        d_z(np.full(grid.shape, np.nan), square_chart)


def test_derivatives_commute(square_chart):
    rng = np.random.RandomState(3)
    f = random_trig_field(rng, square_chart.grid)
    ab = d_z(d_zbar(f, square_chart), square_chart)
    ba = d_zbar(d_z(f, square_chart), square_chart)
    assert np.max(np.abs(ab - ba)) < 1e-12 * max(1.0, float(np.max(np.abs(ab))))


def test_ddc_hermitian_n2():
    grid = FiberGrid(2, 12)
    chart = FiberChart.make(grid, omega_matrix=np.array([[1j, 0.2], [0.2, 1.5j]]))
    rng = np.random.RandomState(5)
    f = random_trig_field(rng, grid, kmax=2)
    hess = ddc_fiber(f, chart)
    dev = max(float(np.max(np.abs(hess[a, b] - np.conj(hess[b, a]))))
              for a in range(2) for b in range(2))
    assert dev < 1e-13 * max(1.0, float(np.max(np.abs(hess))))


def test_laplace_beltrami_flat(square_chart):
    grid = square_chart.grid
    g = np.ones((1, 1) + grid.shape, dtype=complex)
    f = np.cos(2 * np.pi * grid.coords[0])
    lap = laplace_beltrami(g, f, square_chart)
    assert np.max(np.abs(lap + np.pi ** 2 * f)) < 1e-11
    assert np.max(np.abs(laplace_beltrami(g, np.ones(grid.shape), square_chart))) < 1e-13
    with pytest.raises(DefinitenessError):
        laplace_beltrami(-g, f, square_chart)


def _random_positive_metric(rng, chart, g_const):
    """g_const scaled by a positive field, plus at n = 2 a Hermitian off-diagonal bump."""
    n, shape = chart.n, chart.grid.shape
    bump = random_trig_field(rng, chart.grid, kmax=2).real
    bump = 0.3 * bump / max(1.0, float(np.max(np.abs(bump))))
    g = g_const.reshape((n, n) + (1,) * len(shape)) * (1.0 + bump)
    if n == 2:
        c = random_trig_field(rng, chart.grid, kmax=2, real=False)
        c = 0.05 * c / max(1.0, float(np.max(np.abs(c))))
        g[0, 1] += c
        g[1, 0] += np.conj(c)
    return g


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 32), (2, 8)]))
def test_laplace_beltrami_matches_inverse_metric_formula(seed, case):
    """The weighted dd^c sum equals sum_ab herm_inverse(g)[b, a] ddc_fiber(f)[a, b],
    the formula it replaces, for real and complex f."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, g_const = random_chart_and_metric(rng, n, N)
    g = as_metric(_random_positive_metric(rng, chart, g_const))
    assert herm_min_eig(g) > 0
    gup = herm_inverse(g)
    for real in (True, False):
        f = random_trig_field(rng, chart.grid, kmax=3, real=real)
        f = f.real if real else f
        hess = ddc_fiber(f, chart)
        reference = sum(gup[b, a] * hess[a, b] for a in range(n) for b in range(n))
        lap = laplace_beltrami(g, f, chart)
        assert np.iscomplexobj(lap) == (not real)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(lap - reference)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       case=st.sampled_from([(1, 16), (1, 32), (2, 8), (2, 12)]))
def test_flat_symbol_matches_quadratic_form(seed, case):
    """flat_symbol is Re sum_ab g^{b a} z_a conj(z_b) on the half spectrum, negative
    rounding set to 0: bit for bit at g = I, to rounding for a constant positive g."""
    n, N = case
    chart, g = random_chart_and_metric(np.random.RandomState(seed), n, N)

    def reference(g_const):
        gup = np.linalg.inv(g_const)
        lam = np.zeros(chart.grid.shape, dtype=complex)
        for a in range(n):
            for b in range(n):
                lam = lam + gup[b, a] * chart.z_mult[a] * np.conj(chart.z_mult[b])
        lam = lam.real[..., : N // 2 + 1].copy()
        lam[lam < 0] = 0.0
        return lam

    identity = reference(np.eye(n, dtype=complex))
    assert np.array_equal(flat_symbol(chart), identity)
    assert np.array_equal(flat_symbol(chart, np.eye(n, dtype=complex)), identity)
    expected = reference(g)
    assert np.max(np.abs(flat_symbol(chart, g) - expected)) \
        <= 8 * np.finfo(float).eps * np.max(expected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_laplacian_integral_vanishes(seed):
    """int (Delta_g f) det(g) dmu = 0: divergence form on a closed fiber."""
    grid = FiberGrid(1, 32)
    chart = FiberChart.make(grid, tau=0.3 + 1.2j)
    rng = np.random.RandomState(seed)
    f = random_trig_field(rng, grid)
    bump = random_trig_field(rng, grid, kmax=2).real
    bump = 0.3 * bump / max(1.0, float(np.max(np.abs(bump))))
    g = (1.5 + bump).astype(complex)[np.newaxis, np.newaxis]
    assert herm_min_eig(g) > 0
    lap = laplace_beltrami(g, f, chart)
    val = fiber_integral((lap * np.ones(grid.shape)).real + 0j, chart, metric=g)
    scale = max(1.0, float(np.max(np.abs(lap))))
    assert abs(val) < 1e-11 * scale


def test_invert_flat_laplacian(square_chart):
    """flat_inverse_mult, the table of the exact n = 1 step, inverts the flat Laplacian."""
    grid = square_chart.grid
    f = np.cos(2 * np.pi * grid.coords[0])
    u = fourier_multiply(f, square_chart.flat_inverse_mult)
    assert np.max(np.abs(u + f / np.pi ** 2)) < 1e-12
    assert np.max(np.abs(fourier_multiply(np.zeros(grid.shape),
                                          square_chart.flat_inverse_mult))) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_invert_flat_laplacian_round_trip(seed):
    grid = FiberGrid(1, 32)
    chart = FiberChart.make(grid, tau=1j)
    rng = np.random.RandomState(seed)
    f = random_trig_field(rng, grid)
    f = f - np.mean(f)
    u = fourier_multiply(f, chart.flat_inverse_mult)
    lap = ddc_fiber(u, chart)[0, 0]
    assert np.max(np.abs(lap - f)) < 1e-12 * max(1.0, float(np.max(np.abs(f))))
    assert abs(np.mean(u)) < 1e-13


def test_fiber_integral_volume(grid64):
    # flat form (i/2) dz ^ dzbar at s = 2i has fiber volume Im s = 2; the
    # Ricci-flat normalization 1/Im s brings it to 1
    chart = FiberChart.make(grid64, tau=2j)
    one = np.ones(grid64.shape)
    assert abs(fiber_integral(one, chart) - 2.0) < 1e-13
    rho = np.full((1, 1) + grid64.shape, 0.5, dtype=complex)
    assert abs(fiber_integral(one, chart, metric=rho) - 1.0) < 1e-13
    # mean-zero mode integrates to zero
    assert abs(fiber_integral(np.cos(2 * np.pi * grid64.coords[0]), chart)) < 1e-13


def test_fiber_integral_rejects_imaginary(grid64):
    chart = FiberChart.make(grid64, tau=1j)
    with pytest.raises(InvalidFieldError):
        fiber_integral(1j * np.ones(grid64.shape), chart)


def test_min_eig():
    grid = FiberGrid(1, 16)
    ident = np.ones((1, 1) + grid.shape, dtype=complex)
    assert herm_min_eig(ident) == 1.0
    g2 = np.zeros((2, 2) + (16, 16, 16, 16)[:0] + FiberGrid(2, 8).shape, dtype=complex)
    g2[0, 0] = 1.0
    g2[1, 1] = -1.0
    assert herm_min_eig(as_metric(g2)) == -1.0
    mat = np.zeros((2, 2) + grid.shape, dtype=complex)
    mat[0, 0] = 2.0
    mat[1, 1] = 3.0
    mat[0, 1] = 1.0
    mat[1, 0] = 1.0
    expected = 2.5 - np.sqrt(0.25 + 1.0)
    assert abs(matrix_min_eig(mat) - expected) < 1e-12


def test_herm_inverse_n2():
    grid = FiberGrid(2, 8)
    rng = np.random.RandomState(11)
    g = np.zeros((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = 2.0 + 0.1 * random_trig_field(rng, grid, kmax=1).real
    g[1, 1] = 3.0 + 0.1 * random_trig_field(rng, grid, kmax=1).real
    off = 0.2 * random_trig_field(rng, grid, kmax=1, real=False)
    g[0, 1] = off
    g[1, 0] = np.conj(off)
    gup = herm_inverse(as_metric(g))
    for a in range(2):
        for c in range(2):
            prod = sum(g[a, b] * gup[b, c] for b in range(2))
            target = 1.0 if a == c else 0.0
            assert np.max(np.abs(prod - target)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       case=st.sampled_from([(1, 16), (1, 64), (1, 128), (2, 8), (2, 12), (2, 24)]))
def test_half_tables_are_the_full_tables_sliced(seed, case):
    """ddc_mult_half equals ddc_mult sliced to the half spectrum, bit for bit.

    z_mult, built from per-axis frequency vectors, also equals the sum over
    full-grid frequency meshes, so real dd^c at n = 1 keeps its bytes.
    """
    n, N = case
    chart, _ = random_chart_and_metric(np.random.RandomState(seed), n, N)
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    freqs = np.meshgrid(*([k] * 2 * n), indexing="ij")
    for a in range(n):
        m = np.zeros(chart.grid.shape, dtype=complex)
        for axis in range(2 * n):
            m = m + chart.dz_coeffs[a, axis] * freqs[axis]
        assert np.array_equal(chart.z_mult[a], 2j * np.pi * m)
    assert sorted(chart.ddc_mult_half) == [(a, b) for a in range(n) for b in range(a, n)]
    for (a, b), (re, im) in chart.ddc_mult_half.items():
        full = chart.ddc_mult(a, b)[..., : N // 2 + 1]
        assert np.array_equal(re, full.real)
        assert (im is None) == (a == b)
        if im is not None:
            assert np.array_equal(im, full.imag)


def _flat_kernel_without_constant(chart, h_mean):
    mask = flat_symbol(chart, h_mean) == 0
    mask.flat[0] = False
    return mask


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 32), (2, 8)]))
def test_nyquist_filter_matches_fourier_multiplier(seed, case):
    """The parity-class filter is the multiplier that zeroes the flat kernel but the constant."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, h_mean = random_chart_and_metric(rng, n, N)
    keep = (~_flat_kernel_without_constant(chart, h_mean)).astype(float)
    f = rng.standard_normal(chart.grid.shape) * rng.uniform(0.1, 10.0)
    out = f.copy()
    drop_nyquist_modes(out)
    assert np.max(np.abs(out - fourier_multiply(f, keep))) \
        <= 1e-14 * np.max(np.abs(f))


def _class_means_by_reshape(f):
    """drop_nyquist_modes as one reshape to (N/2, 2) per axis: the reference."""
    classes = f.reshape(sum(((m // 2, 2) for m in f.shape), ()))
    means = classes.mean(axis=tuple(range(0, classes.ndim, 2)), keepdims=True)
    return (classes - means).reshape(f.shape) + np.mean(f)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 64), (2, 8), (2, 12)]))
def test_nyquist_filter_matches_reshape_formula(seed, case):
    """The strided parity-class loop agrees with the reshape formula, annihilates
    every pure-Nyquist mode and keeps the constant."""
    n, N = case
    rng = np.random.RandomState(seed)
    shape = (N,) * (2 * n)
    f = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
    before = f.copy()
    out = f.copy()
    drop_nyquist_modes(out)
    assert np.array_equal(f, before)  # the classes are shifted in a copy
    scale = np.max(np.abs(f))
    assert np.max(np.abs(out - _class_means_by_reshape(f))) <= 1e-15 * scale
    spectrum = fft(out)
    for parity in np.ndindex((2,) * len(shape)):
        index = tuple(p * (N // 2) for p in parity)
        if any(index):
            assert abs(spectrum[index]) <= 1e-13 * scale * f.size
    assert abs(spectrum.flat[0] - fft(f).flat[0]) <= 1e-13 * scale * f.size


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
def test_irfft_raises_no_warning(n, N):
    """The transforms give numpy's fftn/ifftn/rfftn/irfftn bits, and irfft
    raises no warning (numpy 2 warns on an irfftn given s without axes)."""
    rng = np.random.RandomState(0)
    shape = (N,) * (2 * n)
    f = rng.standard_normal(shape)
    c = f + 1j * rng.standard_normal(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = irfft(rfft(f), shape)
    assert np.array_equal(back, np.fft.irfftn(np.fft.rfftn(f), s=shape, axes=range(len(shape))))
    assert np.max(np.abs(back - f)) < 1e-13
    assert np.array_equal(rfft(f), np.fft.rfftn(f))
    assert np.array_equal(fft(c), np.fft.fftn(c)) and np.array_equal(ifft(c), np.fft.ifftn(c))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 32), (2, 8)]))
def test_parity_modes_are_the_flat_kernel(seed, case):
    """lambda(k) = 0 exactly on the modes whose every frequency is 0 or N/2."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, h_mean = random_chart_and_metric(rng, n, N)
    k = np.fft.fftfreq(N, d=1.0 / N)
    freqs = np.meshgrid(*([k] * 2 * n), indexing="ij")
    parity = np.logical_and.reduce([(k == 0) | (np.abs(k) == N // 2) for k in freqs])
    parity.flat[0] = False
    assert parity.sum() == 2 ** (2 * n) - 1
    assert np.array_equal(parity[..., : N // 2 + 1],
                          _flat_kernel_without_constant(chart, h_mean))


def _trig_poly(rng, grid, kmax, terms=5):
    """A real trigonometric polynomial with |k_m| <= kmax and sup at most 1, and its
    (k, amplitude, phase) terms."""
    spec = [(rng.randint(-kmax, kmax + 1, size=2 * grid.n), rng.uniform(-1, 1) / terms,
             rng.uniform(0, 2 * np.pi)) for _ in range(terms)]

    def on(g):
        f = np.zeros(g.shape)
        for k, amp, phase in spec:
            f += amp * np.cos(2 * np.pi * sum(kk * g.coords[ax] for ax, kk in enumerate(k))
                              + phase)
        return f

    return on(grid), on


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 8, 16), (1, 16, 64), (2, 8, 16)]))
def test_prolong_reproduces_trig_polynomials(seed, case):
    """A real trigonometric polynomial with |k_m| < N_c/2, prolonged from the
    N_c grid, is its own values on the finer grid, and on the shared nodes
    (every N/N_c-th) it is the coarse field."""
    n, nc, nf = case
    coarse, fine = FiberGrid(n, nc), FiberGrid(n, nf)
    f, on = _trig_poly(np.random.RandomState(seed), coarse, nc // 2 - 1)
    p = prolong_spectrum(f, fine.shape).field()
    assert p.dtype == np.float64 and p.shape == fine.shape
    assert np.max(np.abs(p - on(fine))) < 1e-14
    assert np.max(np.abs(p[(slice(None, None, nf // nc),) * (2 * n)] - f)) < 1e-14


def test_prolong_drops_the_coarse_nyquist_planes():
    """cos(pi N_c x), the Nyquist mode of the N_c grid, is not carried to a finer grid."""
    coarse = FiberGrid(1, 8)
    f = np.cos(np.pi * coarse.N * coarse.coords[0]) + 0.5
    assert np.max(np.abs(prolong_spectrum(f, FiberGrid(1, 16).shape).field() - 0.5)) < 1e-15


# (n, coarse N, fine N) of the prolongations that nested solves make
BAND_CASES = [(1, 8, 16), (1, 16, 64), (2, 8, 16), (2, 12, 24)]


def _parts(h) -> list:
    return [h.g00, h.g11, h.g01] if isinstance(h, Herm2) else [h]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from(BAND_CASES))
def test_ddc_of_a_prolonged_spectrum(seed, case):
    """dd^c of the spectrum that prolong_spectrum hands on is ddc_fiber of the
    prolonged field to within 1e-14 of its scale, and makes no forward
    transform.  The scale, max |f| times the largest dd^c table entry on
    the band, is that of the forward transform's rounding in ddc_fiber of the field
    (at most 5.8e-15 of it in a 400-draw sweep).  The spectrum's field is
    irfft of the zero-padded spectrum bit for bit, signed zeros included."""
    n, nc, nf = case
    rng = np.random.RandomState(seed)
    chart, _ = random_chart_and_metric(rng, n, nf)
    f = random_trig_field(rng, FiberGrid(n, nc), kmax=nc // 2).real
    spec = prolong_spectrum(f, chart.grid.shape)
    padded = np.zeros(chart.grid.shape[:-1] + (nf // 2 + 1,), dtype=complex)
    padded[np.ix_(*spec.index)] = spec.coef
    field = spec.field()
    assert field.tobytes() == irfft(padded, chart.grid.shape).tobytes()
    ref = ddc_fiber(field, chart)
    with patch.object(cyflab.geometry, "rfft", side_effect=AssertionError("rfft called")):
        got = ddc_fiber(spec, chart)
    tables = [t for pair in chart.ddc_mult_band(spec.index).values() for t in pair
              if t is not None]
    scale = float(np.max(np.abs(field))) * max(float(np.max(np.abs(t))) for t in tables)
    for mine, theirs in zip(_parts(got), _parts(ref), strict=True):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert np.max(np.abs(mine - theirs)) <= 1e-14 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from(BAND_CASES))
def test_band_tables_are_the_half_tables_at_the_band(seed, case):
    """The dd^c tables built at a band's frequencies only are the entries of
    ddc_mult_half there, bit for bit."""
    n, nc, nf = case
    chart, _ = random_chart_and_metric(np.random.RandomState(seed), n, nf)
    index = prolong_spectrum(np.zeros(FiberGrid(n, nc).shape), chart.grid.shape).index
    band = chart.ddc_mult_band(index)
    assert "ddc_mult_half" not in vars(chart)
    assert list(band) == list(chart.ddc_mult_half)
    for key, (re, im) in band.items():
        half_re, half_im = chart.ddc_mult_half[key]
        assert re.shape == tuple(len(i) for i in index)
        assert np.array_equal(re, half_re[np.ix_(*index)])
        assert (im is None) == (half_im is None)
        if im is not None:
            assert np.array_equal(im, half_im[np.ix_(*index)])


def test_min_eig_of_entries_past_the_square_range():
    """herm_min_eig stays finite where ((g00 - g11)/2)^2 overflows: at such
    nodes it is taken from the scaled entries, and elsewhere as before."""
    shape = FiberGrid(2, 8).shape
    with warnings.catch_warnings():
        # the overflow it steps around is not reported either
        warnings.simplefilter("error")
        assert abs(herm_min_eig(Herm2(np.full(shape, 1e200), np.ones(shape),
                                      np.full(shape, 0.5 + 0j))) - 1) <= 1e-12
    # one overflowing node among ordinary ones: the least value is the
    # overflowing node's, then an ordinary node's, once that is smaller
    g00 = np.full(shape, 3.0)
    g00.flat[5] = 1e300
    g11 = np.full(shape, 2.0)
    g11.flat[5] = 1e-3
    assert abs(herm_min_eig(Herm2(g00, g11, np.zeros(shape, dtype=complex))) - 1e-3) <= 1e-18
    g11.flat[5] = 2.5
    assert herm_min_eig(Herm2(g00, g11, np.zeros(shape, dtype=complex))) == 2.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.sampled_from([8, 12]))
def test_n2_det_and_min_eig_keep_their_bits(seed, N):
    """herm_det and herm_min_eig at n = 2, computed in place, equal the plain
    formulas bit for bit on random Hermitian fields (whose diagonals, as a
    Herm2 holds them, are real)."""
    rng = np.random.RandomState(seed)
    grid = FiberGrid(2, N)
    g = np.empty((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = rng.uniform(0.1, 3) + rng.standard_normal(grid.shape)
    g[1, 1] = rng.uniform(0.1, 3) + rng.standard_normal(grid.shape)
    g[0, 1] = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    g[1, 0] = np.conj(g[0, 1])
    assert np.array_equal(herm_det(as_metric(g)), g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    # the real determinant is the real part of the complex one, bit for bit
    assert herm_det(as_metric(g), real=True).tobytes() == \
        herm_det(as_metric(g)).real.copy().tobytes()
    half_tr = (g[0, 0].real + g[1, 1].real) / 2.0
    rad = np.sqrt(((g[0, 0].real - g[1, 1].real) / 2.0) ** 2 + np.abs(g[0, 1]) ** 2)
    assert herm_min_eig(as_metric(g)) == float(np.min(half_tr - rad))


def _stack_hessian_weights(g):
    """The n = 2 Hessian weights from a complex (2, 2, *grid) stack."""
    h00, h11, h01 = g[0, 0].real, g[1, 1].real, g[0, 1]
    abs2 = h01.real ** 2
    abs2 += h01.imag ** 2
    det = h00 * h11
    det -= abs2
    w_re = -2.0 * h01.real
    w_re /= det
    w_im = -2.0 * h01.imag
    w_im /= det
    return {(0, 0): (h11 / det, None), (1, 1): (h00 / det, None), (0, 1): (w_re, w_im)}


def _stack_ddc(f, chart):
    """dd^c of a real f at n = 2 as a complex stack, each lower entry the
    conjugate of the upper one."""
    out = np.empty((2, 2) + f.shape, dtype=complex)
    for a, b, re, im in ddc_real_fields(rfft(f), chart):
        if im is None:
            out[a, a] = re
        else:
            out[a, b].real = re
            out[a, b].imag = im
            np.conjugate(out[a, b], out=out[b, a])
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.sampled_from([8, 12, 16]))
def test_packed_n2_metric_keeps_the_complex_stack_bits(seed, N):
    """On random n = 2 metrics, a Herm2 gives the bits of the complex (2, 2)
    stack: herm_det, herm_min_eig, herm_inverse, the Hessian weights with
    their order, Delta_g, the mean matrix and dd^c of a real f."""
    rng = np.random.RandomState(seed)
    chart, g_const = random_chart_and_metric(rng, 2, N)
    stack = _random_positive_metric(rng, chart, g_const)
    g = as_metric(stack)
    det = stack[0, 0] * stack[1, 1]
    det -= stack[0, 1] * stack[1, 0]
    assert np.array_equal(herm_det(g), det)
    half_tr = (stack[0, 0].real + stack[1, 1].real) / 2.0
    rad = np.sqrt(((stack[0, 0].real - stack[1, 1].real) / 2.0) ** 2
                  + np.abs(stack[0, 1]) ** 2)
    assert herm_min_eig(g) == float(np.min(half_tr - rad))
    inv = herm_inverse(g)
    det = stack[0, 0] * stack[1, 1] - stack[0, 1] * stack[1, 0]
    for (a, b), entry in {(0, 0): stack[1, 1], (1, 1): stack[0, 0],
                          (0, 1): -stack[0, 1], (1, 0): -stack[1, 0]}.items():
        assert np.array_equal(inv[a, b], entry / det)
    weights = {key: (w_re, w_im) for key, w_re, w_im in hessian_weights(g)}
    expected = _stack_hessian_weights(stack)
    assert list(weights) == list(expected)
    for key, (w_re, w_im) in expected.items():
        assert np.array_equal(weights[key][0], w_re)
        assert (weights[key][1] is None) == (w_im is None)
        if w_im is not None:
            assert np.array_equal(weights[key][1], w_im)
    full = np.asarray(g)
    assert np.array_equal(herm_mean(g), [[np.mean(full[a, b]) for b in range(2)]
                                         for a in range(2)])
    f = random_trig_field(rng, chart.grid, kmax=3).real
    lap = np.zeros(chart.grid.shape)
    ddc = _stack_ddc(f, chart)
    for a, b, re, im in ddc_real_fields(rfft(f), chart):
        w_re, w_im = expected[a, b]
        lap += re * w_re
        if im is not None:
            lap += im * w_im
    assert np.array_equal(laplace_beltrami(g, f, chart), lap)
    packed = ddc_fiber(f, chart)
    assert isinstance(packed, Herm2)
    for a in range(2):
        for b in range(2):
            assert np.array_equal(packed[a, b], ddc[a, b])
    assert np.array_equal(packed.g00, ddc[0, 0].real) and not np.any(ddc[0, 0].imag)


def _packed_ddc_fiber(f, chart):
    """dd^c of a real f packed as ddc_fiber once did: each part of
    ddc_real_fields a new field, then copied into the matrix."""
    parts = {}
    for a, b, re, im in ddc_real_fields(rfft(f), chart):
        if im is None:
            parts[a, b] = re
        else:
            parts[a, b] = np.empty(f.shape, dtype=complex)
            parts[a, b].real = re
            parts[a, b].imag = im
    if chart.n == 2:
        return [parts[0, 0], parts[1, 1], parts[0, 1]]
    out = np.empty((1, 1) + f.shape, dtype=complex)
    out[0, 0] = parts[0, 0]
    return [out]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (2, 8), (2, 12)]))
def test_ddc_fiber_writes_its_parts_in_place_with_the_packed_bits(seed, case):
    """ddc_fiber of a real f transforms each part straight into the matrix it
    returns, with the bits (signed zeros included) of packing the parts of
    ddc_real_fields into it."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, _ = random_chart_and_metric(rng, n, N)
    f = random_trig_field(rng, chart.grid, kmax=N // 2).real
    h = ddc_fiber(f, chart)
    got = [h.g00, h.g11, h.g01] if n == 2 else [h]
    for mine, ref in zip(got, _packed_ddc_fiber(f, chart), strict=True):
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()
