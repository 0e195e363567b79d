import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyflab.geometry import FiberChart, FiberGrid, GeometryError, fourier_multiply
from cyflab.green import (
    NonConstantMetricError,
    build_green,
    ewald_kernel,
    ewald_kernel_min,
    k_bound,
    kernel_mean_residual,
    reproducing_residual,
)
from cyflab.models import FamilySpec, make_family
from conftest import perturbation_chi, random_chart_and_metric, random_trig_field

# frozen regression value: truncated-kernel K on the unit square torus
# (tau = i, h = 1, N = 64); the continuum value from the Ewald oracle is
# 0.2206356001526516
K_SQUARE_N64 = 0.220584556735199


@pytest.fixture(scope="module")
def square_green():
    grid = FiberGrid(1, 64)
    chart = FiberChart.make(grid, tau=1j)
    return build_green(np.array([[1.0 + 0j]]), chart)


def test_reproducing_property(square_green):
    rng = np.random.RandomState(21)
    f = random_trig_field(rng, square_green.chart.grid, kmax=4).real
    assert reproducing_residual(square_green, f) < 1e-9


def test_round_trip_identity(square_green):
    """Applying -Delta then the Green operator is the identity on zero-mean."""
    rng = np.random.RandomState(22)
    grid = square_green.chart.grid
    f = random_trig_field(rng, grid).real
    f -= f.mean()
    neg_lap = fourier_multiply(f, square_green.lam)
    back = square_green.apply(neg_lap)
    assert np.max(np.abs(back - f)) < 1e-11 * max(1.0, float(np.max(np.abs(f))))


def test_kernel_zero_mean_and_symmetry(square_green):
    assert kernel_mean_residual(square_green) < 1e-12
    kern = square_green.kernel(64)
    # G(xi) = G(-xi): the kernel is even
    flipped = np.roll(np.flip(np.flip(kern, 0), 1), (1, 1), (0, 1))
    assert np.max(np.abs(kern - flipped)) < 1e-13


def test_nonconstant_metric_rejected():
    grid = FiberGrid(1, 32)
    chart = FiberChart.make(grid, tau=1j)
    h = (1.0 + 0.1 * np.cos(2 * np.pi * grid.coords[0])).astype(complex)
    with pytest.raises(NonConstantMetricError):
        build_green(h[np.newaxis, np.newaxis], chart)
    with pytest.raises(GeometryError):
        build_green(-np.array([[1.0 + 0j]]), chart)


def test_k_bound_regression(square_green):
    kb = k_bound(square_green)
    assert abs(kb.K - K_SQUARE_N64) < 1e-9
    # the minimum sits at the far corner of the square torus
    assert max(abs(kb.argmin[0] - 0.5), abs(kb.argmin[1] - 0.5)) < 1e-6


def test_k_bound_matches_ewald(square_green):
    """Truncated K converges to the continuum (Ewald) value like O(N^-2)."""
    exact = -ewald_kernel_min(square_green)
    kb64 = k_bound(square_green)
    assert abs(kb64.K - exact) < 1e-4
    grid = FiberGrid(1, 128)
    chart = FiberChart.make(grid, tau=1j)
    kb128 = k_bound(build_green(np.array([[1.0 + 0j]]), chart))
    assert abs(kb128.K - exact) < abs(kb64.K - exact) / 2.5


def test_ewald_t_independence(square_green):
    # the tensor grid of these axes holds the points (0.5, 0.5) and (0.25, 0.4)
    axes = (np.array([0.5, 0.25]), np.array([0.5, 0.4]))
    vals = [ewald_kernel(square_green, axes, t=t) for t in (0.01, 0.02, 0.05)]
    for v in vals[1:]:
        assert np.max(np.abs(v - vals[0])) < 1e-10


def test_ewald_tensor_grid_matches_pointwise():
    """The tensor-grid Ewald sum equals the sum taken point by point."""
    from scipy.special import exp1

    grid = FiberGrid(1, 16)
    green = build_green(np.array([[1.3 + 0j]]), FiberChart.make(grid, tau=0.3 + 0.9j))
    axes = (np.array([0.1, 0.5, 0.77]), np.array([0.25, 0.6]))
    t, freq_cut, image_cut = 0.02, 12, 3
    on_grid = ewald_kernel(green, axes, t=t, freq_cut=freq_cut, image_cut=image_cut)
    C = green.chart.dz_coeffs[0]
    cross = (C[0] * np.conj(C[1])).real
    B = 4 * np.pi ** 2 / 1.3 * np.array([[abs(C[0]) ** 2, cross], [cross, abs(C[1]) ** 2]])
    Binv = np.linalg.inv(B)
    r = range(-freq_cut, freq_cut + 1)
    ks = [np.array(k) for k in ((a, b) for a in r for b in r) if k != (0, 0)]
    ms = [np.array((a, b)) for a in range(-image_cut, image_cut + 1)
          for b in range(-image_cut, image_cut + 1)]
    for i, x in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            xi = np.array([x, y])
            recip = sum((np.exp(2j * np.pi * (k @ xi)) * np.exp(-(k @ B @ k) * t)
                         / (k @ B @ k)).real for k in ks)
            real = np.pi / np.sqrt(np.linalg.det(B)) \
                * sum(exp1(np.pi ** 2 * ((xi + m) @ Binv @ (xi + m)) / t) for m in ms)
            direct = (recip + real - t) / green.volume
            assert abs(on_grid[i, j] - direct) < 1e-12 * max(1.0, abs(direct))


def test_scale_homogeneity():
    """K(c h) = c^(1-n) K(h): volume-normalized kernels are n=1 scale-invariant."""
    grid = FiberGrid(1, 32)
    chart = FiberChart.make(grid, tau=1j)
    h = np.array([[1.0 + 0j]])
    k1 = k_bound(build_green(h, chart)).K
    k2 = k_bound(build_green(2.0 * h, chart)).K
    assert abs(k2 - k1) < 1e-12

    grid2 = FiberGrid(2, 10)
    chart2 = FiberChart.make(grid2, omega_matrix=1j * np.eye(2))
    h2 = np.eye(2, dtype=complex)
    ka = k_bound(build_green(h2, chart2), resolution=10, refine_rounds=2).K
    kb = k_bound(build_green(2.0 * h2, chart2), resolution=10, refine_rounds=2).K
    assert abs(kb - ka / 2.0) < 1e-10


def test_k_varies_continuously_in_s():
    """K along the elliptic family: h = 1/Im s on torus of modulus s."""
    grid = FiberGrid(1, 64)
    ks = []
    for s in (1j, 1.5j, 2j):
        chart = FiberChart.make(grid, tau=s)
        green = build_green(np.array([[1.0 / s.imag + 0j]]), chart)
        ks.append(k_bound(green).K)
    assert ks[0] < ks[1] < ks[2]


def test_green_representation_of_curvature():
    """c(rho) = int c rho^n + G[ |dbar v|^2 - Theta ] pointwise.

    The kernel representation behind the combined-form lower bound,
    assembled from independently computed pieces (components for c, the
    spectral Green inverse for G, stencil differences for Theta).
    """
    from cyflab.familygeom import dbar_vertical, geodesic_curvature, theta_E
    from cyflab.masolver import BaseStencil, fiberwise_ricci_flat
    from cyflab.geometry import fiber_integral

    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=64,
                      base_samples=(0.2 + 1.0j,))
    fam = make_family(spec)
    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    rho = fiberwise_ricci_flat(fam, stencil)
    form = rho.form
    c = geodesic_curvature(form)
    fld = dbar_vertical(form)
    th = theta_E(fam, stencil)
    vol = fiber_integral(np.ones(form.chart.grid.shape), form.chart, metric=form.gab)
    mean_c = fiber_integral(c, form.chart, metric=form.gab) / vol
    green = build_green(form.gab, form.chart)
    rep = mean_c + green.apply((fld.norm2 - th).astype(complex)).real
    assert np.max(np.abs(rep - c)) < 1e-5


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 32), (2, 8)]))
def test_separable_kernel_matches_direct(seed, case):
    """The tensor-grid evaluation of the kernel equals kernel_at on its points."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, h = random_chart_and_metric(rng, n, N)
    green = build_green(h, chart)
    axes = [rng.uniform(0, 1, size=rng.randint(3, 6)) for _ in range(2 * n)]
    on_grid = green.kernel_on_tensor_grid(axes)
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    direct = green.kernel_at(pts).reshape(on_grid.shape)
    assert np.max(np.abs(on_grid - direct)) < 1e-13 * np.max(np.abs(direct))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 64), (2, 8)]))
def test_kernel_modes_match_matrix_product(seed, case):
    """The elementwise eigenvalues equal 4 pi^2 Re sum h^{ba} (k.C_a) conj(k.C_b)."""
    n, N = case
    rng = np.random.RandomState(seed)
    chart, h = random_chart_and_metric(rng, n, N)
    ks, lam = build_green(h, chart).kernel_modes()
    C = chart.dz_coeffs
    hup = np.linalg.inv(h)
    ref = sum((4 * np.pi ** 2) * (hup[b, a] * (ks @ C[a]) * np.conj(ks @ C[b])).real
              for a in range(n) for b in range(n))
    assert np.all(np.abs(lam - ref) <= 1e-14 * np.abs(ref))


def test_oracle_matrix_positive():
    """The unperturbed elliptic family matrix is positive at every node."""
    from cyflab.geometry import matrix_min_eig

    family = make_family(FamilySpec(kind="universal_elliptic", grid_n=32, base_samples=()))
    for s in (1j, 0.3 + 0.8j, 2j):
        assert matrix_min_eig(family.omega(s).full_matrix()) > 0


def test_theorem12_assemble():
    """The Green-kernel bound of the curvature report at two base points."""
    from cyflab.familygeom import curvature_report

    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=64,
                      base_samples=(0.1 + 0.9j,))
    fam = make_family(spec)
    for s in (0.1 + 0.9j, 0.3 + 1.1j):
        row = curvature_report(fam, s)
        assert row["pass"]
        assert row["combined_min_eig"] > 0
        assert row["pointwise_margin"] >= -1e-6
        assert row["K"] > 0
