import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyflab import geometry
from cyflab.geometry import (
    DefinitenessError,
    FiberChart,
    FiberGrid,
    GeometryError,
    d_z,
    fiber_derivative,
    fiber_integral,
)
from cyflab.masolver import BaseStencil
from cyflab.models import (
    FamilySpec,
    FiberMetric,
    FourierPoly,
    make_family,
)
from conftest import perturbation_chi


def test_fourier_poly_derivatives(grid64):
    chi = FourierPoly(1, {(1, 0, 2, 1): 0.5 + 0.25j, (-1, 0, 1, 2): 0.5 - 0.25j})
    assert chi.realness_residual() < 1e-15
    s = 0.3 + 0.7j
    x = grid64.coords[0]
    expected = (0.5 + 0.25j) * np.exp(2j * np.pi * x) * s ** 2 * np.conj(s)
    expected = expected + np.conj(expected)
    assert np.max(np.abs(chi.eval(grid64, s) - expected)) < 1e-13
    # d/ds lowers p with factor p
    ds = chi.ds().eval(grid64, s)
    expected_ds = 2 * (0.5 + 0.25j) * np.exp(2j * np.pi * x) * s * np.conj(s) \
        + (0.5 - 0.25j) * np.exp(-2j * np.pi * x) * np.conj(s) ** 2
    assert np.max(np.abs(ds - expected_ds)) < 1e-13


def test_fourier_poly_validation(grid64):
    with pytest.raises(GeometryError):
        FourierPoly(1, {(1, 0, -1, 0): 1.0})
    lopsided = FourierPoly(1, {(1, 0, 0, 0): 1.0})
    assert lopsided.realness_residual() > 0.5
    big = FourierPoly(1, {(40, 0, 0, 0): 0.5, (-40, 0, 0, 0): 0.5})
    with pytest.raises(GeometryError):
        big.eval(grid64, 1j)


def test_fourier_poly_max_frequency():
    """Each polynomial, derivatives included, carries the max |k_m| of its own terms."""
    c = 0.3 - 0.2j
    chi = FourierPoly(1, {(3, 0, 0, 0): 0.5, (-3, 0, 0, 0): 0.5,
                          (1, -2, 1, 0): c, (-1, 2, 0, 1): np.conj(c)})
    assert chi.max_frequency() == 3
    assert chi.ds().max_frequency() == 2
    assert chi.dsbar().max_frequency() == 2
    assert chi.ds().dsbar().max_frequency() == 0
    assert FourierPoly.zero(2).max_frequency() == 0


def test_family_spec_validation():
    with pytest.raises(GeometryError):
        FamilySpec(kind="banana")
    with pytest.raises(GeometryError):
        FamilySpec(kind="modulus_map", n=2)
    with pytest.raises(GeometryError):
        FamilySpec(kind="product", chi=FourierPoly(1, {(1, 0, 0, 0): 1.0}))
    with pytest.raises(DefinitenessError):
        make_family(FamilySpec(kind="universal_elliptic", base_samples=(1.0 - 1j,)))
    # a potential violent enough to destroy fiber positivity is rejected
    with pytest.raises(DefinitenessError):
        make_family(FamilySpec(kind="universal_elliptic",
                               chi=perturbation_chi(0.5), base_samples=(1j,)))


def test_family_validation_rejects_nan(monkeypatch):
    """A NaN Im tau(s) or a NaN node of the fiber metric fails validation with
    the messages of the nonpositive cases, instead of passing "<= 0"."""
    nan = float("nan")
    with pytest.raises(DefinitenessError, match="Im tau"):
        make_family(FamilySpec(kind="modulus_map", modulus_coeffs=(1j, nan), grid_n=16,
                               base_samples=(0.1 + 1j,)))
    fam = make_family(FamilySpec(kind="universal_elliptic", grid_n=16, base_samples=(1j,)))
    with pytest.raises(DefinitenessError, match="Im tau"):
        fam.ricci_flat_closed_form(complex(0.0, nan))
    fiber = fam.fiber_metric(1j)
    gab = fiber.gab.copy()
    gab[0, 0, 3, 5] = nan
    monkeypatch.setattr(fam, "fiber_metric", lambda s: FiberMetric(chart=fiber.chart, gab=gab))
    with pytest.raises(DefinitenessError, match="loses fiber definiteness"):
        fam.validate_at(1j)


def test_elliptic_oracle_values(elliptic_family):
    closed_form = elliptic_family.ricci_flat_closed_form
    assert closed_form(1j).c == 1.0
    assert abs(closed_form(0.5 + 2j).theta - 1.0 / 16.0) < 1e-15
    assert np.max(np.abs(closed_form(2j).h - 0.5)) < 1e-15
    with pytest.raises(DefinitenessError):
        closed_form(1.0)


def deck_residual(form, m):
    """Invariance of an n = 1 family form under the deck map z -> z + m tau(s).

    The pullback mixes components through dz -> dz + m tau' ds; built from the
    form's exact y-structure at y + m, the pulled-back matrix must equal the
    matrix at y (the periodic parts are the same at y and y + m).
    """
    ys, gzz = form.ystruct, form.gab[0, 0]
    taup = ys.taup
    y = form.chart.grid.coords[1] + m
    gsz = -taup * y * gzz + ys.msz
    gss = abs(taup) ** 2 * y ** 2 * gzz + y * ys.q1 + ys.q0
    t_sz = gsz + m * taup * gzz
    t_ss = gss + m * np.conj(taup) * gsz + m * taup * np.conj(gsz) \
        + m * m * abs(taup) ** 2 * gzz
    return max(float(np.max(np.abs(t_sz - form.gsb[0]))),
               float(np.max(np.abs(t_ss - form.gss))))


def test_oracle_deck_invariance(elliptic_family, perturbed_family):
    """Family.omega is deck invariant, with chi = 0 and with an s-dependent chi."""
    modulus = make_family(FamilySpec(kind="modulus_map", modulus_coeffs=(0.1, 1.0, 0.2),
                                     chi=perturbation_chi(), grid_n=32, base_samples=()))
    for family in (elliptic_family, perturbed_family, modulus):
        for s in (1j, 0.3 + 0.8j):
            form = family.omega(s)
            for m in (1, 2):
                assert deck_residual(form, m) < 1e-12


def test_model_matches_oracle_exactly(elliptic_family):
    """At chi = 0 the model form is its own Ricci-flat metric: g_zz = h,
    g_sz = -a h with the lift a = tau' y, and g_ss = c + |tau'|^2 y^2 h."""
    y = elliptic_family.grid.coords[1]
    for s in (1j, 0.3 + 0.8j, 2j):
        form = elliptic_family.omega(s)
        exact = elliptic_family.ricci_flat_closed_form(s)
        taup, h = elliptic_family.tau_prime(s), exact.h[0, 0]
        assert np.max(np.abs(form.gab - h)) < 1e-15
        assert np.max(np.abs(form.gsb - (-taup) * y * h)) < 1e-15
        assert np.max(np.abs(form.gss - (abs(taup) ** 2 * y ** 2 * h + exact.c))) < 1e-15


def test_closedness_residual(perturbed_family):
    """d(omega) = 0: dz(g_{s zbar}) equals D_s(g_{z zbar}) at fixed z."""
    fam = perturbed_family
    s = 0.2 + 1.0j
    form = fam.omega(s)
    tau, taup = fam.tau(s), fam.tau_prime(s)
    D = tau - np.conj(tau)
    gzz = form.gab[0, 0]
    y = fam.grid.coords[1]
    # exact D_s g_zz: the periodic combination from the family minus the
    # lift-transport term
    ds_gzz = fam.vrho_gzz(s, np.zeros(fam.grid.shape)) - taup * y * d_z(gzz, form.chart)
    lhs = -taup * (gzz / D) - taup * y * d_z(gzz, form.chart) \
        + d_z(form.ystruct.msz, form.chart)
    assert np.max(np.abs(lhs - ds_gzz)) < 1e-12


def test_s_independent_potential_on_elliptic_family():
    """chi = 0.05 cos 2 pi x does not depend on s, yet D_s of it at fixed z
    does (z drags with s); g_ss-bar must stay real and omega closed."""
    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0}, 0.05)
    s = 0.2 + 1.0j
    fam = make_family(FamilySpec(kind="universal_elliptic", chi=chi, grid_n=32,
                                 base_samples=(s,)))
    form = fam.omega(s)
    assert np.max(np.abs(form.gss.imag)) < 1e-12
    taup = fam.tau_prime(s)
    D = fam.tau(s) - np.conj(fam.tau(s))
    gzz = form.gab[0, 0]
    y = fam.grid.coords[1]
    ds_gzz = fam.vrho_gzz(s, np.zeros(fam.grid.shape)) - taup * y * d_z(gzz, form.chart)
    lhs = -taup * (gzz / D) - taup * y * d_z(gzz, form.chart) \
        + d_z(form.ystruct.msz, form.chart)
    assert np.max(np.abs(lhs - ds_gzz)) < 1e-12


def test_closedness_against_stencil(perturbed_family):
    """FD consistency across the stencil: the spec-level closedness check.

    vrho_gzz with a trivial periodic lift part is exactly the fixed-grid
    s-derivative of g_zz, so central differences must reproduce it to
    O(h^2).
    """
    fam = perturbed_family
    s, h = 0.2 + 1.0j, 1e-4
    gzz = {}
    for i, j in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        gzz[(i, j)] = fam.omega(s + h * (i + 1j * j)).gab[0, 0]
    d_re = (gzz[(1, 0)] - gzz[(-1, 0)]) / (2 * h)
    d_im = (gzz[(0, 1)] - gzz[(0, -1)]) / (2 * h)
    fd = (d_re - 1j * d_im) / 2
    exact = fam.vrho_gzz(s, np.zeros(fam.grid.shape))
    assert np.max(np.abs(fd - exact)) < 10 * h ** 2


def test_volume_constant_across_base(perturbed_family):
    """d/ds of the fiber volume vanishes for model-plus-potential forms."""
    fam = perturbed_family
    s, h = 0.2 + 1.0j, 1e-3
    vols = {}
    for i, j in ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)):
        sp = s + h * (i + 1j * j)
        form = fam.omega(sp)
        vols[(i, j)] = fiber_integral(np.ones(fam.grid.shape), form.chart,
                                      metric=form.gab)
    dv = max(abs(vols[(1, 0)] - vols[(-1, 0)]), abs(vols[(0, 1)] - vols[(0, -1)])) / (2 * h)
    assert dv < 10 * h ** 2
    assert abs(vols[(0, 0)] - 1.0) < 1e-13  # unit-volume model


def test_form_hermitian_and_positive(perturbed_family):
    form = perturbed_family.omega(0.2 + 1.0j)
    assert np.max(np.abs(form.gss.imag)) < 1e-13
    assert form.fiber_min_eig() > 0
    full = form.full_matrix()
    assert np.max(np.abs(full[0, 1] - np.conj(full[1, 0]))) < 1e-15


def test_n2_product_family():
    spec = FamilySpec(kind="product", n=2,
                      omega_matrix=np.array([[1j, 0.2], [0.2, 1.5j]]),
                      grid_n=12, base_samples=(0.1 + 0.2j,))
    fam = make_family(spec)
    form = fam.omega(0.1 + 0.2j)
    assert form.gab.shape[:2] == (2, 2)
    assert form.fiber_min_eig() > 0


def test_base_derivative_kills_fiber_coordinate():
    """D_s applied to z vanishes and applied to s gives 1 (fixed-z derivative).

    D_s = d/ds|grid - tau'(s) y d/dz; the grid samples of z at the stencil
    points combine with the exact chain-rule derivative dz(z) = 1.
    """
    from cyflab.geometry import linear_coeff_derivative
    from cyflab.masolver import BaseStencil

    spec = FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                      grid_n=16, base_samples=(0.2 + 1.1j,))
    fam = make_family(spec)
    stencil = BaseStencil(center=0.2 + 1.1j, h_s=1e-4)
    x, y = fam.grid.coords
    z_stack = {key: x + fam.tau(stencil.point(*key)) * y
               for key in stencil.offsets()}
    s_stack = {key: np.full(fam.grid.shape, stencil.point(*key))
               for key in stencil.offsets()}
    taup = fam.tau_prime(stencil.center)
    chart = fam.chart(stencil.center)
    dz_z = linear_coeff_derivative(chart, (1, fam.tau(stencil.center)), ("z", 0))
    ds_z = stencil.ds(z_stack) - taup * y * dz_z
    assert np.max(np.abs(ds_z)) < 1e-10
    ds_s = stencil.ds(s_stack)  # s has no fiber dependence
    assert np.max(np.abs(ds_s - 1.0)) < 1e-10


def test_wave_cache_bytes_and_threads():
    """Cached Fourier waves give the bytes of a fresh evaluation, under threads too."""
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=16,
                      base_samples=())
    points = [0.1 * j + (1.0 + 0.05 * j) * 1j for j in range(16)]
    grid = FiberGrid(1, 16)
    waves = {}
    for s in points:
        assert np.array_equal(spec.chi.eval(grid, s, waves), spec.chi.eval(grid, s))
    assert sorted(waves) == [(-1, 0), (1, 0)]

    serial = [make_family(spec).omega(s) for s in points]
    family = make_family(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            forms = list(pool.map(family.omega, points, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for ref, form in zip(serial, forms):
        for name in ("gab", "gsb", "gss"):
            assert np.array_equal(getattr(ref, name), getattr(form, name))


FIBER_DERIVS = {
    1: [(("z", 0),), (("zbar", 0),), (("z", 0), ("zbar", 0)), (("z", 0), ("z", 0)),
        (("z", 0), ("z", 0), ("zbar", 0))],
    2: [(("z", 0),), (("zbar", 1),), (("z", 0), ("zbar", 1)), (("z", 1), ("zbar", 1))],
}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), case=st.sampled_from([(1, 16), (1, 32), (2, 8)]))
def test_exact_derivatives_match_spectral(seed, case):
    """FourierPoly's term-by-term fiber derivatives equal the FFT route."""
    n, N = case
    rng = np.random.RandomState(seed)
    if n == 1:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.6))
        chart = FiberChart.make(FiberGrid(1, N), tau=tau)
    else:
        off = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        om = np.array([[complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4)), off],
                       [off, complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4))]])
        chart = FiberChart.make(FiberGrid(2, N), omega_matrix=om)
    # a random real chi: each term (k, p, q) with its conjugate (-k, q, p)
    kmax = N // 2 - 1
    terms = {}
    for _ in range(4):
        k = tuple(int(v) for v in rng.randint(-kmax, kmax + 1, size=2 * n))
        p, q = (int(v) for v in rng.randint(0, 3, size=2))
        c = complex(rng.standard_normal(), rng.standard_normal())
        for key, val in ((k + (p, q), c), (tuple(-v for v in k) + (q, p), np.conj(c))):
            terms[key] = terms.get(key, 0.0) + val
    chi = FourierPoly(n, terms)
    assert chi.realness_residual() < 1e-15
    s = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
    f = chi.eval(chart.grid, s)
    for derivs in FIBER_DERIVS[n]:
        spectral = f
        for index in derivs:
            spectral = fiber_derivative(spectral, chart, index)
        exact = chi.eval(chart.grid, s, chart=chart, derivs=derivs)
        # the FFT route's round-off grows with the derivative: the scale is
        # the larger of chi and its derivative
        scale = max(float(np.max(np.abs(f))), float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - spectral)) < 1e-13 * scale


def test_elliptic_omega_makes_no_transform(monkeypatch, perturbed_family):
    """At n = 1 every fiber derivative of chi in Family.omega is analytic."""
    def no_transform(*args, **kwargs):
        raise AssertionError("Family.omega called a Fourier transform")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(geometry, name, no_transform)
    for s in (1j, 0.2 + 1.0j):
        form = perturbed_family.omega(s)
        assert form.fiber_min_eig() > 0
        assert np.max(np.abs(perturbed_family.vrho_gzz(s, form.a_periodic()))) > 0
    with pytest.raises(AssertionError):
        d_z(np.zeros(perturbed_family.grid.shape), perturbed_family.chart(1j))
