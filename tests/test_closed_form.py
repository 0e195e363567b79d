"""The solver and the curvature report against Family.ricci_flat_closed_form.

At eps = 0 every torus family has a closed-form answer (the Ricci-flat fiber
metric is constant), so random real potentials chi can be checked exactly:
the Monge-Ampere solution to solver precision, and the base-stencil
quantities of the curvature report to their O(h_s^2) truncation.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from cyflab.cli import sample_rows
from cyflab.config import parse_config
from cyflab.familygeom import curvature_report
from cyflab.geometry import DefinitenessError, ddc_fiber
from cyflab.masolver import (
    BaseStencil,
    MAProblem,
    eta_from_metric,
    fiberwise_ricci_flat,
    solve_ma,
)
from cyflab.models import FamilySpec, FourierPoly, make_family

# coefficient scale of a chi term, divided by 1 + |k|^2 so that most draws
# keep the fiber metric positive
AMPLITUDE = 1e-2
H_S = 1e-3


def random_real_chi(rng, n):
    """Three terms (k, p, q), |k_m| <= 3, p, q <= 2, each with its conjugate
    (-k, q, p); the first has k = 0, so the fiber mean <chi> varies with s."""
    terms = {}
    for j in range(3):
        k = (0,) * (2 * n) if j == 0 else tuple(int(v) for v in rng.randint(-3, 4, size=2 * n))
        p, q = (int(v) for v in rng.randint(0, 3, size=2))
        c = AMPLITUDE * complex(rng.standard_normal(), rng.standard_normal()) \
            / (1 + sum(v * v for v in k))
        for key, val in ((k + (p, q), c), (tuple(-v for v in k) + (q, p), np.conj(c))):
            terms[key] = terms.get(key, 0.0) + val
    return FourierPoly(n, terms)


def random_family(rng, kind, n, N):
    """A family of the kind with a random chi and a base point s, validated on
    the base stencil of s; a draw that loses fiber positivity there is rejected."""
    s = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.3))
    stencil = BaseStencil(center=s, h_s=H_S)
    spec = dict(kind=kind, n=n, chi=random_real_chi(rng, n), grid_n=N,
                base_coeff=rng.uniform(0.5, 2.0),
                base_samples=tuple(stencil.point(*key) for key in stencil.offsets()))
    if kind == "product" and n == 1:
        spec["tau0"] = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.5))
    elif kind == "product":
        off = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        spec["omega_matrix"] = np.array(
            [[complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4)), off],
             [off, complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4))]])
    elif kind == "modulus_map":
        spec["modulus_coeffs"] = (complex(rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.2)),
                                  complex(rng.uniform(0.8, 1.2), rng.uniform(-0.1, 0.1)),
                                  complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)))
    try:
        family = make_family(FamilySpec(**spec))
    except DefinitenessError:
        assume(False)
    return family, s


N1_KINDS = ("product", "universal_elliptic", "modulus_map")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       case=st.sampled_from([(kind, 1, N) for kind in N1_KINDS for N in (16, 32)]
                            + [("product", 2, 12)]))
def test_solve_ma_matches_closed_form(seed, case):
    """The eps = 0 solve lands on phi = -(chi - <chi>) and the constant h = <g>."""
    family, s = random_family(np.random.RandomState(seed), *case)
    exact = family.ricci_flat_closed_form(s)
    form = family.omega(s)
    eta = eta_from_metric(form.gab, form.chart)
    sol = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.0))
    assert np.max(np.abs(sol.phi - exact.phi)) < 1e-12
    h = form.gab + ddc_fiber(sol.phi, form.chart)
    assert np.max(np.abs(h - exact.h.reshape(exact.h.shape + (1,) * (2 * family.n)))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       case=st.sampled_from([(kind, 1, N) for kind in N1_KINDS for N in (16, 32)]))
def test_curvature_report_matches_closed_form(seed, case):
    """The assembled rho componentwise, and every report quantity with a
    closed form, at h_s = 1e-3.

    rho's fiber block is the constant h to solver precision and its
    y-structure is (msz, q1, q0) = (0, 0, c) up to the rounding and the
    O(h_s^2) truncation of the stencil differences.  wp and the
    Kodaira-Spencer norm are fiber integrals and meet Theta to solver
    precision; c and the direct image carry the stencil's errors, and theta_E
    the truncation of its difference quotient (the elliptic suite's bound).
    """
    family, s = random_family(np.random.RandomState(seed), *case)
    exact = family.ricci_flat_closed_form(s)
    rho = fiberwise_ricci_flat(family, BaseStencil(center=s, h_s=H_S))
    ys, c = rho.form.ystruct, abs(exact.c)
    assert np.max(np.abs(rho.form.gab - exact.h[0, 0])) < 1.5e-13
    assert np.max(np.abs(ys.msz)) < 2.5e-6 * c
    assert np.max(np.abs(ys.q1)) < 1.5e-6 * c
    assert np.max(np.abs(ys.q0 - exact.c)) < 2e-7 * c
    rep = curvature_report(family, s, h_s=H_S, rho=rho)
    assert abs(rep["wp"] - exact.theta) < 1e-11
    assert abs(rep["ks_norm"] - exact.theta) < 1e-11
    assert abs(rep["direct_image"] - exact.c) < 5e-8 * abs(exact.c)
    for key in ("c_min", "c_max"):
        assert abs(rep[key] - exact.c) < 1e-6 * abs(exact.c)
    assert abs(rep["theta_E"] - exact.theta) < 1e-5


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       case=st.sampled_from([(kind, 1, 16) for kind in N1_KINDS] + [("product", 2, 12)]))
def test_fiber_metric_is_the_model_fiber_block(seed, case):
    """Family.fiber_metric and Family.omega share one arithmetic for g_{a b-bar}."""
    family, s = random_family(np.random.RandomState(seed), *case)
    fiber, form = family.fiber_metric(s), family.omega(s)
    assert np.array_equal(fiber.gab, form.gab)
    assert np.array_equal(fiber.chart.omega_matrix, form.chart.omega_matrix)


def test_direct_image_matches_closed_form_on_the_readme_family():
    """On every sample of the README config, the run-family direct image is
    the closed-form c within 1e-12 relative: the Ricci-flat solve's KE shift
    is the plain fiber mean of phi, so the stencil's 1/h_s^2 meets no
    rounding of a density field."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = parse_config(json.loads(readme.split("```json\n")[1].split("```")[0]))
    rows, failure = sample_rows(cfg, ("s_re", "s_im", "direct_image"))
    assert failure is None and len(rows) == len(cfg["samples"]) == 25
    family = make_family(cfg["spec"])
    worst = max(abs(row["direct_image"] / family.ricci_flat_closed_form(
        complex(row["s_re"], row["s_im"])).c - 1) for row in rows)
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"
