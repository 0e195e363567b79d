"""Horizontal lifts, geodesic curvature, direct-image curvature and the
elliptic identities satisfied by fiberwise Ricci-flat metrics.

All operations act on FamilyForm component matrices at a single base
point.  Identities that involve base derivatives (the curvature of the
direct image bundle, the s-derivative cross-checks) consume an
AssembledRho, i.e. a stencil of Monge-Ampere solves.

Index conventions follow the package-wide rule: gsb[b] = g_{s beta-bar},
gab[a, b] = g_{alpha beta-bar}, inverse hup[b, a] = h^{beta-bar alpha}.

The optional arguments c, lift, field and vol of a function are
geodesic_curvature, horizontal_lift, dbar_vertical and fiber_volume of its
form, computed when not given; curvature_report computes each once per base
point and passes it on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DefinitenessError,
    Herm2,
    d_z,
    d_zbar,
    fiber_integral,
    fiber_integral_complex,
    herm_det,
    herm_inverse,
    herm_mean,
    herm_min_eig,
    laplace_beltrami,
    matrix_min_eig,
)
from .green import build_green, k_bound
from .masolver import (
    AssembledRho,
    BaseStencil,
    SolverConfig,
    assemble_form,
    fiberwise_ricci_flat,
    linearized_solve,
)
from .models import Family, FamilyForm

# slack of the direct-image and Green-kernel positivity checks
POSITIVITY_TOL = 1e-6


# -- pointwise tensor algebra ------------------------------------------------


def horizontal_lift(form: FamilyForm) -> np.ndarray:
    """a^alpha = -g_{s beta-bar} g^{beta-bar alpha}, shape (n, *grid).

    The lift of d/ds is v = d/ds + a^alpha d/dz^alpha; it is the unique
    lift orthogonal to the fiber tangent space.
    """
    if not form.fiber_min_eig() > 0:
        raise DefinitenessError("horizontal lift needs a fiber-positive form")
    gup = herm_inverse(form.gab)
    n = form.n
    a = np.zeros((n,) + form.chart.grid.shape, dtype=complex)
    for al in range(n):
        for b in range(n):
            a[al] -= form.gsb[b] * gup[b, al]
    return a


def geodesic_curvature(form: FamilyForm) -> np.ndarray:
    """c(tau) = tau_ss - tau_{s b} tau^{b a} tau_{a s}, a real field."""
    gup = herm_inverse(form.gab)
    n = form.n
    c = form.gss.astype(complex).copy()
    for a in range(n):
        for b in range(n):
            c = c - form.gsb[b] * gup[b, a] * np.conj(form.gsb[a])
    return c.real


def omega_lift_pairing(omega: FamilyForm, a: np.ndarray) -> np.ndarray:
    """omega(v, conj v) for the lift v = d/ds + a^alpha d/dz^alpha.

    The literal sesquilinear contraction; with a the omega-lift this is
    the geodesic curvature of omega itself.
    """
    n = omega.n
    out = omega.gss.astype(complex).copy()
    for al in range(n):
        out = out + a[al] * np.conj(omega.gsb[al])
        out = out + np.conj(a[al]) * omega.gsb[al]
        for b in range(n):
            out = out + a[al] * np.conj(a[b]) * omega.gab[al, b]
    return out


def semmes_residual(form: FamilyForm, c: np.ndarray | None = None) -> float:
    """sup | det(full) - c(tau) det(fiber) |: the wedge-power identity
    tau^{n+1} = c(tau) tau^n ^ i ds ^ ds-bar in component arithmetic."""
    full = form.full_matrix()
    det_full = _det2(full) if form.n == 1 else _det3(full)
    det_fib = herm_det(form.gab)
    c = geodesic_curvature(form) if c is None else c
    return float(np.max(np.abs(det_full - c * det_fib)))


def _det2(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1]
    det -= m[0, 1] * m[1, 0]
    return det


def _det3(m: np.ndarray) -> np.ndarray:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def contraction_residual(form: FamilyForm, c: np.ndarray | None = None,
                         lift: np.ndarray | None = None) -> float:
    """Residual of i_v tau = i c(tau) d s-bar for the horizontal lift v.

    Checks both that the dz-bar components of the contraction vanish and
    that the ds-bar component equals c(tau).
    """
    a = horizontal_lift(form) if lift is None else lift
    c = geodesic_curvature(form) if c is None else c
    n = form.n
    dev = float(np.max(np.abs(omega_lift_sbar_component(form, a) - c)))
    for be in range(n):
        comp = form.gsb[be].copy()
        for al in range(n):
            comp = comp + a[al] * form.gab[al, be]
        dev = max(dev, float(np.max(np.abs(comp))))
    return dev


def omega_lift_sbar_component(form: FamilyForm, a: np.ndarray) -> np.ndarray:
    """(i_v form) paired with d/ds-bar: form_ss + a^al form_{al s-bar}."""
    out = form.gss.astype(complex).copy()
    for al in range(form.n):
        out = out + a[al] * np.conj(form.gsb[al])
    return out


# -- dbar of the lift and its norms ------------------------------------------


@dataclass
class DbarVField:
    """A^alpha_{beta-bar} = dbar(a^alpha), the Kodaira-Spencer representative."""

    A: np.ndarray                  # shape (n, n, *grid): [alpha, beta-bar]
    norm2: np.ndarray              # pointwise |dbar v|^2_h, real field
    harmonic_mean: np.ndarray      # fiber average of A (constant matrices)


def dbar_vertical(form: FamilyForm) -> DbarVField:
    """dbar of the horizontal lift, with its pointwise h-norm squared.

    For family forms carrying the exact y-structure the lift is
    a = tau' y + (periodic), and dbar a = -tau'/(tau - tau-bar) plus the
    spectral derivative of the periodic part; generic forms are assumed
    periodic.
    """
    chart = form.chart
    n = form.n
    A = np.zeros((n, n) + chart.grid.shape, dtype=complex)
    if n == 1 and form.ystruct is not None:
        tau = chart.tau
        taup = form.ystruct.taup
        a_p = form.a_periodic()
        A[0, 0] = -taup / (tau - np.conj(tau)) + d_zbar(a_p, chart)
    else:
        a = horizontal_lift(form)
        for al in range(n):
            for be in range(n):
                A[al, be] = d_zbar(a[al], chart, be)
    hup = herm_inverse(form.gab)
    norm2 = np.zeros(chart.grid.shape, dtype=complex)
    for al in range(n):
        for be in range(n):
            for ga in range(n):
                for de in range(n):
                    norm2 += A[al, be] * np.conj(A[ga, de]) * form.gab[al, ga] * hup[de, be]
    det = herm_det(form.gab)
    mean = np.array([[np.mean(A[al, be] * det) / np.mean(det) for be in range(n)]
                     for al in range(n)])
    return DbarVField(A=A, norm2=norm2.real, harmonic_mean=mean)


def dbar_closedness_residual(field: DbarVField, form: FamilyForm) -> float:
    """Antisymmetrized z-bar derivatives of A (identically zero for n=1)."""
    n = form.n
    dev = 0.0
    for al in range(n):
        for b in range(n):
            for d in range(b + 1, n):
                anti = d_zbar(field.A[al, b], form.chart, d) \
                    - d_zbar(field.A[al, d], form.chart, b)
                dev = max(dev, float(np.max(np.abs(anti))))
    return dev


def dbar_star(field: DbarVField, form: FamilyForm) -> np.ndarray:
    """(dbar* A)^alpha = h^{beta-bar gamma} A^alpha_{beta-bar ; gamma}.

    Covariant derivative with respect to the fiber metric of the form;
    Christoffels vanish when the fiber metric is constant.
    """
    chart = form.chart
    n = form.n
    h = form.gab
    hup = herm_inverse(h)
    # Gamma^alpha_{gamma sigma} = h^{delta-bar alpha} d_gamma h_{sigma delta-bar}
    gam = np.zeros((n, n, n) + chart.grid.shape, dtype=complex)
    for al in range(n):
        for ga in range(n):
            for si in range(n):
                for de in range(n):
                    gam[al, ga, si] += hup[de, al] * d_z(h[si, de], chart, ga)
    out = np.zeros((n,) + chart.grid.shape, dtype=complex)
    for al in range(n):
        for be in range(n):
            for ga in range(n):
                cov = d_z(field.A[al, be], chart, ga)
                for si in range(n):
                    cov = cov + gam[al, ga, si] * field.A[si, be]
                out[al] += hup[be, ga] * cov
    return out


def dbar_star_residual(rho: FamilyForm, omega: FamilyForm, eps: float) -> float:
    """Residual of the adjoint identity for dbar of the rho-lift.

    dbar*(dbar v) = eps * (g_{s d} h^{d a} - h_{s t} h^{t c} g_{c d} h^{d a})
    on each fiber; at eps = 0 this asserts harmonicity of dbar v.  The
    second term is the full sandwich contraction (the only globally
    defined completion of the identity).
    """
    field = dbar_vertical(rho)
    lhs = dbar_star(field, rho)
    n = rho.n
    hup = herm_inverse(rho.gab)
    target = np.zeros_like(lhs)
    if eps != 0:
        for al in range(n):
            t1 = np.zeros(rho.chart.grid.shape, dtype=complex)
            t2 = np.zeros(rho.chart.grid.shape, dtype=complex)
            for d in range(n):
                t1 += omega.gsb[d] * hup[d, al]
                for t in range(n):
                    for c in range(n):
                        t2 += rho.gsb[t] * hup[t, c] * omega.gab[c, d] * hup[d, al]
            target[al] = eps * (t1 - t2)
    return float(np.max(np.abs(lhs - target)))


# -- section norms and the direct image curvature ----------------------------


def theta_E(family: Family, stencil: BaseStencil, richardson: bool = False) -> float:
    """Theta_ss(E) = -d^2/ds ds-bar log |u|^2_s by central differences.

    With richardson the O(h^2) estimates at h and h/2 are extrapolated to
    fourth order.
    """
    def fd(st):
        vals = {key: np.log(family.section_norm_sq(st.point(*key))) for key in st.cross()}
        return float(-np.real(st.dsdsbar(vals)))

    coarse = fd(stencil)
    if not richardson:
        return coarse
    fine = fd(BaseStencil(stencil.center, stencil.h_s / 2))
    return (4.0 * fine - coarse) / 3.0


def fiber_volume(rho: FamilyForm) -> float:
    """The volume int rho^n of the fiber."""
    return fiber_integral(np.ones(rho.chart.grid.shape), rho.chart, metric=rho.gab)


def wp_norm(rho: FamilyForm, field: DbarVField | None = None,
            vol: float | None = None) -> float:
    """|V|^2_WP = integral of |dbar v|^2 against the rho fiber volume, divided
    by the fiber volume: the unit-volume convention in which it equals the
    direct image curvature.
    """
    field = dbar_vertical(rho) if field is None else field
    total = fiber_integral(field.norm2, rho.chart, metric=rho.gab)
    total /= fiber_volume(rho) if vol is None else vol
    return float(total)


def kodaira_spencer_norm(rho: FamilyForm, field: DbarVField | None = None) -> float:
    """Norm of the harmonic representative acting on the canonical section.

    A is projected onto the fiber-constant (harmonic) matrices; the class
    action on u = dz^1 ^ ... ^ dz^n contracts one index, and the quotient
    |K(v) u|^2 / |u|^2 is returned. For a line-bundle direct image this
    equals Theta_ss(E).
    """
    field = dbar_vertical(rho) if field is None else field
    n = rho.n
    Abar = field.harmonic_mean
    hbar = herm_mean(rho.gab)
    hup = np.linalg.inv(hbar)
    # |A|^2 with constant coefficients: A^a_b conj(A^c_d) h_ac hup[d,b]
    val = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    val += Abar[a, b] * np.conj(Abar[c, d]) * hbar[a, c] * hup[d, b]
    return float(val.real)


def direct_image_report(rho: AssembledRho, tol: float = POSITIVITY_TOL,
                        c: np.ndarray | None = None,
                        lift: np.ndarray | None = None) -> dict:
    """Direct image of rho^{n+1} and its lower bound at one base point.

    direct_image = int c(rho) rho^n; lower_bound = int omega(v, conj v) rho^n
    for the rho-horizontal lift v.  The report asserts positivity of the
    lower bound and direct_image >= lower_bound - tol.
    """
    form, omega = rho.form, rho.omega
    chart = form.chart
    c = geodesic_curvature(form) if c is None else c
    a = horizontal_lift(form) if lift is None else lift
    pairing = omega_lift_pairing(omega, a).real
    di = fiber_integral(c, chart, metric=form.gab)
    lb = fiber_integral(pairing, chart, metric=form.gab)
    return {
        "direct_image": di,
        "lower_bound": lb,
        "positive": bool(lb > 0 and di >= lb - tol),
    }


# -- the elliptic PDE of the geodesic curvature -------------------------------


def pde_residual(rho: AssembledRho, theta: float | None = None,
                 c: np.ndarray | None = None, field: DbarVField | None = None,
                 lift: np.ndarray | None = None) -> np.ndarray:
    """Residual field of the geodesic-curvature PDE on the center fiber.

    eps = 0:  -Delta_rho c(rho) - |dbar v|^2 + Theta_ss(E);
    eps > 0:  -Delta_rho c + eps c - eps omega(v, conj v) - |dbar v|^2 + Theta_ss(E),
    with omega(v, conj v) the literal pairing against the rho-lift.
    """
    form = rho.form
    chart = form.chart
    if theta is None:
        theta = theta_E(rho.family, rho.stencil)
    c = geodesic_curvature(form) if c is None else c
    lap = laplace_beltrami(form.gab, c, chart).real
    field = dbar_vertical(form) if field is None else field
    res = -lap - field.norm2 + theta
    if rho.eps > 0:
        a = horizontal_lift(form) if lift is None else lift
        pairing = omega_lift_pairing(rho.omega, a).real
        res = res + rho.eps * (c - pairing)
    return res


# -- the evaluation of one base point -------------------------------------------


def curvature_report(family: Family, s: complex, h_s: float = 1e-3,
                     config: SolverConfig | None = None, richardson: bool = False,
                     rho: AssembledRho | None = None) -> dict:
    """Solve, assemble and evaluate every fiber identity at one base point.

    rho is the fiberwise Ricci-flat form at s, solved when not given.  Besides
    the identity residuals the report holds both positivity results: the direct
    image int c(rho) rho^n with its lower bound ("positive"), and, for the
    Green-kernel bound K of the fiber, the pointwise margin
    min(c + K wp - mean c) and the least eigenvalue of rho + K omega^WP
    ("pass": margin >= -POSITIVITY_TOL and a positive eigenvalue).
    """
    s = complex(s)
    stencil = BaseStencil(center=s, h_s=h_s)
    if rho is None:
        rho = fiberwise_ricci_flat(family, stencil, config=config)
    form = rho.form
    c = geodesic_curvature(form)
    lift = horizontal_lift(form)
    field = dbar_vertical(form)
    vol = fiber_volume(form)
    th = theta_E(family, stencil, richardson=richardson)
    res = pde_residual(rho, theta=th, c=c, field=field, lift=lift)
    di = direct_image_report(rho, c=c, lift=lift)
    wp = wp_norm(form, field=field, vol=vol)
    K = k_bound(build_green(form.gab, form.chart)).K
    mean_c = di["direct_image"] / vol
    margin = float(np.min(c + K * wp - mean_c))
    min_eig = combined_form_min_eig(form, K * wp)
    return {
        "s": s, "s_re": s.real, "s_im": s.imag,
        "direct_image": di["direct_image"], "lower_bound": di["lower_bound"],
        "positive": di["positive"],
        "theta_E": th, "wp": wp, "ks_norm": kodaira_spencer_norm(form, field=field),
        "c_min": float(np.min(c)), "c_max": float(np.max(c)),
        "pde_residual_sup": float(np.max(np.abs(res))),
        "semmes": semmes_residual(form, c=c),
        "contraction": contraction_residual(form, c=c, lift=lift),
        # sup |det h - mean det h| / mean det h on the center fiber
        "ricci_constancy": rho.solutions[(0, 0)].diagnostics["det_h_constancy"],
        "K": K, "mean_c": mean_c, "pointwise_margin": margin,
        "combined_min_eig": min_eig,
        "pass": bool(margin >= -POSITIVITY_TOL and min_eig > 0),
    }


def relative_canonical_curvature(rho: AssembledRho) -> float:
    """(s, s-bar)-curvature of the det(h)^-1 metric on the relative canonical
    bundle, from the solved fiber determinants across the stencil.

    For the fiberwise Ricci-flat form this equals Theta_ss(E): the identity
    behind the geodesic-curvature PDE.
    """
    vals = {key: np.log(np.mean(herm_det(rho.solutions[key].h).real))
            for key in rho.stencil.cross()}
    return float(np.real(rho.stencil.dsdsbar(vals)))


# -- s-derivative cross checks (the v phi machinery) --------------------------


def _vphi_rhs(family: Family, rho_eps: AssembledRho, a_p: np.ndarray,
              key=(0, 0)) -> np.ndarray:
    """Exact right-hand side of the linearized equation for v_rho(phi_eps).

    R = -v eta - g^{ba} v(g_ab) + h^{ba} (v(g_ab) + [v, phi]_ab) with all
    base derivatives of the model form taken analytically; only phi enters
    through its fiber derivatives.
    """
    s = rho_eps.stencil.point(*key)
    sol = rho_eps.solutions[key]
    chart = sol.problem.chart
    gzz = sol.problem.gab[0, 0]
    phi, hzz = sol.phi, sol.h[0, 0]
    tau = family.tau(s)
    taup = family.tau_prime(s)
    D = tau - np.conj(tau)

    vg = family.vrho_gzz(s, a_p)
    # v eta = -v(g_zz)/g_zz + c'(s) for eta = -log det g + c(s)
    veta = -vg / gzz + family.ds_log_mean_det(s)

    phi_z = d_z(phi, chart)
    phi_zz = d_z(phi_z, chart)
    phi_zzb = d_zbar(phi_z, chart)
    a_z = taup / D + d_z(a_p, chart)
    a_zb = -taup / D + d_zbar(a_p, chart)
    a_zzb = d_zbar(d_z(a_p, chart), chart)
    bracket = -a_zzb * phi_z - a_z * phi_zzb - a_zb * phi_zz

    return -veta - vg / gzz + (vg + bracket) / hzz


def vphi_cross_check(family: Family, s: complex, eps: float = 0.0,
                     h_s: float = 1e-3, config: SolverConfig | None = None,
                     rho0: AssembledRho | None = None) -> dict:
    """v_rho(phi_eps) two ways: stencil differences vs the linearized PDE.

    Route (a) differentiates the solved potentials across the base stencil
    at fixed z; route (b) solves -Delta_{rho_eps} u + eps u = R with the
    exactly assembled right-hand side.  Also evaluates the vanishing
    integral int (v phi_eps) rho_eps^n (exact at quadrature level).  rho0
    is the eps = 0 form on the stencil of s and h_s, solved when not given;
    a caller that checks several eps at one point can solve it once.
    """
    config = config or SolverConfig()
    stencil = BaseStencil(center=complex(s), h_s=h_s)
    if rho0 is None:
        rho0 = fiberwise_ricci_flat(family, stencil, eps=0.0, config=config)
    a_p = rho0.form.a_periodic()
    rho_e = rho0 if eps == 0 else fiberwise_ricci_flat(family, stencil, eps=eps, config=config)

    phis = rho_e.phi_stack()
    chart = rho0.form.chart
    route_a = stencil.ds(phis) + a_p * d_z(phis[(0, 0)], chart)

    R = _vphi_rhs(family, rho_e, a_p)
    h_fiber = rho_e.form.gab
    diagnostics = {"linear_fallbacks": _stencil_fallbacks(rho_e)}
    route_b = linearized_solve(h_fiber, chart, eps, R, config, diagnostics=diagnostics)
    if eps == 0:
        det = herm_det(h_fiber)
        route_a = route_a - np.mean(route_a * det) / np.mean(det)

    vol_integral = fiber_integral_complex(route_b, chart, metric=h_fiber)
    return {
        "sup_difference": float(np.max(np.abs(route_a - route_b))),
        "vphi_integral": abs(vol_integral),
        "vphi_fd": route_a,
        "vphi_pde": route_b,
        "rhs_integral": abs(fiber_integral_complex(R, chart, metric=h_fiber)),
        # Krylov fallbacks of the eps stencil solves and of route (b) (see solve_ma)
        "linear_fallbacks": diagnostics["linear_fallbacks"],
    }


def _stencil_fallbacks(rho: AssembledRho) -> int:
    return sum(sol.diagnostics["linear_fallbacks"] for sol in rho.solutions.values())


def vbarvphi_cross_check(family: Family, s: complex, eps: float = 0.0,
                         h_s: float = 1e-3,
                         config: SolverConfig | None = None) -> dict:
    """Second-order cross check for conj(v) v phi_eps on a 5x5 stencil.

    Route (a) nests the fixed-z stencil derivative; route (b) solves the
    once-more-differentiated linearized equation

        -Delta_{rho_eps}(vbar u) + eps (vbar u)
            = vbar(h^{ba}) u_ab + h^{ba} [vbar, u]_ab + vbar(R_eps),

    u = v_rho(phi_eps), with the right-hand side assembled from stencil
    derivatives of the first-order data.  Because v and u are global, the
    conjugate lift acts on any periodic field w as
    vbar(w) = FD_sbar(w) + conj(a_p) dzbar(w).
    """
    config = config or SolverConfig()
    stencil = BaseStencil(center=complex(s), h_s=h_s, half=2)
    rho0 = fiberwise_ricci_flat(family, stencil, eps=0.0, config=config)
    rho_e = rho0 if eps == 0 else fiberwise_ricci_flat(family, stencil, eps=eps, config=config)
    chart0 = rho0.form.chart
    tau, taup = family.tau(s), family.tau_prime(s)
    D = tau - np.conj(tau)
    phis = rho_e.phi_stack()
    inner = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    # periodic lift part of rho (eps = 0), assembled at each inner stencil point
    a_ps = {key: assemble_form(family.omega(stencil.point(*key)), stencil, rho0.solutions,
                               at=key).a_periodic()
            for key in inner}
    vphi = {}
    for key in inner:
        chart_k = rho_e.solutions[key].problem.chart
        vphi[key] = stencil.ds(phis, at=key) + a_ps[key] * d_z(phis[key], chart_k)

    ab_p = np.conj(a_ps[(0, 0)])

    def vbar(stack):
        return stencil.dsbar(stack) + ab_p * d_zbar(stack[(0, 0)], chart0)

    route_a = vbar(vphi)

    h_fiber = rho_e.form.gab
    hup_stack = {key: 1.0 / rho_e.solutions[key].h[0, 0] for key in inner}
    hup = hup_stack[(0, 0)]
    R_stack = {key: _vphi_rhs(family, rho_e, a_ps[key], key=key) for key in inner}

    # conj-lift coefficients: abar = conj(tau') y + conj(a_p)
    ab_z = np.conj(taup) / D + d_z(ab_p, chart0)
    ab_zb = -np.conj(taup) / D + d_zbar(ab_p, chart0)
    ab_zzb = d_zbar(d_z(ab_p, chart0), chart0)
    u0 = vphi[(0, 0)]
    u0_zb = d_zbar(u0, chart0)
    u0_zzb = d_z(u0_zb, chart0)
    u0_zbzb = d_zbar(u0_zb, chart0)
    bracket = -ab_zzb * u0_zb - ab_z * u0_zbzb - ab_zb * u0_zzb

    rhs = vbar(hup_stack) * u0_zzb + hup * bracket + vbar(R_stack)
    diagnostics = {"linear_fallbacks": _stencil_fallbacks(rho_e)}
    route_b = linearized_solve(h_fiber, chart0, eps, rhs, config,
                               solvability_tol=1e-4, diagnostics=diagnostics)
    if eps == 0:
        det = herm_det(h_fiber)
        route_a = route_a - np.mean(route_a * det) / np.mean(det)
    integral = fiber_integral_complex(route_a, chart0, metric=h_fiber)
    # differentiating the volume normalization twice gives, exactly,
    # int(vbar v phi_eps) rho_eps^n = -eps int |v phi_eps|^2 rho_eps^n
    lemma_res = abs(integral + eps * fiber_integral_complex(
        np.abs(vphi[(0, 0)]) ** 2, chart0, metric=h_fiber))
    return {
        "sup_difference": float(np.max(np.abs(route_a - route_b))),
        "vbarvphi_integral": abs(integral),
        "lemma_residual": lemma_res,
        "vbarvphi_fd": route_a,
        "vbarvphi_pde": route_b,
        # Krylov fallbacks of the eps stencil solves and of route (b)
        "linear_fallbacks": diagnostics["linear_fallbacks"],
    }


# -- the combined form of Theorem 1.2 --------------------------------------------


def combined_form_min_eig(rho: FamilyForm, bound: float) -> float:
    """Min eigenvalue of rho + bound * (i ds ^ ds-bar) over the grid.

    At n = 1 the matrix is the 2 x 2 Hermitian block
    [[g_ss + bound, g_sz], [conj g_sz, g_zz]], whose smallest eigenvalue
    herm_min_eig takes in closed form from its independent parts.
    """
    if rho.n == 1:
        return herm_min_eig(Herm2((rho.gss + bound).real, rho.gab[0, 0].real, rho.gsb[0]))
    full = rho.full_matrix()
    full[0, 0] = full[0, 0] + bound
    return matrix_min_eig(full)
