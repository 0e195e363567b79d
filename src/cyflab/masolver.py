"""Fiberwise complex Monge-Ampere solves and the family assembly pipeline.

The fiber equation in coordinates is

    log det(g_ab + phi_ab) - log det(g_ab) = eps * phi + eta + extra_f,

solved by damped Newton iteration; each linear step inverts
Delta_h - eps (h the current fiber metric) by preconditioned GMRES with
the constant-coefficient spectral inverse as preconditioner, except on
elliptic fibers (n = 1) at eps = 0, where det(h) Delta_h is the flat
d d-bar and the step is one exact spectral division.  For eps = 0
the constant kernel is removed by projecting the right-hand side and
pinning the grid mean, and the requested normalization is enforced by a
final additive shift (solutions are unique up to constants); for eps > 0
the solution is intrinsically unique and no shift is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .geometry import (
    DefinitenessError,
    FiberChart,
    GeometryError,
    NormalizationError,
    d_z,
    d_zbar,
    ddc_fiber,
    fiber_integral,
    flat_symbol,
    fourier_multiply,
    herm_det,
    herm_inverse,
    herm_min_eig,
    laplace_beltrami,
)
from .models import Family, FamilyForm, YStructure

KE_VOLUME = "ke_volume"
REFERENCE_VOLUME = "reference_volume"
NO_NORMALIZATION = "none"


class SolverDivergence(RuntimeError):
    """Newton failed to reach the tolerance (last residual attached).

    Aborted continuation paths attach their completed solves as `partial`.
    """

    def __init__(self, message, residual=None, partial=None):
        super().__init__(message)
        self.residual = residual
        self.partial = partial


@dataclass
class SolverConfig:
    tol: float = 1e-11
    max_iters: int = 50
    damping_floor: float = 2.0 ** -20
    linear_rtol: float = 1e-11
    linear_maxiter: int = 300

    def __post_init__(self):
        if self.tol <= 0:
            raise GeometryError("solver tolerance must be positive")


@dataclass
class MAProblem:
    chart: FiberChart
    gab: np.ndarray
    eta: np.ndarray
    epsilon: float
    extra_f: np.ndarray | None = None

    def __post_init__(self):
        if self.extra_f is None:
            self.extra_f = np.zeros(self.chart.grid.shape)
        if self.epsilon < 0:
            raise GeometryError("epsilon must be nonnegative")
        if herm_min_eig(self.gab) <= 0:
            raise DefinitenessError("MA problem needs a fiber-positive reference form")

    def compatibility_residual(self) -> float:
        """|int e^(eta+f) omega^n - int omega^n| / int omega^n (eps = 0 solvability)."""
        chart = self.chart
        vol = fiber_integral(np.ones(chart.grid.shape), chart, metric=self.gab)
        lhs = fiber_integral(np.exp(self.eta.real + self.extra_f.real), chart, metric=self.gab)
        return abs(lhs - vol) / abs(vol)

    def validate(self):
        if self.epsilon == 0 and self.compatibility_residual() > 1e-10:
            raise NormalizationError(
                "eps = 0 problem violates the solvability normalization "
                f"(residual {self.compatibility_residual():.3e})")


@dataclass
class MASolution:
    phi: np.ndarray
    residual_sup: float
    newton_iters: int
    normalization: str
    diagnostics: dict = dc_field(default_factory=dict)


def compute_eta(family: Family, s: complex) -> np.ndarray:
    """The unique eta with dd^c eta = -dd^c log det(g_ab) and e^eta-volume match."""
    form = family.omega(s)
    return eta_from_metric(form.gab, form.chart)


def eta_from_metric(gab: np.ndarray, chart: FiberChart) -> np.ndarray:
    if herm_min_eig(gab) <= 0:
        raise DefinitenessError("eta needs a positive-definite fiber metric")
    det = herm_det(gab).real
    # int e^eta det(g) = int det(g) forces the additive constant
    c = np.log(np.mean(det))
    return -np.log(det) + c


def _hessian_weights(h) -> list:
    """Real weights of u -> Re sum_ab h^{b a} u_{a b-bar} for real u.

    Returns (a, b, w_re, w_im) for a <= b, with the sum equal to
    sum w_re Re u_ab + w_im Im u_ab.  The hessian of a real u is Hermitian,
    so each off-diagonal pair (a, b), (b, a) folds into one complex weight.
    """
    hup = herm_inverse(h)
    weights = []
    for a in range(h.shape[0]):
        weights.append((a, a, np.ascontiguousarray(hup[a, a].real), None))
        for b in range(a + 1, h.shape[0]):
            w = hup[b, a] + np.conj(hup[a, b])
            weights.append((a, b, np.ascontiguousarray(w.real), -w.imag))
    return weights


def _linear_solve(h, chart, eps, rhs, config: SolverConfig):
    """Solve Delta_h u - eps u = rhs; returns (u, fallbacks).

    For Hermitian h the operator maps real fields to real fields, so a real
    right-hand side is solved in real arithmetic and a complex one as two
    real systems.  For eps = 0 the right-hand side is projected onto the
    solvable range (zero det(h)-weighted mean) and the unique grid-mean-zero
    solution is returned; at n = 1 that solve is exact and Krylov-free.
    fallbacks counts the Krylov solves that stopped short of rtol but were
    accepted on a true residual below 1e-8.
    """
    if np.iscomplexobj(rhs):
        re, fb_re = _linear_solve(h, chart, eps, rhs.real, config)
        im, fb_im = _linear_solve(h, chart, eps, rhs.imag, config)
        return re + 1j * im, fb_re + fb_im
    grid = chart.grid
    n = chart.n
    pin = eps == 0
    if pin:
        det = herm_det(h).real
        rhs = rhs - np.mean(rhs * det) / np.mean(det)
        if n == 1:
            # det(h) h^{-1} = 1, so det(h) Delta_h u = u_{z z-bar}: the step
            # is one division by the flat symbol, whose zeroed kernel modes
            # drop the constant and the pure-Nyquist content of det(h) rhs
            u = fourier_multiply(det * rhs, chart.flat_inverse_mult)
            return u - np.mean(u), 0
    h_mean = np.array([[np.mean(h[a, b]) for b in range(n)] for a in range(n)])
    lam = flat_symbol(chart, h_mean)
    weights = _hessian_weights(h)

    # Pure-Nyquist modes are annihilated by the spectral derivative, hence
    # sit in the kernel of Delta_h at eps = 0; their rhs content is aliasing
    # noise and is filtered out to keep the system consistent.
    keep = None
    if pin:
        kernel_mask = lam == 0
        kernel_mask.flat[0] = False       # the constant mode is pinned instead
        if kernel_mask.any():
            keep = (~kernel_mask).astype(float)
        with np.errstate(divide="ignore"):
            inv_denom = np.where(lam > 0, -1.0 / lam, 0.0)
        inv_denom.flat[0] = 1.0
    else:
        inv_denom = -1.0 / (lam + eps)

    def filtered(f):
        return f if keep is None else fourier_multiply(f, keep)

    def apply(vec):
        u = vec.reshape(grid.shape)
        hess = ddc_fiber(u, chart)
        out = -eps * u if eps else np.zeros(grid.shape)
        for a, b, w_re, w_im in weights:
            out += w_re * hess[a, b].real
            if w_im is not None:
                out += w_im * hess[a, b].imag
        out = filtered(out)
        if pin:
            out += np.mean(u)
        return out.ravel()

    def precond(vec):
        return fourier_multiply(vec.reshape(grid.shape), inv_denom).ravel()

    size = grid.num_nodes
    op = LinearOperator((size, size), matvec=apply, dtype=float)
    pre = LinearOperator((size, size), matvec=precond, dtype=float)
    b = filtered(np.asarray(rhs, dtype=float)).ravel()
    sol, info = lgmres(op, b, M=pre, rtol=config.linear_rtol,
                       atol=0.0, maxiter=config.linear_maxiter)
    fallbacks = 0
    if info != 0:
        # conditioning can put the Krylov floor slightly above rtol; accept
        # the iterate if its true residual is still small, and count it
        bnorm = np.linalg.norm(b)
        rel = np.linalg.norm(apply(sol) - b) / bnorm if bnorm > 0 else 0.0
        if rel > 1e-8:
            raise SolverDivergence(
                f"linear solve did not converge (lgmres info {info}, rel {rel:.3e})")
        fallbacks = 1
    u = sol.reshape(grid.shape)
    if pin:
        u = u - np.mean(u)
    return u, fallbacks


def solve_ma(problem: MAProblem, config: SolverConfig | None = None,
             normalization: str = KE_VOLUME, initial_guess=None) -> MASolution:
    """Damped Newton solve of the fiber Monge-Ampere equation."""
    config = config or SolverConfig()
    problem.validate()
    chart = problem.chart
    g = problem.gab
    logdet_g = np.log(herm_det(g).real)
    target = problem.eta.real + problem.extra_f.real
    eps = problem.epsilon

    phi = np.zeros(chart.grid.shape) if initial_guess is None else initial_guess.real.copy()

    def residual_field(p):
        h = g + ddc_fiber(p, chart)
        me = herm_min_eig(h)
        if me <= 0:
            return None, None, me
        F = np.log(herm_det(h).real) - logdet_g - eps * p - target
        return F, h, me

    F, h, _ = residual_field(phi)
    if F is None:
        raise DefinitenessError("initial guess loses fiber positivity")
    res = float(np.max(np.abs(F)))
    iters = 0
    fallbacks = 0
    while res > config.tol and iters < config.max_iters:
        u, fb = _linear_solve(h, chart, eps, -F, config)
        fallbacks += fb
        t = 1.0
        while True:
            F_new, h_new, _ = residual_field(phi + t * u)
            if F_new is not None:
                res_new = float(np.max(np.abs(F_new)))
                if res_new < res * (1.0 - 0.25 * t) or res_new < config.tol:
                    break
            t *= 0.5
            if t < config.damping_floor:
                raise SolverDivergence(
                    "damping floor reached (stagnation or positivity loss) "
                    f"at residual {res:.3e}", residual=res)
        phi = phi + t * u
        F, h, res = F_new, h_new, float(np.max(np.abs(F_new)))
        iters += 1

    if res > config.tol:
        raise SolverDivergence(
            f"Newton did not converge in {config.max_iters} iterations "
            f"(residual {res:.3e})", residual=res)

    if eps == 0 and normalization != NO_NORMALIZATION:
        phi = phi - _normalization_shift(phi, problem, normalization)
    elif eps > 0:
        normalization = NO_NORMALIZATION

    h = g + ddc_fiber(phi, chart)
    det_h = herm_det(h).real
    vol_g = fiber_integral(np.ones(chart.grid.shape), chart, metric=g)
    vol_h = float(np.mean(det_h)) * chart.measure
    lap = laplace_beltrami(g, phi, chart).real
    diagnostics = {
        "sup_phi": float(np.max(np.abs(phi))),
        "sup_lap_phi": float(np.max(np.abs(lap))),
        # trace-form positivity monitor: 0 <= n + Delta_omega phi
        "trace_min": float(np.min(chart.n + lap)),
        "fiber_min_eig": herm_min_eig(h),
        "volume_residual": abs(vol_h - vol_g) / abs(vol_g),
        "det_h_constancy": float(np.max(np.abs(det_h - np.mean(det_h))) / np.mean(det_h)),
        # Newton steps whose Krylov solve missed rtol and was accepted on
        # its true residual
        "linear_fallbacks": fallbacks,
    }
    return MASolution(phi=phi, residual_sup=res, newton_iters=iters,
                      normalization=normalization, diagnostics=diagnostics)


def _normalization_shift(phi, problem: MAProblem, normalization: str) -> float:
    chart = problem.chart
    det_g = herm_det(problem.gab).real
    if normalization == REFERENCE_VOLUME:
        weight = det_g
    elif normalization == KE_VOLUME:
        # e^(eta+f) omega^n is the solved Ricci-flat volume rho^n
        weight = np.exp(problem.eta.real + problem.extra_f.real) * det_g
    else:
        raise GeometryError(f"unknown normalization {normalization!r}")
    return float(np.mean(phi * weight) / np.mean(weight))


def linearized_solve(h: np.ndarray, chart: FiberChart, epsilon: float, R: np.ndarray,
                     config: SolverConfig | None = None,
                     solvability_tol: float = 1e-9) -> np.ndarray:
    """Solve -Delta_h u + eps u = R; mean-zero (det h weighted) branch at eps = 0."""
    config = config or SolverConfig()
    if herm_min_eig(h) <= 0:
        raise DefinitenessError("linearized solve needs positive-definite h")
    det = herm_det(h)
    if epsilon == 0:
        compat = abs(complex(np.mean(R * det))) / max(1.0, float(np.max(np.abs(R * det))))
        if compat > solvability_tol:
            raise NormalizationError(
                f"eps = 0 linearized problem violates solvability ({compat:.3e})")
    u, _ = _linear_solve(h, chart, epsilon, -np.asarray(R), config)
    if epsilon == 0:
        u = u - np.mean(u * det) / np.mean(det)
    return u


# -- base stencils and the assembled fiberwise Ricci-flat form ---------------


@dataclass(frozen=True)
class BaseStencil:
    center: complex
    h_s: float = 1e-3
    half: int = 1

    def __post_init__(self):
        if self.h_s <= 0 or self.half < 1:
            raise GeometryError("stencil needs h_s > 0 and half >= 1")

    def offsets(self):
        r = range(-self.half, self.half + 1)
        return [(i, j) for i in r for j in r]

    def point(self, i: int, j: int) -> complex:
        return self.center + self.h_s * (i + 1j * j)


def _fd_ds(stack: dict, h: float, at=(0, 0)):
    i, j = at
    d_re = (stack[(i + 1, j)] - stack[(i - 1, j)]) / (2 * h)
    d_im = (stack[(i, j + 1)] - stack[(i, j - 1)]) / (2 * h)
    return (d_re - 1j * d_im) / 2.0


def _fd_dsbar(stack: dict, h: float, at=(0, 0)):
    i, j = at
    d_re = (stack[(i + 1, j)] - stack[(i - 1, j)]) / (2 * h)
    d_im = (stack[(i, j + 1)] - stack[(i, j - 1)]) / (2 * h)
    return (d_re + 1j * d_im) / 2.0


def _fd_dsdsbar(stack: dict, h: float, at=(0, 0)):
    i, j = at
    f0 = stack[(i, j)]
    d2_re = (stack[(i + 1, j)] - 2 * f0 + stack[(i - 1, j)]) / h ** 2
    d2_im = (stack[(i, j + 1)] - 2 * f0 + stack[(i, j - 1)]) / h ** 2
    return (d2_re + d2_im) / 4.0


@dataclass
class AssembledRho:
    """Fiberwise Ricci-flat (or eps-regularized) form assembled on a stencil."""

    family: Family
    stencil: BaseStencil
    eps: float
    normalization: str
    form: FamilyForm
    omega: FamilyForm
    solutions: dict
    omegas: dict

    @property
    def phi(self) -> np.ndarray:
        return self.solutions[(0, 0)].phi

    def phi_stack(self) -> dict:
        return {k: sol.phi for k, sol in self.solutions.items()}

    def ricci_constancy(self) -> float:
        """sup |det h - mean det h| / mean det h on the center fiber."""
        det = herm_det(self.form.gab).real
        return float(np.max(np.abs(det - np.mean(det))) / np.mean(det))


def solve_stencil(family: Family, stencil: BaseStencil, eps: float = 0.0,
                  config: SolverConfig | None = None,
                  normalization: str = KE_VOLUME) -> tuple[dict, dict]:
    """MA solves on every stencil point, warm-started from the center."""
    config = config or SolverConfig()
    offsets = sorted(stencil.offsets(), key=lambda ij: (max(abs(ij[0]), abs(ij[1])), ij))
    solutions, omegas = {}, {}
    warm = None
    for key in offsets:
        s = stencil.point(*key)
        form = family.omega(s)
        eta = eta_from_metric(form.gab, form.chart)
        problem = MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=eps)
        sol = solve_ma(problem, config, normalization=normalization, initial_guess=warm)
        solutions[key], omegas[key] = sol, form
        if key == (0, 0):
            warm = sol.phi
    return solutions, omegas


def fiberwise_ricci_flat(family: Family, stencil: BaseStencil, eps: float = 0.0,
                         config: SolverConfig | None = None,
                         normalization: str = KE_VOLUME) -> AssembledRho:
    """Assemble rho = omega + dd^c phi at the stencil center.

    Fiber components are spectral; mixed components use central differences
    at fixed z through the chart chain rule D_s = d/ds|grid - tau' y d/dz.
    """
    if family.n != 1:
        raise GeometryError("the family pipeline assembles n = 1 fibrations only")
    solutions, omegas = solve_stencil(family, stencil, eps, config, normalization)
    om0 = omegas[(0, 0)]
    chart = om0.chart
    grid = chart.grid
    h_s = stencil.h_s
    tau, taup = family.tau(stencil.center), family.tau_prime(stencil.center)
    D = tau - np.conj(tau)

    phis = {k: sol.phi for k, sol in solutions.items()}
    dzb_phis = {k: d_zbar(phis[k], omegas[k].chart) for k in phis}

    phi0 = phis[(0, 0)]
    hzz = om0.gab[0, 0] + ddc_fiber(phi0, chart)[0, 0]
    msz = om0.ystruct.msz + _fd_ds(dzb_phis, h_s)
    q0 = om0.ystruct.q0 + _fd_dsdsbar(phis, h_s)
    q1 = om0.ystruct.q1.copy()
    if taup != 0:
        q1 = q1 + (-np.conj(taup)) * _fd_ds(dzb_phis, h_s) \
            - taup * d_z(_fd_dsbar(phis, h_s), chart) \
            + abs(taup) ** 2 / D * dzb_phis[(0, 0)]

    y = grid.coords[1]
    form = FamilyForm(
        chart=chart, s=stencil.center,
        gss=abs(taup) ** 2 * y ** 2 * hzz + y * q1 + q0,
        gsb=((-taup) * y * hzz + msz)[np.newaxis],
        gab=hzz[np.newaxis, np.newaxis],
        provenance="assembled-rho")
    form.ystruct = YStructure(taup=taup, msz=msz, q1=q1, q0=q0)
    return AssembledRho(family=family, stencil=stencil, eps=eps,
                        normalization=normalization, form=form, omega=om0,
                        solutions=solutions, omegas=omegas)


def semiflat_shift(rho: AssembledRho) -> dict:
    """Base function A(y) = int phi omega^n and the shifted potential psi.

    psi = phi - A solves the same fiber equations with the reference-volume
    normalization; dd^c A at the stencil center is exposed for the
    direct-image corollary checks.
    """
    if rho.normalization != KE_VOLUME:
        raise GeometryError("semiflat shift expects a KE-volume normalized solve")
    A, psi, psi_residuals = {}, {}, {}
    for key, sol in rho.solutions.items():
        om = rho.omegas[key]
        vol = fiber_integral(np.ones(om.chart.grid.shape), om.chart, metric=om.gab)
        a_val = fiber_integral(sol.phi, om.chart, metric=om.gab) / vol
        A[key] = a_val
        psi[key] = sol.phi - a_val
        psi_residuals[key] = abs(fiber_integral(psi[key], om.chart, metric=om.gab)) / vol
    ddc_a = _fd_dsdsbar({k: complex(v) for k, v in A.items()}, rho.stencil.h_s)
    return {"A": A, "psi": psi, "psi_integral_residual": psi_residuals,
            "ddc_A": complex(ddc_a)}


# -- the eps continuation path ------------------------------------------------


@dataclass
class EpsilonPath:
    schedule: tuple
    solutions: list
    table: list
    order: float
    c_normalization: float
    sup_phi_max: float
    sup_lap_max: float


def epsilon_continuation(family: Family, s: complex, schedule, config=None,
                         eta_weight: bool = True) -> EpsilonPath:
    """Warm-started solves along a decreasing eps schedule on one fiber.

    Records the normalization integrals int phi_eps e^eta omega^n, whose
    decay order in eps is fitted, and the convergence table against the
    eps = 0 solution.
    """
    config = config or SolverConfig()
    schedule = tuple(float(e) for e in schedule)
    if any(e < 0 for e in schedule):
        raise GeometryError("epsilon schedule must be nonnegative")
    if list(schedule) != sorted(schedule, reverse=True) or len(set(schedule)) != len(schedule):
        raise GeometryError("epsilon schedule must be strictly decreasing")

    form = family.omega(s)
    chart = form.chart
    eta = eta_from_metric(form.gab, chart)
    det_g = herm_det(form.gab).real
    weight = (np.exp(eta) * det_g) if eta_weight else det_g
    vol = float(np.mean(det_g)) * chart.measure

    solutions, table = [], []
    warm = None
    failed = None
    for eps in schedule:
        problem = MAProblem(chart=chart, gab=form.gab, eta=eta, epsilon=eps)
        try:
            sol = solve_ma(problem, config, normalization=KE_VOLUME, initial_guess=warm)
        except SolverDivergence as exc:
            failed = (eps, exc)
            break
        warm = sol.phi
        solutions.append(sol)
        ke_integral = float(np.mean(sol.phi * weight)) * chart.measure
        table.append({
            "eps": eps,
            "sup_phi": sol.diagnostics["sup_phi"],
            "sup_lap_phi": sol.diagnostics["sup_lap_phi"],
            "ke_integral": ke_integral,
            "volume_residual": sol.diagnostics["volume_residual"],
            "linear_fallbacks": sol.diagnostics["linear_fallbacks"],
        })

    if failed is not None:
        eps, exc = failed
        raise SolverDivergence(
            f"continuation aborted at eps = {eps}: {exc}; "
            f"{len(solutions)} solves completed", residual=exc.residual,
            partial={"solutions": solutions, "table": table})

    if schedule[-1] == 0.0:
        phi0 = solutions[-1].phi
    else:
        problem0 = MAProblem(chart=chart, gab=form.gab, eta=eta, epsilon=0.0)
        phi0 = solve_ma(problem0, config, normalization=KE_VOLUME, initial_guess=warm).phi
    for row, sol in zip(table, solutions):
        row["sup_diff_to_limit"] = float(np.max(np.abs(sol.phi - phi0)))

    pos = [(row["eps"], row["sup_diff_to_limit"], abs(row["ke_integral"]))
           for row in table if row["eps"] > 0]
    order = float("nan")
    c_norm = 0.0
    if len(pos) >= 2:
        xs = np.log([p[0] for p in pos])
        diffs = np.array([p[1] for p in pos])
        if np.all(diffs > 0):
            order = float(np.polyfit(xs, np.log(diffs), 1)[0])
        c_norm = max(p[2] / p[0] for p in pos)
    return EpsilonPath(
        schedule=schedule, solutions=solutions, table=table, order=order,
        c_normalization=c_norm,
        sup_phi_max=max(r["sup_phi"] for r in table),
        sup_lap_max=max(r["sup_lap_phi"] for r in table))
