"""Fiberwise complex Monge-Ampere solves and the family assembly pipeline.

The fiber equation in coordinates is

    log det(g_ab + phi_ab) - log det(g_ab) = eps * phi + eta + extra_f,

solved by damped Newton iteration; each linear step inverts Delta_h - eps
(h the current fiber metric) in one of three ways:

* elliptic fibers (n = 1) at eps = 0: det(h) Delta_h is the flat d d-bar,
  and the step is one exact spectral division.  There the equation
  h_{z z-bar} = g e^(eta + extra_f) is linear in phi_{z z-bar}, and the
  step targets it rather than its linearization, so one step solves it;
* elliptic fibers at eps > 0: det(h) (Delta_h - eps) is the flat d d-bar
  minus eps det(h), symmetric and negative definite, and the step is a
  preconditioned conjugate gradient solve (Hestenes & Stiefel 1952) with
  the spectral preconditioner 1/(lambda + eps mean det h);
* n >= 2: restarted GMRES (Saad & Schultz 1986) right-preconditioned by
  the constant-coefficient spectral inverse, stopped at the inexact-Newton
  forcing term max(linear_rtol, min(1e-2, 0.1 sup|F|)) (Eisenstat & Walker
  1996) and judged on its true residual.

The Krylov solves reduce with elementwise sums and update with ufuncs, so
they make no BLAS call on field-sized vectors.

For eps = 0 the constant kernel is removed by projecting the right-hand
side and pinning the grid mean, and the requested normalization is
enforced by a final additive shift (solutions are unique up to constants);
for eps > 0 the solution is intrinsically unique and no shift is applied.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import (
    DefinitenessError,
    FiberChart,
    GeometryError,
    NormalizationError,
    d_z,
    d_zbar,
    ddc_fiber,
    drop_nyquist_modes,
    fiber_integral,
    flat_symbol,
    fourier_multiply,
    herm_det,
    herm_inverse,
    herm_min_eig,
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
    """Newton and linear-solve settings.

    tol: sup |F| at which Newton stops.
    max_iters: Newton steps allowed before SolverDivergence.
    damping_floor: smallest step fraction t of the backtracking line search.
    linear_rtol: relative residual of a final linear solve (linearized_solve)
        and of every n = 1, eps > 0 Newton step; the lower bound of the
        n >= 2 forcing terms.
    linear_maxiter: GMRES restart cycles of RESTART = 30 iterations each
        (n >= 2); the conjugate gradient solve at n = 1, eps > 0 is capped at
        RESTART * linear_maxiter iterations, the same number of matvecs.
    """

    tol: float = 1e-11
    max_iters: int = 50
    damping_floor: float = 2.0 ** -20
    linear_rtol: float = 1e-11
    linear_maxiter: int = 300

    def __post_init__(self):
        if self.tol <= 0:
            raise GeometryError("solver tolerance must be positive")
        # with no cycle to run, GMRES would report its x = 0 as converged
        if self.linear_maxiter < 1:
            raise GeometryError("linear_maxiter must be at least 1")


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


def _accept_unconverged(rel, solver):
    """Fallback count of a Krylov solve that stopped short of its rtol.

    Conditioning can put the Krylov floor slightly above rtol: the iterate
    is accepted, and counted, if its true relative residual is below 1e-8.
    """
    if not rel <= 1e-8:
        raise SolverDivergence(f"linear solve did not converge ({solver}, rel {rel:.3e})")
    return 1


@dataclass(frozen=True)
class Operator:
    """A linear map given by its matvec; shape and dtype are for trace hooks."""

    shape: tuple
    matvec: Callable
    dtype: type = float


def _dot(x, y) -> float:
    # an elementwise sum: a BLAS dot on a field-sized vector wakes
    # OpenBLAS's second thread, which then spins
    return float(np.sum(x * y))


# Krylov iterations per GMRES restart cycle; the conjugate gradient cap is
# counted in the same cycles
RESTART = 30


def lgmres(A, b, *, M, rtol, atol, maxiter, callback=None):
    """Right-preconditioned restarted GMRES(RESTART) from x = 0 (Saad & Schultz 1986).

    Solves A x = b, with A and M (an approximate inverse of A) read through
    .matvec.  Each cycle builds an Arnoldi basis V of A M by modified
    Gram-Schmidt and moves to the x + M V y that minimizes |b - A x| on it;
    the Givens rotations and the triangular solve run on Python scalars, and
    field-sized vectors are reduced by elementwise sums and updated by
    ufuncs, so no BLAS call is made.  A cycle stops early once its estimate
    of |b - A x| reaches max(atol, rtol |b|), and ends with the true
    residual b - A x, from which the next cycle restarts.  callback, if
    given, receives |b - A x| at x = 0 and after each cycle.

    Returns (x, info): info is 0 if the last true residual is at most
    max(atol, rtol |b|), else maxiter (the cycles run).  The name and call
    form are those of scipy.sparse.linalg.lgmres, kept for the benchmark's
    trace hook and for the tests that patch cyflab.masolver.lgmres.
    """
    x = np.zeros_like(b)
    r = b
    rnorm = math.sqrt(_dot(r, r))
    tol = max(atol, rtol * rnorm)
    if callback is not None:
        callback(rnorm)
    for _ in range(maxiter):
        if rnorm <= tol:
            break
        V, Z, R, rotations, g = [r / rnorm], [], [], [], [rnorm]
        for j in range(RESTART):
            Z.append(M.matvec(V[j]))
            w = A.matvec(Z[j])
            col = []
            for v in V:
                c = _dot(w, v)
                w -= c * v
                col.append(c)
            w_norm = math.sqrt(_dot(w, w))
            for i, (cs, sn) in enumerate(rotations):
                top, low = col[i], col[i + 1]
                col[i], col[i + 1] = cs * top + sn * low, cs * low - sn * top
            d = math.hypot(col[j], w_norm)
            if d == 0:
                # A M is singular on the new direction: end the cycle without it
                Z.pop()
                break
            cs, sn = col[j] / d, w_norm / d
            col[j] = d
            rotations.append((cs, sn))
            R.append(col)
            g.append(-sn * g[j])
            g[j] *= cs
            # |g[j + 1]| is the cycle's estimate of |b - A x|; w_norm = 0
            # means the Krylov space is invariant and the cycle exact
            if abs(g[j + 1]) <= tol or w_norm == 0:
                break
            V.append(w / w_norm)
        y = [0.0] * len(R)
        for i in reversed(range(len(R))):
            y[i] = (g[i] - sum(R[m][i] * y[m] for m in range(i + 1, len(R)))) / R[i][i]
        for yi, z in zip(y, Z):
            x += yi * z
        r = b - A.matvec(x)
        rnorm = math.sqrt(_dot(r, r))
        if callback is not None:
            callback(rnorm)
    return x, 0 if rnorm <= tol else maxiter


def _linear_solve(h, chart, eps, rhs, config: SolverConfig, rtol=None):
    """Solve Delta_h u - eps u = rhs; returns (u, fallbacks, iterations, residual).

    For Hermitian h the operator maps real fields to real fields, so a real
    right-hand side is solved in real arithmetic and a complex one as two
    real systems.  For eps = 0 the right-hand side is projected onto the
    solvable range (zero det(h)-weighted mean) and the unique grid-mean-zero
    solution is returned; at n = 1 that solve is exact and Krylov-free.  At
    n = 1, eps > 0 the solve is conjugate gradients (_elliptic_cg), and at
    n >= 2 it is GMRES (lgmres).  rtol (default config.linear_rtol) is the
    relative residual the Krylov solve stops at.  fallbacks counts the
    Krylov solves whose true residual missed rtol but was accepted below
    1e-8; iterations counts the GMRES matvecs or CG iterations; residual is
    the true relative residual the solve ended at (the larger of the two
    for a complex right-hand side).  The exact step returns 0 iterations
    and residual None.
    """
    rtol = config.linear_rtol if rtol is None else rtol
    if np.iscomplexobj(rhs):
        re, fb_re, it_re, res_re = _linear_solve(h, chart, eps, rhs.real, config, rtol)
        im, fb_im, it_im, res_im = _linear_solve(h, chart, eps, rhs.imag, config, rtol)
        residual = None if res_re is None else max(res_re, res_im)
        return re + 1j * im, fb_re + fb_im, it_re + it_im, residual
    grid = chart.grid
    n = chart.n
    pin = eps == 0
    if n == 1 and not pin:
        return _elliptic_cg(herm_det(h).real, chart, eps, rhs, rtol,
                            RESTART * config.linear_maxiter)
    if pin:
        det = herm_det(h).real
        rhs = rhs - np.mean(rhs * det) / np.mean(det)
        if n == 1:
            # det(h) h^{-1} = 1, so det(h) Delta_h u = u_{z z-bar}: the step
            # is one division by the flat symbol, whose zeroed kernel modes
            # drop the constant and the pure-Nyquist content of det(h) rhs
            u = fourier_multiply(det * rhs, chart.flat_inverse_mult)
            return u - np.mean(u), 0, 0, None
    h_mean = np.array([[np.mean(h[a, b]) for b in range(n)] for a in range(n)])
    lam = flat_symbol(chart, h_mean)
    weights = _hessian_weights(h)

    if pin:
        with np.errstate(divide="ignore"):
            inv_denom = np.where(lam > 0, -1.0 / lam, 0.0)
        inv_denom.flat[0] = 1.0
    else:
        inv_denom = -1.0 / (lam + eps)

    # Pure-Nyquist modes are annihilated by the spectral derivative, hence
    # sit in the kernel of Delta_h at eps = 0; their rhs content is aliasing
    # noise and is filtered out to keep the system consistent.
    def filtered(f):
        return drop_nyquist_modes(f) if pin else f

    matvecs = 0

    def apply(vec):
        nonlocal matvecs
        matvecs += 1
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

    shape = (grid.num_nodes, grid.num_nodes)
    b = filtered(np.asarray(rhs, dtype=float)).ravel()
    residuals = []
    sol, info = lgmres(Operator(shape, apply), b, M=Operator(shape, precond), rtol=rtol,
                       atol=0.0, maxiter=config.linear_maxiter, callback=residuals.append)
    rel = residuals[-1] / residuals[0] if residuals[0] > 0 else 0.0
    fallbacks = 0 if info == 0 else _accept_unconverged(rel, f"gmres, {info} cycles")
    u = sol.reshape(grid.shape)
    if pin:
        u = u - np.mean(u)
    return u, fallbacks, matvecs, rel


def _elliptic_cg(det, chart, eps, rhs, rtol, maxiter):
    """Conjugate gradients for Delta_h u - eps u = rhs on an elliptic fiber, eps > 0.

    At n = 1, det(h) Delta_h u = u_{z z-bar}, so multiplying by -det(h)
    gives A u = -u_{z z-bar} + eps det(h) u = -det(h) rhs, with A symmetric
    positive definite in the flat l2 product.  The preconditioner is the
    Fourier multiplier 1/(lambda + eps mean det h), lambda the flat symbol.
    Reductions are elementwise sums, so no BLAS call is made.  Returns
    (u, fallbacks, iterations, residual) as _linear_solve does, judged on
    the true relative residual of A u = b.
    """
    lam = flat_symbol(chart)
    inv_denom = 1.0 / (lam + eps * np.mean(det))

    def apply(u):
        return fourier_multiply(u, lam) + eps * det * u

    b = -det * rhs
    bnorm = np.sqrt(np.sum(b * b))
    u = np.zeros_like(b)
    r = b.copy()
    z = fourier_multiply(r, inv_denom)
    p = z
    rz = np.sum(r * z)
    iterations = 0
    while iterations < maxiter and np.sqrt(np.sum(r * r)) > rtol * bnorm:
        Ap = apply(p)
        alpha = rz / np.sum(p * Ap)
        u += alpha * p
        r -= alpha * Ap
        z = fourier_multiply(r, inv_denom)
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
        iterations += 1
    rel = np.sqrt(np.sum((apply(u) - b) ** 2)) / bnorm if bnorm > 0 else 0.0
    fallbacks = 0 if rel <= rtol else _accept_unconverged(rel, f"cg, {iterations} iterations")
    return u, fallbacks, iterations, rel


def solve_ma(problem: MAProblem, config: SolverConfig | None = None,
             normalization: str = KE_VOLUME, initial_guess=None) -> MASolution:
    """Damped Newton solve of the fiber Monge-Ampere equation."""
    config = config or SolverConfig()
    chart = problem.chart
    g = problem.gab
    target = problem.eta.real + problem.extra_f.real
    eps = problem.epsilon
    # a non-finite eta + f would pass every test below as NaN
    chart.check_field(target)
    # det g is the reference volume density and e^(eta+f) det g the
    # Ricci-flat one; at eps = 0 their integrals must agree for solvability
    det_g = herm_det(g).real
    vol_g = float(np.mean(det_g))
    if eps == 0:
        compat = abs(float(np.mean(np.exp(target) * det_g)) - vol_g) / vol_g
        if not compat <= 1e-10:
            raise NormalizationError(
                "eps = 0 problem violates the solvability normalization "
                f"(residual {compat:.3e})")
    logdet_g = np.log(det_g)

    # at n = 1, eps = 0 the equation h_{z z-bar} = g e^target is linear in
    # phi_{z z-bar}: the step u with u_{z z-bar} = h (e^{-F} - 1) lands on it
    exact = chart.n == 1 and eps == 0
    # inexact Newton forcing terms on the GMRES steps (n >= 2); at n = 1
    # conjugate gradients reach linear_rtol in a few iterations anyway
    forcing = chart.n > 1

    def residual_field(p):
        h = g + ddc_fiber(p, chart)
        me = herm_min_eig(h)
        if me <= 0:
            return None, None, me
        F = np.log(herm_det(h).real) - logdet_g - eps * p - target
        return F, h, me

    if initial_guess is None:
        # phi = 0: h = g, whose positivity MAProblem has checked
        phi = np.zeros(chart.grid.shape)
        F, h = -target, g
    else:
        phi = initial_guess.real.copy()
        F, h, _ = residual_field(phi)
        if F is None:
            raise DefinitenessError("initial guess loses fiber positivity")
    res = float(np.max(np.abs(F)))
    iters = 0
    fallbacks = 0
    trace = {"residual_history": [], "step_lengths": [], "linear_iterations": [],
             "linear_rtol": [], "linear_residual": []}
    while res > config.tol and iters < config.max_iters:
        rtol = max(config.linear_rtol, min(1e-2, 0.1 * res)) if forcing else config.linear_rtol
        u, fb, lin_iters, lin_res = _linear_solve(
            h, chart, eps, np.expm1(-F) if exact else -F, config, rtol)
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
        trace["residual_history"].append(res)
        trace["step_lengths"].append(t)
        trace["linear_iterations"].append(lin_iters)
        trace["linear_rtol"].append(rtol)
        trace["linear_residual"].append(lin_res)
        phi = phi + t * u
        F, h, res = F_new, h_new, float(np.max(np.abs(F_new)))
        iters += 1

    if not res <= config.tol:
        raise SolverDivergence(
            f"Newton did not converge in {config.max_iters} iterations "
            f"(residual {res:.3e})", residual=res)

    if eps == 0 and normalization != NO_NORMALIZATION:
        if normalization == REFERENCE_VOLUME:
            weight = det_g
        elif normalization == KE_VOLUME:
            # e^(eta+f) omega^n is the solved Ricci-flat volume rho^n
            weight = np.exp(target) * det_g
        else:
            raise GeometryError(f"unknown normalization {normalization!r}")
        phi = phi - float(np.mean(phi * weight) / np.mean(weight))
    elif eps > 0:
        normalization = NO_NORMALIZATION

    # the shift leaves dd^c phi, hence the last h, unchanged
    det_h = herm_det(h).real
    # Delta_g phi = g^{b a} phi_ab with phi_ab = (h - g)_ab
    gup = herm_inverse(g)
    lap = sum(gup[b, a] * (h[a, b] - g[a, b])
              for a in range(chart.n) for b in range(chart.n)).real
    diagnostics = {
        "sup_phi": float(np.max(np.abs(phi))),
        "sup_lap_phi": float(np.max(np.abs(lap))),
        # trace-form positivity monitor: 0 <= n + Delta_omega phi
        "trace_min": float(np.min(chart.n + lap)),
        "fiber_min_eig": herm_min_eig(h),
        "volume_residual": abs(float(np.mean(det_h)) - vol_g) / vol_g,
        "det_h_constancy": float(np.max(np.abs(det_h - np.mean(det_h))) / np.mean(det_h)),
        # Newton steps whose Krylov solve missed rtol and was accepted on
        # its true residual
        "linear_fallbacks": fallbacks,
        # one entry per Newton step: sup |F| before the step, the damping t,
        # the linear solve's iterations (0 for the exact step), its rtol and
        # the true relative residual it ended at (None for the exact step)
        **trace,
    }
    return MASolution(phi=phi, residual_sup=res, newton_iters=iters,
                      normalization=normalization, diagnostics=diagnostics)


def linearized_solve(h: np.ndarray, chart: FiberChart, epsilon: float, R: np.ndarray,
                     config: SolverConfig | None = None,
                     solvability_tol: float = 1e-9,
                     diagnostics: dict | None = None) -> np.ndarray:
    """Solve -Delta_h u + eps u = R; mean-zero (det h weighted) branch at eps = 0.

    If diagnostics is given, its "linear_fallbacks" count (see solve_ma) is
    increased by the Krylov solves of this call accepted on the fallback.
    """
    config = config or SolverConfig()
    if herm_min_eig(h) <= 0:
        raise DefinitenessError("linearized solve needs positive-definite h")
    det = herm_det(h)
    if epsilon == 0:
        compat = abs(complex(np.mean(R * det))) / max(1.0, float(np.max(np.abs(R * det))))
        if compat > solvability_tol:
            raise NormalizationError(
                f"eps = 0 linearized problem violates solvability ({compat:.3e})")
    u, fallbacks, _, _ = _linear_solve(h, chart, epsilon, -np.asarray(R), config)
    if diagnostics is not None:
        diagnostics["linear_fallbacks"] = diagnostics.get("linear_fallbacks", 0) + fallbacks
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
    """MA solves on every stencil point.

    For eps > 0 the outer points are warm-started from the center; at
    eps = 0 every point starts from phi = 0 (an elliptic fiber then needs
    one exact Newton step).
    """
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
        if key == (0, 0) and eps > 0:
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


def ke_identity_residual(phi: np.ndarray, eps: float, weight: np.ndarray) -> float:
    """Residual of the fiber equation at eps > 0, integrated over the fiber.

    Integrating (omega + dd^c phi)^n = e^(eps phi + eta) omega^n gives
    int (e^(eps phi) - 1) e^eta omega^n = 0, as dd^c phi is exact and
    int e^eta omega^n = int omega^n.  With weight the density e^eta det g,
    returns |eps int phi e^eta omega^n + int (e^(eps phi) - 1 - eps phi) e^eta omega^n|
    divided by int e^eta omega^n.
    """
    second_order = np.expm1(eps * phi) - eps * phi
    total = eps * float(np.mean(phi * weight)) + float(np.mean(second_order * weight))
    return abs(total) / float(np.mean(weight))


def epsilon_continuation(family: Family, s: complex, schedule, config=None) -> EpsilonPath:
    """Warm-started solves along a decreasing eps schedule on one fiber.

    Records the normalization integrals int phi_eps e^eta omega^n, whose
    decay order in eps is fitted, the residual of the integrated fiber
    equation at each eps > 0 (ke_identity_residual), and the convergence
    table against the eps = 0 solution.
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
    weight = np.exp(eta) * det_g

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
        if eps > 0:
            table[-1]["ke_identity_residual"] = ke_identity_residual(sol.phi, eps, weight)

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
