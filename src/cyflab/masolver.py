"""Fiberwise complex Monge-Ampere solves and the family assembly pipeline.

The fiber equation in coordinates is

    log det(g_ab + phi_ab) - log det(g_ab) = eps * phi + eta + extra_f,

that is F = log det h - log(e^(eta + f) det g) - eps phi = 0 with
h = g + dd^c phi and e^(eta + f) det g the target volume density.  For the
Ricci-flat (or eps-regularized) problem, f = 0 and eta = -log det g +
log vol g (vol g the fiber mean of det g, so that the target density has
the volume of det g), and that density is the number vol g: F =
log det h - log vol g - eps phi, with no field for eta, det g or
log det g.  The problem is solved by damped Newton iteration; each linear
step inverts Delta_h - eps (h the current fiber metric) in one of two ways:

* elliptic fibers (n = 1) at eps = 0: det(h) Delta_h is the flat d d-bar,
  and the step is one exact spectral division.  There the equation
  h_{z z-bar} = g e^(eta + extra_f) is linear in phi_{z z-bar}, and the
  step targets it rather than its linearization, so one step solves it;
* every other step (n = 1 at eps > 0, and n = 2): restarted GMRES (Saad &
  Schultz 1986) right-preconditioned by the constant-coefficient spectral
  inverse M, stopped at the inexact-Newton forcing term
  max(linear_rtol, min(1e-2, 0.1 sup|F|)) (Eisenstat & Walker 1996) and
  judged on its true residual.  The Krylov space is that of A M, and M is
  applied once per solve, to the final combination (Saad, Iterative
  Methods for Sparse Linear Systems, 2nd ed., 9.3.2): a matvec multiplies
  the half spectrum of its input by M and feeds it to the dd^c tables,
  one forward and n^2 inverse real transforms.

The Krylov solve reduces with elementwise sums and updates with ufuncs, so
it makes no BLAS call on field-sized vectors.

For eps = 0 the constant kernel is removed by projecting the right-hand
side and pinning the grid mean, and the requested normalization is
enforced by a final additive shift (solutions are unique up to constants);
for eps > 0 the solution is intrinsically unique and no shift is applied.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field as dc_field, replace

import numpy as np

from .geometry import (
    DefinitenessError,
    FiberChart,
    GeometryError,
    Herm2,
    InvalidFieldError,
    NormalizationError,
    add_weighted_ddc,
    d_z,
    d_zbar,
    ddc_fiber,
    drop_nyquist_modes,
    fiber_integral,
    flat_symbol,
    fourier_multiply,
    herm_det,
    herm_inverse,
    herm_mean,
    herm_min_eig,
    hessian_weights,
    irfft,
    prolong,
    rfft,
)
from .models import Family, FamilyForm, FiberMetric

KE_VOLUME = "ke_volume"
REFERENCE_VOLUME = "reference_volume"
NO_NORMALIZATION = "none"


class SolverDivergence(RuntimeError):
    """Newton failed to reach the tolerance (last residual attached)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolverConfig:
    """Newton and linear-solve settings.

    tol: sup |F| at which Newton stops.
    max_iters: Newton steps allowed before SolverDivergence.
    damping_floor: smallest step fraction t of the backtracking line search.
    linear_rtol: relative residual of a final linear solve (linearized_solve);
        the lower bound of the Newton steps' forcing terms.
    linear_maxiter: GMRES restart cycles of RESTART = 30 iterations each.
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


class _MetricEta(np.ndarray):
    """The eta = -log det g + log vol g that a problem with no eta given forms
    from its gab (origin) when eta is read.

    Given back to MAProblem with that same gab, as dataclasses.replace gives
    it, it is not stored: the new problem forms it on read too.
    """

    origin = None


class _Eta:
    """MAProblem.eta: the eta given, or, if none was, the _MetricEta formed
    from gab on each read (eta_from_metric); the problem stores only what
    was given, under the same name."""

    def __get__(self, problem, owner=None):
        if problem is None:
            # what @dataclass reads for a default: eta has none
            raise AttributeError("eta")
        eta = vars(problem)["eta"]
        if eta is not None:
            return eta
        det_g = herm_det(problem.gab, real=True)
        # int e^eta det(g) = int det(g) forces the additive constant
        eta = np.log(det_g)
        np.negative(eta, out=eta)
        eta += np.log(np.mean(det_g))
        eta = eta.view(_MetricEta)
        eta.origin = problem.gab
        return eta

    def __set__(self, problem, eta):
        if isinstance(eta, _MetricEta) and eta.origin is problem.gab:
            eta = None
        vars(problem)["eta"] = eta


@dataclass
class MAProblem:
    """The fiber equation (g + dd^c phi)^n = e^(eps phi + eta + f) g^n for phi
    on the chart, with reference metric gab: F = 0 for

        F = log det h - log(e^(eta + f) det g) - eps phi,   h = g + dd^c phi,

    e^(eta + f) det g the target volume density.

    gab is a (1, 1, *grid) complex stack at n = 1 and a Herm2 at n = 2.
    eta None gives the Ricci-flat (or eps-regularized) problem: eta is then
    -log det g + log vol g, vol g the fiber mean of det g, so with no f
    the target density is the number vol g, and the solve reads that number.
    Such a problem stores no eta; reading problem.eta forms it
    (eta_from_metric), and dataclasses.replace keeps the problem Ricci-flat.
    extra_f is the forcing term f of the equation; None means no forcing
    (f = 0), and no field is stored for it.  gab_min_eig, given, is gab's
    least eigenvalue as the caller computed it, and the check reads it in
    place of its own herm_min_eig pass; it is not stored, so a
    dataclasses.replace copy checks its gab again.

    The problem holds only these inputs: a solve forms det g where it reads it.
    """

    chart: FiberChart
    gab: np.ndarray | Herm2
    # a descriptor, not a default: eta is required, and None is Ricci-flat
    eta: np.ndarray | None = _Eta()
    epsilon: float
    extra_f: np.ndarray | None = None
    gab_min_eig: InitVar[float | None] = None

    def __post_init__(self, gab_min_eig):
        if self.epsilon < 0:
            raise GeometryError("epsilon must be nonnegative")
        if gab_min_eig is None:
            gab_min_eig = herm_min_eig(self.gab)
        # "not > 0" also rejects a metric with a NaN node
        if not gab_min_eig > 0:
            raise DefinitenessError("MA problem needs a fiber-positive reference form")

    @property
    def ricci_flat(self) -> bool:
        """No eta and no f given: the target density is the number vol g."""
        return vars(self)["eta"] is None and self.extra_f is None


@dataclass
class MASolution:
    """A converged solve of problem (held, not copied): phi, and h = g + dd^c phi,
    the fiber metric of the last Newton iterate (the normalization shift of
    phi leaves it unchanged), stored as problem.gab is."""

    phi: np.ndarray
    h: np.ndarray | Herm2
    residual_sup: float
    newton_iters: int
    normalization: str
    problem: MAProblem
    diagnostics: dict = dc_field(default_factory=dict)


def eta_from_metric(gab, chart: FiberChart) -> np.ndarray:
    """The eta with dd^c eta = -dd^c log det(g_ab) and int e^eta det g = int det g.

    A plain array: given to MAProblem, it is an explicit eta.
    """
    return MAProblem(chart=chart, gab=gab, eta=None, epsilon=0.0).eta.view(np.ndarray)


def ricci_flat_problem(metric: FiberMetric, eps: float) -> MAProblem:
    """The fiber problem on metric for the Ricci-flat (eps = 0) or
    eps-regularized potential: no eta or forcing given, so the target
    density is the number vol g."""
    return MAProblem(chart=metric.chart, gab=metric.gab, eta=None, epsilon=eps,
                     gab_min_eig=metric.min_eig)


def manufactured_problem(metric: FiberMetric, phi_star: np.ndarray, eps: float) -> MAProblem:
    """The fiber problem on metric whose solution is phi_star: eta = 0 and the
    forcing f = log det(g + dd^c phi*) - log det g - eps phi*."""
    h_star = metric.gab + ddc_fiber(phi_star, metric.chart)
    if not herm_min_eig(h_star) > 0:
        raise DefinitenessError("manufactured phi* breaks fiber positivity")
    problem = MAProblem(metric.chart, metric.gab, eta=np.zeros(phi_star.shape), epsilon=eps,
                        gab_min_eig=metric.min_eig)
    extra_f = np.log(herm_det(metric.gab, real=True))
    np.subtract(np.log(herm_det(h_star).real), extra_f, out=extra_f)
    extra_f -= eps * phi_star
    problem.extra_f = extra_f
    return problem


def _project_rhs(rhs, det_h):
    """Shift rhs in place by its det(h)-weighted mean, onto the range of Delta_h at eps = 0."""
    rhs -= np.mean(rhs * det_h) / np.mean(det_h)


def _sup_abs(F) -> float:
    """max |F|, with no field-sized temporary; NaN if F holds one.

    The + 0.0 turns the -0.0 of an F of negative zeros into the 0.0 of abs.
    """
    return float(max(F.max(), -F.min())) + 0.0


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


# Krylov iterations per GMRES restart cycle
RESTART = 30


def lgmres(A, b, *, rtol, atol, maxiter, callback=None):
    """Restarted GMRES(RESTART) for A x = b from x = 0 (Saad & Schultz 1986).

    A is read through .matvec; a preconditioner is the caller's to fold
    into A (_linear_solve passes A M and applies M to the result).  Each
    cycle builds an Arnoldi basis V of A by modified Gram-Schmidt and moves
    to the x + V y that minimizes |b - A x| on it; the Givens rotations and
    the triangular solve run on Python scalars, and field-sized vectors are
    reduced by elementwise sums and updated by ufuncs, so no BLAS call is
    made.  A cycle stops early once its estimate of |b - A x| reaches
    max(atol, rtol |b|), and ends with the true residual b - A x from a
    fresh matvec, from which the next cycle restarts.  callback, if given,
    receives |b - A x| at x = 0 and after each cycle.

    Returns (x, info): info is 0 if the last true residual is at most
    max(atol, rtol |b|), else maxiter (the cycles run).  The name and call
    form are those of scipy.sparse.linalg.lgmres without its M, kept for
    the benchmark's trace hook and for the tests that patch
    cyflab.masolver.lgmres.
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
        V, R, rotations, g = [r / rnorm], [], [], [rnorm]
        for j in range(RESTART):
            w = A.matvec(V[j])
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
                # A is singular on the new direction: end the cycle without it
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
        for yi, v in zip(y, V):
            x += yi * v
        r = b - A.matvec(x)
        rnorm = math.sqrt(_dot(r, r))
        if callback is not None:
            callback(rnorm)
    return x, 0 if rnorm <= tol else maxiter


def _linear_solve(h, chart, eps, rhs, config: SolverConfig, rtol=None, det_h=None):
    """Solve Delta_h u - eps u = rhs; returns (u, fallbacks, iterations, residual).

    For Hermitian h the operator maps real fields to real fields, so a real
    right-hand side is solved in real arithmetic and a complex one as two
    real systems.  For eps = 0 the right-hand side is projected onto the
    solvable range (zero det(h)-weighted mean) and the unique grid-mean-zero
    solution is returned; at n = 1 that solve is exact and Krylov-free.
    Every other solve is GMRES (lgmres) on A M, M the spectral inverse of
    the mean metric's operator, with u = M y from its solution y.  rtol
    (default config.linear_rtol) is the relative residual GMRES stops at.
    fallbacks counts the Krylov solves whose true residual missed rtol but
    was accepted below 1e-8; iterations counts the GMRES matvecs;
    residual is the true relative residual the solve ended at
    (the larger of the two for a complex right-hand side).  The exact step
    returns 0 iterations and residual None.  det_h, the real field det h,
    is formed here if not given.
    """
    rtol = config.linear_rtol if rtol is None else rtol
    if det_h is None:
        det_h = herm_det(h, real=True)
    if np.iscomplexobj(rhs):
        re, fb_re, it_re, res_re = _linear_solve(h, chart, eps, rhs.real, config, rtol, det_h)
        im, fb_im, it_im, res_im = _linear_solve(h, chart, eps, rhs.imag, config, rtol, det_h)
        residual = None if res_re is None else max(res_re, res_im)
        return re + 1j * im, fb_re + fb_im, it_re + it_im, residual
    if eps == 0:
        # the eps = 0 setup projects its right-hand side in place: give it a copy
        rhs = np.array(rhs, dtype=float)
    return _prepare_linear_solve(h, det_h, chart, eps, rhs, config, rtol)()


def _prepare_linear_solve(h, det_h, chart, eps, rhs, config: SolverConfig, rtol) -> Callable:
    """Set up _linear_solve's real system; returns the solve, a function of no arguments.

    det_h is the real field det h.  The solve returns (u, fallbacks,
    iterations, residual) as _linear_solve does.  The exact step (n = 1,
    eps = 0) is solved here.  rhs is a real field the caller gives up: at
    eps = 0 it is projected (and at n = 2 filtered) in place, before the
    Hessian weights are built.  Otherwise it is what GMRES reads; the solve
    holds it, the weights of h and the preconditioner symbol, but not h, so
    a caller that drops h and rhs before calling it keeps neither through
    the Krylov solve.
    """
    grid = chart.grid
    pin = eps == 0
    if pin and chart.n == 1:
        # det(h) h^{-1} = 1, so det(h) Delta_h u = u_{z z-bar}: the step
        # is one division by the flat symbol, whose zeroed kernel modes
        # drop the constant and the pure-Nyquist content of det(h) rhs
        _project_rhs(rhs, det_h)
        u = fourier_multiply(det_h * rhs, chart.flat_inverse_mult)
        out = u - np.mean(u), 0, 0, None
        return lambda: out
    # Pure-Nyquist modes are annihilated by the spectral derivative, hence
    # sit in the kernel of Delta_h at eps = 0; their rhs content is aliasing
    # noise and is filtered out to keep the system consistent.
    if pin:
        _project_rhs(rhs, det_h)
        drop_nyquist_modes(rhs)
    # the symbol first: its mean of h takes complex copies, freed before
    # the weights are built
    inv_denom = _preconditioner_symbol(h, chart, eps)
    weights = {key: (w_re, w_im) for key, w_re, w_im in hessian_weights(h)}
    matvecs = 0

    def preconditioned(vec):
        """The half spectrum of M vec."""
        fh = rfft(vec.reshape(grid.shape))
        fh *= inv_denom
        return fh

    def apply(vec):
        # (Delta_h - eps) M vec: M's half spectrum feeds the dd^c tables
        # directly, one forward and n^2 inverse real transforms (one more
        # for the eps term)
        nonlocal matvecs
        matvecs += 1
        fh = preconditioned(vec)
        if eps:
            out = irfft(fh, grid.shape)
            out *= -eps
        else:
            out = np.zeros(grid.shape)
        add_weighted_ddc(out, fh, chart, weights)
        if pin:
            drop_nyquist_modes(out)
            # M keeps the constant mode, so mean(M vec) = mean(vec)
            out += fh.flat[0].real / grid.num_nodes
        return out.ravel()

    def solve():
        residuals = []
        y, info = lgmres(Operator((grid.num_nodes, grid.num_nodes), apply), rhs.ravel(),
                         rtol=rtol, atol=0.0, maxiter=config.linear_maxiter,
                         callback=residuals.append)
        rel = residuals[-1] / residuals[0] if residuals[0] > 0 else 0.0
        fallbacks = 0 if info == 0 else _accept_unconverged(rel, f"gmres, {info} cycles")
        u = irfft(preconditioned(y), grid.shape)
        if pin:
            u -= np.mean(u)
        return u, fallbacks, matvecs, rel

    return solve


def _preconditioner_symbol(h, chart, eps) -> np.ndarray:
    """The symbol -1/(lambda + eps) of M on the half spectrum.

    lambda is flat_symbol at the mean of h.  At eps = 0, M keeps the
    constant mode and zeroes the rest of lambda's kernel (the pure-Nyquist
    modes).  The symbol is formed in place of lambda.
    """
    lam = flat_symbol(chart, herm_mean(h))
    if eps == 0:
        np.divide(-1.0, lam, out=lam, where=lam > 0)
        lam.flat[0] = 1.0
    else:
        lam += eps
        np.divide(-1.0, lam, out=lam)
    return lam


def solve_ma(problem: MAProblem, config: SolverConfig | None = None,
             normalization: str = KE_VOLUME, initial_guess=None) -> MASolution:
    """Damped Newton solve of the fiber Monge-Ampere equation.

    Each field is formed once.  det g is formed for its mean vol g and,
    from phi = 0, serves as the first iterate's det h.  A Ricci-flat
    problem reads its target density as the number vol g, needs no
    solvability check and takes the plain mean of phi as its KE shift.  A
    problem with eta or f given also forms log det g, the target eta + f
    and, at eps = 0, the density e^(eta+f) det g, for the solvability
    check and the KE normalization.  Each iterate forms det h once, for
    its residual, the next step's projection and the closing diagnostics.
    Each field is dropped after its last read: during a Krylov solve the
    loop holds phi, the target's fields and the solve's own data, not the
    previous iterate h, its det h, its residual F or the last step u.
    """
    config = config or SolverConfig()
    chart = problem.chart
    g = problem.gab
    eps = problem.epsilon
    ricci_flat = problem.ricci_flat
    if not ricci_flat:
        target = problem.eta.real
        if problem.extra_f is not None:
            target = target + problem.extra_f.real
        # a non-finite eta + f would pass every test below as NaN
        chart.check_field(target)
    det_g = herm_det(g, real=True)
    vol_g = float(np.mean(det_g))
    # F = log det h - log_density - eps phi (- eta - f): a Ricci-flat
    # problem's target density e^eta det g is the number vol g
    if ricci_flat:
        if not 0 < vol_g < math.inf:
            raise InvalidFieldError(f"reference volume vol g = {vol_g} is not positive and "
                                    "finite")
        log_density = math.log(vol_g)
    else:
        log_density = np.log(det_g)
    weight = None
    if eps == 0:
        if not ricci_flat:
            # det g is the reference volume density and e^(eta+f) det g the
            # Ricci-flat one; their integrals must agree for solvability
            weight = np.exp(target)
            weight *= det_g
            weight_mean = np.mean(weight)
            compat = abs(float(weight_mean) - vol_g) / vol_g
            if not compat <= 1e-10:
                raise NormalizationError(
                    "eps = 0 problem violates the solvability normalization "
                    f"(residual {compat:.3e})")
        if normalization == REFERENCE_VOLUME:
            weight, weight_mean = det_g, vol_g
        elif normalization != KE_VOLUME:
            weight = None

    # at n = 1, eps = 0 the equation h_{z z-bar} = g e^target is linear in
    # phi_{z z-bar}: the step u with u_{z z-bar} = h (e^{-F} - 1) lands on it
    exact = chart.n == 1 and eps == 0

    def residual_field(p):
        """(F, h, det h, least eigenvalue of h) at phi = p; F, h and det h are
        None if h is not positive-definite."""
        h = ddc_fiber(p, chart)
        h += g
        me = herm_min_eig(h)
        if not me > 0:
            return None, None, None, me
        det_h = herm_det(h, real=True)
        F = np.log(det_h)
        F -= log_density
        if eps:
            F -= eps * p
        if not ricci_flat:
            F -= target
        return F, h, det_h, me

    if initial_guess is None:
        # phi = 0: h = g, whose positivity MAProblem has checked; its least
        # eigenvalue is taken only if no Newton step replaces h
        phi = np.zeros(chart.grid.shape)
        # det g is the first det h
        h, det_h, me = g, det_g, None
        del det_g
        if ricci_flat:
            F = np.log(det_h)
            F -= log_density
        else:
            F = -target
    else:
        # det g is not read again (but as the reference-volume weight)
        del det_g
        phi = initial_guess.real.copy()
        # a caller that passes its guess without keeping it frees it here
        del initial_guess
        F, h, det_h, me = residual_field(phi)
        if F is None:
            raise DefinitenessError("initial guess loses fiber positivity")
    res = _sup_abs(F)
    iters = 0
    fallbacks = 0
    trace = {"residual_history": [], "step_lengths": [], "linear_iterations": [],
             "linear_rtol": [], "linear_residual": []}
    while res > config.tol and iters < config.max_iters:
        # inexact Newton forcing terms on the GMRES steps; the exact step
        # records linear_rtol, which it does not read
        rtol = config.linear_rtol if exact else max(config.linear_rtol, min(1e-2, 0.1 * res))
        # the right-hand side -F is formed in F's buffer
        rhs = np.expm1(-F) if exact else np.negative(F, out=F)
        del F
        solve = _prepare_linear_solve(h, det_h, chart, eps, rhs, config, rtol)
        # the solve holds neither h, det h nor the rhs given, and the line
        # search builds its own: free them before the Krylov solve
        del rhs, h, det_h
        u, fb, lin_iters, lin_res = solve()
        del solve
        fallbacks += fb
        t = 1.0
        while True:
            # the accepted trial point is the next phi
            trial = phi + t * u
            F, h, det_h, me = residual_field(trial)
            if F is not None:
                res_new = _sup_abs(F)
                if res_new < res * (1.0 - 0.25 * t) or res_new < config.tol:
                    break
            t *= 0.5
            if t < config.damping_floor:
                cause = ("positivity loss: the last trial step left the fiber metric "
                         "indefinite" if F is None else
                         "stagnation: no trial step lowered sup |F| enough")
                raise SolverDivergence(
                    f"damping floor reached ({cause}) at residual {res:.3e}", residual=res)
        trace["residual_history"].append(res)
        trace["step_lengths"].append(t)
        trace["linear_iterations"].append(lin_iters)
        trace["linear_rtol"].append(rtol)
        trace["linear_residual"].append(lin_res)
        phi = trial
        del u, trial
        res = res_new
        iters += 1

    if not res <= config.tol:
        raise SolverDivergence(
            f"Newton did not converge in {config.max_iters} iterations "
            f"(residual {res:.3e})", residual=res)
    del F

    if eps == 0 and normalization != NO_NORMALIZATION:
        if normalization not in (REFERENCE_VOLUME, KE_VOLUME):
            raise GeometryError(f"unknown normalization {normalization!r}")
        # KE: e^(eta+f) omega^n is the solved Ricci-flat volume rho^n, a
        # constant multiple of the coordinate volume for a Ricci-flat problem
        if weight is None:
            phi = phi - float(np.mean(phi))
        else:
            phi = phi - float(np.mean(phi * weight) / weight_mean)
        del weight
    elif eps > 0:
        normalization = NO_NORMALIZATION

    # the shift leaves dd^c phi, hence the last h and its det h, unchanged;
    # det h is read, and dropped, before Delta_g phi is formed
    mean_det_h = np.mean(det_h)
    volume_residual = abs(float(mean_det_h) - vol_g) / vol_g
    # max |det h - mean| with no field-sized temporary, as _sup_abs takes it
    det_h_constancy = float(max(det_h.max() - mean_det_h, mean_det_h - det_h.min())
                            / mean_det_h)
    del det_h
    lap = _laplacian_of_potential(g, h)
    diagnostics = {
        "sup_phi": _sup_abs(phi),
        "sup_lap_phi": _sup_abs(lap),
        # trace-form positivity monitor: 0 <= n + Delta_omega phi; as rounding
        # is monotone, the min of n + lap is n + its min
        "trace_min": float(chart.n + np.min(lap)),
        "fiber_min_eig": herm_min_eig(h) if me is None else me,
        "volume_residual": volume_residual,
        "det_h_constancy": det_h_constancy,
        # Newton steps whose Krylov solve missed rtol and was accepted on
        # its true residual
        "linear_fallbacks": fallbacks,
        # one entry per Newton step: sup |F| before the step, the damping t,
        # the linear solve's iterations (0 for the exact step), its rtol and
        # the true relative residual it ended at (None for the exact step)
        **trace,
    }
    return MASolution(phi=phi, h=h, residual_sup=res, newton_iters=iters,
                      normalization=normalization, problem=problem, diagnostics=diagnostics)


def solve_nested(problem_at: Callable, grid_n: int, max_frequency: int,
                 config: SolverConfig | None = None,
                 normalization: str = KE_VOLUME) -> MASolution:
    """solve_ma on the grid_n grid, started from the solution of a coarser grid.

    problem_at(N) builds the problem from the same analytic data on an N
    grid, and max_frequency bounds the |k_m| of every mode in that data.  A
    coarser level at M = max(8, 2 floor(N/4)), the even grid nearest N/2
    from below or the FiberGrid floor 8, exists when M < N, when
    max_frequency lies below its Nyquist frequency M/2, and when the step
    is not the exact one of n = 1, eps = 0 (so 24 solves at 8 and 12).  The
    coarsest level is solved from phi = 0, and each finer one from the
    phi of the level below, prolonged to its grid (grid sequencing: by mesh
    independence, Newton from a coarse-grid start needs few fine steps).
    The answer is accepted by solve_ma's tol test on the grid_n grid only.
    If any level fails (for one, a prolonged guess may lose fiber
    positivity), the grid_n problem is solved from phi = 0 once, as solve_ma
    alone does, and that outcome stands.

    diagnostics["levels"] lists, coarsest first, the levels that led to the
    answer: grid_n, newton_iters, matvecs (the sum of the level's
    linear_iterations) and start_residual (sup |F| at the prolonged guess;
    None on the level solved from phi = 0).
    """
    config = config or SolverConfig()
    problem = problem_at(grid_n)
    if _coarse_grid(problem, max_frequency) is not None:
        try:
            return _solve_levels(problem_at, problem, max_frequency, config, normalization)
        except (SolverDivergence, GeometryError):
            pass
    # outside the except block, whose traceback holds the failed levels' fields
    return _with_level(solve_ma(problem, config, normalization), [], None)


def _coarse_grid(problem: MAProblem, max_frequency: int) -> int | None:
    """The grid of the level below problem's in solve_nested, None if it has none."""
    N = problem.chart.grid.N
    coarse_n = max(8, 2 * (N // 4))
    nested = (not (problem.chart.n == 1 and problem.epsilon == 0)
              and coarse_n < N and max_frequency < coarse_n // 2)
    return coarse_n if nested else None


def _solve_levels(problem_at, problem, max_frequency, config, normalization) -> MASolution:
    """problem solved from the prolonged answer of the level below, or from
    phi = 0 if it has none; a failure on any level propagates."""
    coarse_n = _coarse_grid(problem, max_frequency)
    if coarse_n is None:
        return _with_level(solve_ma(problem, config, normalization), [], None)
    # a constant shift of the guess moves no dd^c: the coarse level skips
    # the normalization
    coarse = _solve_levels(problem_at, problem_at(coarse_n), max_frequency, config,
                           NO_NORMALIZATION)
    levels, coarse_phi = coarse.diagnostics["levels"], coarse.phi
    del coarse
    # the guess is passed, not kept: solve_ma frees it once it has its copy
    sol = solve_ma(problem, config, normalization,
                   initial_guess=prolong(coarse_phi, problem.chart.grid.shape))
    start = sol.diagnostics["residual_history"][0] if sol.newton_iters else sol.residual_sup
    return _with_level(sol, levels, start)


def _with_level(sol, levels, start) -> MASolution:
    """sol with diagnostics["levels"]: the levels below and the record of its own."""
    trace = sol.diagnostics
    trace["levels"] = levels + [{"grid_n": sol.problem.chart.grid.N,
                                 "newton_iters": sol.newton_iters,
                                 "matvecs": sum(trace["linear_iterations"]),
                                 "start_residual": start}]
    return sol


def _laplacian_of_potential(g, h) -> np.ndarray:
    """Delta_g phi = g^{b a} phi_ab for the phi with phi_ab = (h - g)_ab.

    At n = 2 the sum is taken from the real Hessian weights of g, one pair
    of weights at a time, with no inverse of g, and one slab of the first
    axis at a time, so the weights and the parts take a slab each.  At
    n = 1 it stays complex: g_00 may carry an imaginary rounding residue,
    which 1/g_00 folds in.
    """
    if not isinstance(g, Herm2):
        return (herm_inverse(g)[0, 0] * (h[0, 0] - g[0, 0])).real
    lap = np.zeros(np.shape(g.g00))
    for i, lap_slab in enumerate(lap):
        g_slab = Herm2(g.g00[i], g.g11[i], g.g01[i])
        h_slab = Herm2(h.g00[i], h.g11[i], h.g01[i])
        part = np.empty_like(lap_slab)
        for (a, b), w_re, w_im in hessian_weights(g_slab):
            np.subtract(h_slab[a, b].real, g_slab[a, b].real, out=part)
            part *= w_re
            lap_slab += part
            if w_im is not None:
                np.subtract(h_slab[a, b].imag, g_slab[a, b].imag, out=part)
                part *= w_im
                lap_slab += part
    return lap


def linearized_solve(h: np.ndarray, chart: FiberChart, epsilon: float, R: np.ndarray,
                     config: SolverConfig | None = None,
                     solvability_tol: float = 1e-9,
                     diagnostics: dict | None = None) -> np.ndarray:
    """Solve -Delta_h u + eps u = R; mean-zero (det h weighted) branch at eps = 0.

    If diagnostics is given, its "linear_fallbacks" count (see solve_ma) is
    increased by the Krylov solves of this call accepted on the fallback.
    """
    config = config or SolverConfig()
    if not herm_min_eig(h) > 0:
        raise DefinitenessError("linearized solve needs positive-definite h")
    det = herm_det(h)
    if epsilon == 0:
        compat = abs(complex(np.mean(R * det))) / max(1.0, float(np.max(np.abs(R * det))))
        if compat > solvability_tol:
            raise NormalizationError(
                f"eps = 0 linearized problem violates solvability ({compat:.3e})")
    u, fallbacks, _, _ = _linear_solve(h, chart, epsilon, -np.asarray(R), config,
                                       det_h=det.real)
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

    def cross(self, at=(0, 0)) -> tuple:
        """The five-point cross around a stencil key: all that the differences read."""
        i, j = at
        return ((i, j), (i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))

    # central differences at fixed grid point of a stack of values by key

    def _d_re_im(self, stack: dict, at):
        i, j = at
        d_re = (stack[(i + 1, j)] - stack[(i - 1, j)]) / (2 * self.h_s)
        d_im = (stack[(i, j + 1)] - stack[(i, j - 1)]) / (2 * self.h_s)
        return d_re, d_im

    def ds(self, stack: dict, at=(0, 0)):
        d_re, d_im = self._d_re_im(stack, at)
        return (d_re - 1j * d_im) / 2.0

    def dsbar(self, stack: dict, at=(0, 0)):
        d_re, d_im = self._d_re_im(stack, at)
        return (d_re + 1j * d_im) / 2.0

    def dsdsbar(self, stack: dict, at=(0, 0)):
        i, j = at
        f0 = stack[(i, j)]
        d2_re = (stack[(i + 1, j)] - 2 * f0 + stack[(i - 1, j)]) / self.h_s ** 2
        d2_im = (stack[(i, j + 1)] - 2 * f0 + stack[(i, j - 1)]) / self.h_s ** 2
        return (d2_re + d2_im) / 4.0


@dataclass
class AssembledRho:
    """Fiberwise Ricci-flat (or eps-regularized) form assembled on a stencil.

    omega is the model form at the center; solutions holds the solve at
    each stencil point, whose problem has that point's chart and fiber
    metric (Family.fiber_metric) and whose h is rho's fiber block there.
    """

    family: Family
    stencil: BaseStencil
    eps: float
    normalization: str
    form: FamilyForm
    omega: FamilyForm
    solutions: dict

    @property
    def phi(self) -> np.ndarray:
        return self.solutions[(0, 0)].phi

    def phi_stack(self) -> dict:
        return {k: sol.phi for k, sol in self.solutions.items()}


def solve_stencil(family: Family, stencil: BaseStencil, eps: float = 0.0,
                  config: SolverConfig | None = None,
                  normalization: str = KE_VOLUME) -> dict:
    """MA solves on every stencil point, each from its fiber metric.

    Returns the solutions by stencil key.  For eps > 0 the outer points are
    warm-started from the center; at eps = 0 every point starts from phi = 0
    (an elliptic fiber then needs one exact Newton step).
    """
    config = config or SolverConfig()
    offsets = sorted(stencil.offsets(), key=lambda ij: (max(abs(ij[0]), abs(ij[1])), ij))
    solutions = {}
    warm = None
    for key in offsets:
        problem = ricci_flat_problem(family.fiber_metric(stencil.point(*key)), eps)
        sol = solve_ma(problem, config, normalization=normalization, initial_guess=warm)
        solutions[key] = sol
        if key == (0, 0) and eps > 0:
            warm = sol.phi
    return solutions


def assemble_form(om: FamilyForm, stencil: BaseStencil, solutions: dict,
                  at=(0, 0)) -> FamilyForm:
    """rho = om + dd^c phi at the stencil key at, for the model form om there.

    The fiber block is the solved metric h there.  The mixed components are
    om's y-structure plus_ddc the central differences of phi at fixed grid
    point, which read dzbar phi on the five-point cross around at only.
    """
    chart = solutions[at].problem.chart
    phis = {k: solutions[k].phi for k in stencil.cross(at)}
    dzb = {k: d_zbar(phis[k], solutions[k].problem.chart) for k in phis}
    taup = om.ystruct.taup
    # q1 reads (d_sbar phi)_z only where tau' != 0 (YStructure.plus_ddc)
    dsbar_z = d_z(stencil.dsbar(phis, at), chart) if taup != 0 else None
    ys = om.ystruct.plus_ddc(chart.tau - np.conj(chart.tau), stencil.ds(dzb, at), dsbar_z,
                             dzb[at], stencil.dsdsbar(phis, at))
    return ys.form(chart, stencil.point(*at), solutions[at].h)


def fiberwise_ricci_flat(family: Family, stencil: BaseStencil, eps: float = 0.0,
                         config: SolverConfig | None = None,
                         normalization: str = KE_VOLUME) -> AssembledRho:
    """Assemble rho = omega + dd^c phi at the stencil center.

    Fiber components are spectral; mixed components use central differences
    at fixed z through the chart chain rule D_s = d/ds|grid - tau' y d/dz.
    The model form is built at the center only, and assemble_form adds
    dd^c phi to it.
    """
    if family.n != 1:
        raise GeometryError("the family pipeline assembles n = 1 fibrations only")
    solutions = solve_stencil(family, stencil, eps, config, normalization)
    om0 = family.omega(stencil.center)
    return AssembledRho(family=family, stencil=stencil, eps=eps,
                        normalization=normalization,
                        form=assemble_form(om0, stencil, solutions), omega=om0,
                        solutions=solutions)


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
        chart, gab = sol.problem.chart, sol.problem.gab
        vol = fiber_integral(np.ones(chart.grid.shape), chart, metric=gab)
        a_val = fiber_integral(sol.phi, chart, metric=gab) / vol
        A[key] = a_val
        psi[key] = sol.phi - a_val
        psi_residuals[key] = abs(fiber_integral(psi[key], chart, metric=gab)) / vol
    ddc_a = rho.stencil.dsdsbar({k: complex(v) for k, v in A.items()})
    return {"A": A, "psi": psi, "psi_integral_residual": psi_residuals,
            "ddc_A": complex(ddc_a)}


# -- the eps continuation path ------------------------------------------------


@dataclass
class EpsilonPath:
    """order is the fitted decay order of sup |phi_eps - phi_0| in eps; None
    with fewer than two eps > 0 rows, or when one of their differences is not
    positive and has no logarithm."""

    schedule: tuple
    solutions: list
    table: list
    order: float | None
    c_normalization: float
    sup_phi_max: float
    sup_lap_max: float


def ke_identity_residual(phi: np.ndarray, eps: float, weight: np.ndarray | float) -> float:
    """Residual of the fiber equation at eps > 0, integrated over the fiber.

    Integrating (omega + dd^c phi)^n = e^(eps phi + eta) omega^n gives
    int (e^(eps phi) - 1) e^eta omega^n = 0, as dd^c phi is exact and
    int e^eta omega^n = int omega^n.  With weight the density e^eta det g (a
    field, or the number vol g of a Ricci-flat problem),
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

    base = ricci_flat_problem(family.fiber_metric(s), 0.0)
    chart = base.chart
    # the Ricci-flat density e^eta det g is the number vol g
    weight = float(np.mean(herm_det(base.gab, real=True)))

    solutions, table = [], []
    warm = None
    for eps in schedule:
        problem = base if eps == 0 else replace(base, epsilon=eps)
        try:
            sol = solve_ma(problem, config, normalization=KE_VOLUME, initial_guess=warm)
        except SolverDivergence as exc:
            raise SolverDivergence(
                f"continuation aborted at eps = {eps}: {exc}; "
                f"{len(solutions)} solves completed", residual=exc.residual) from exc
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

    if schedule[-1] == 0.0:
        phi0 = solutions[-1].phi
    else:
        phi0 = solve_ma(base, config, normalization=KE_VOLUME, initial_guess=warm).phi
    for row, sol in zip(table, solutions):
        row["sup_diff_to_limit"] = float(np.max(np.abs(sol.phi - phi0)))

    pos = [(row["eps"], row["sup_diff_to_limit"], abs(row["ke_integral"]))
           for row in table if row["eps"] > 0]
    order = None
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
