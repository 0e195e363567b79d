"""Closed-form model families and perturbation potentials.

Three family kinds over a one-dimensional base are provided:

* ``product``            -- fixed modulus tau0, flat fibers;
* ``universal_elliptic`` -- modulus map tau(s) = s over the upper half
  plane, whose unperturbed total-space form is the classical invariant
  metric on the universal family of elliptic curves;
* ``modulus_map``        -- polynomial modulus map tau(s).

The total-space Kahler form is a semi-flat model plus a base term plus
dd^c of a perturbation potential chi.  chi is a finite Fourier polynomial
in the fiber coordinates with polynomial coefficients in (s, s-bar), so
every derivative of omega is available exactly: fiber derivatives are
spectral (exact below Nyquist) and base derivatives at fixed z follow the
operator identity

    D_s = d/ds|_grid - tau'(s) * y * d/dz        (n = 1),

which holds because the fiber coordinate z = x + tau(s) y drags with s.
Mixed components of the model form carry explicit y-polynomial parts
(they are components of a global form in a y-shifting trivialization);
the pipeline stores them as (periodic array, exact y-structure) pairs.
YStructure.plus_ddc is the one algebra that adds dd^c of an s-dependent
potential to them, and YStructure.form the one that builds g_{s s-bar} and
g_{s z-bar} from them: the model form adds chi with its exact derivatives,
the assembled fiberwise Ricci-flat form (cyflab.masolver.assemble_form)
adds phi with its stencil differences.

Family.fiber_metric is the fiber block g_{alpha beta-bar} of omega alone,
which is all that a fiber solve reads.

Family.ricci_flat_closed_form is every family's exact eps = 0 answer: the
Ricci-flat fiber metric is constant, so the solve, the assembled form and
its curvatures follow from tau, tau', base_coeff and the fiber mean of chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    DefinitenessError,
    FiberChart,
    FiberGrid,
    GeometryError,
    Herm2,
    InvalidFieldError,
    herm_bordered,
    herm_min_eig,
    linear_coeff_derivative,
)


class FourierPoly:
    """Finite sum of c * exp(2 pi i k.xi) * s^p * sbar^q terms.

    Keys are (k_1, ..., k_{2n}, p, q) with integer frequencies k and
    nonnegative powers p, q.  Realness of the represented function is
    equivalent to closure under (k, p, q) -> (-k, q, p) with conjugated
    coefficients.
    """

    def __init__(self, n: int = 1, terms: dict | None = None):
        self.n = n
        self.klen = 2 * n
        self.terms = {}
        for key, c in (terms or {}).items():
            key = tuple(int(v) for v in key)
            if len(key) != self.klen + 2:
                raise GeometryError(f"potential term key {key} has wrong length")
            if key[-1] < 0 or key[-2] < 0:
                raise GeometryError(f"potential powers must be nonnegative in {key}")
            c = complex(c)
            if not np.isfinite(c):
                raise GeometryError(f"potential coefficient of {key} is not finite")
            if c != 0:
                self.terms[key] = self.terms.get(key, 0.0) + c
        # terms are fixed from here on, so their largest |k_m| is too
        self._max_frequency = max((max(abs(v) for v in key[:-2]) for key in self.terms),
                                  default=0)

    @staticmethod
    def zero(n: int = 1) -> "FourierPoly":
        return FourierPoly(n, {})

    @staticmethod
    def real_cosine(n: int, k: tuple, s_poly: dict, amplitude: float) -> "FourierPoly":
        """amplitude * cos(2 pi k.xi) * sum_{p,q} s_poly[p,q] s^p sbar^q.

        s_poly must itself describe a real base function (closed under
        (p, q) swap with conjugation); the cosine closure is added here.
        """
        terms = {}
        for (p, q), c in s_poly.items():
            kk = tuple(k)
            nk = tuple(-v for v in k)
            terms[kk + (p, q)] = terms.get(kk + (p, q), 0.0) + amplitude * complex(c) / 2.0
            terms[nk + (p, q)] = terms.get(nk + (p, q), 0.0) + amplitude * complex(c) / 2.0
        return FourierPoly(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def realness_residual(self) -> float:
        dev = 0.0
        for key, c in self.terms.items():
            k = key[:-2]
            p, q = key[-2], key[-1]
            mirror = tuple(-v for v in k) + (q, p)
            dev = max(dev, abs(c - np.conj(self.terms.get(mirror, 0.0))))
        return dev

    def max_frequency(self) -> int:
        return self._max_frequency

    def ds(self) -> "FourierPoly":
        out = {}
        for key, c in self.terms.items():
            p = key[-2]
            if p > 0:
                nk = key[:-2] + (p - 1, key[-1])
                out[nk] = out.get(nk, 0.0) + p * c
        return FourierPoly(self.n, out)

    def dsbar(self) -> "FourierPoly":
        out = {}
        for key, c in self.terms.items():
            q = key[-1]
            if q > 0:
                nk = key[:-2] + (key[-2], q - 1)
                out[nk] = out.get(nk, 0.0) + q * c
        return FourierPoly(self.n, out)

    def eval(self, grid: FiberGrid, s: complex, waves: dict | None = None,
             chart: FiberChart | None = None, derivs: tuple = ()) -> np.ndarray:
        """Values on the grid at base point s, or of a fiber derivative.

        derivs lists fiber derivative indices ('z', a) / ('zbar', a) of the
        chart to apply.  They act term by term through the symbol
        2 pi i sum_m C[a, m] k_m of d/dz^a at frequency k (its conjugate
        form for d/dzbar^a), so the result is exact, with no transform;
        the frequencies lie below Nyquist, where the spectral derivative
        has the same symbol.  waves, if given, caches the s-independent
        fields exp(2 pi i k.xi) by k; it must only be shared between
        evaluations on the same grid.
        """
        if grid.n != self.n:
            raise GeometryError("potential/grid dimension mismatch")
        if self.max_frequency() > grid.N // 2 - 1:
            raise GeometryError("potential frequency exceeds grid Nyquist range")
        s = complex(s)
        coeffs = {}
        for key, c in self.terms.items():
            k = key[:-2]
            coeffs[k] = coeffs.get(k, 0.0) + c * s ** key[-2] * np.conj(s) ** key[-1]
        out = np.zeros(grid.shape, dtype=complex)
        for k, c in coeffs.items():
            for index in derivs:
                c = c * 2j * np.pi * linear_coeff_derivative(chart, k, index)
            if c == 0:
                continue
            wave = None if waves is None else waves.get(k)
            if wave is None:
                wave = _wave(grid, k)
                if waves is not None:
                    waves[k] = wave
            out += c * wave
        return out


def _wave(grid: FiberGrid, k: tuple) -> np.ndarray:
    """exp(2 pi i k.xi), as a product of per-axis factors broadcast to the grid.

    Axes with k_m = 0 keep length 1, so a wave along one axis is a 1-D array.
    """
    t = np.arange(grid.N) / grid.N
    wave = np.ones((1,) * len(k), dtype=complex)
    for axis, kv in enumerate(k):
        if kv:
            shape = [1] * len(k)
            shape[axis] = grid.N
            wave = wave * np.exp(2j * np.pi * (kv * t)).reshape(shape)
    return wave


VALID_KINDS = ("product", "universal_elliptic", "modulus_map")


@dataclass
class FamilySpec:
    """Declarative description of a torus fibration over a base patch."""

    kind: str
    n: int = 1
    tau0: complex = 1j                      # product kind
    modulus_coeffs: tuple = (0.0, 1.0)      # modulus_map: tau(s) = sum c_j s^j
    omega_matrix: np.ndarray | None = None  # n = 2 product fibers
    chi: FourierPoly | None = None
    base_coeff: float = 1.0
    grid_n: int = 64
    base_samples: tuple = (1j,)

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise GeometryError(f"unknown family kind {self.kind!r}")
        if self.n not in (1, 2):
            raise GeometryError("family fiber dimension must be 1 or 2")
        if self.n == 2 and self.kind != "product":
            raise GeometryError("n=2 families support only the product kind")
        if self.chi is None:
            self.chi = FourierPoly.zero(self.n)
        if self.chi.n != self.n:
            raise GeometryError("potential dimension does not match family")
        if self.chi.realness_residual() > 1e-13:
            raise GeometryError("potential chi is not real (conjugation closure fails)")
        if self.base_coeff <= 0:
            raise GeometryError("base_coeff must be positive")


def make_family(spec: FamilySpec) -> "Family":
    """Validated family object consumable by the solver pipeline."""
    fam = Family(spec)
    for s in spec.base_samples:
        fam.validate_at(complex(s))
    return fam


class Family:
    """A torus fibration with exact derivative data for its Kahler form."""

    def __init__(self, spec: FamilySpec):
        self.spec = spec
        self.n = spec.n
        self.grid = FiberGrid(spec.n, spec.grid_n)
        if spec.kind == "product":
            self._coeffs = (complex(spec.tau0),)
        elif spec.kind == "universal_elliptic":
            self._coeffs = (0.0, 1.0)
        else:
            self._coeffs = tuple(complex(c) for c in spec.modulus_coeffs)
        self.chi = spec.chi
        self._chi_s = self.chi.ds()
        self._chi_sb = self.chi.dsbar()
        self._chi_ssb = self._chi_s.dsbar()
        # Fourier waves of chi, shared by its s- and fiber derivatives.  Only
        # the n = 1 path caches them: an n = 2 wave with k_m != 0 on every
        # axis is a full 4-D field.
        self._waves = {}

    def on_grid(self, grid_n: int) -> "Family":
        """The family of the same spec with its fibers sampled on a grid_n grid.

        The base samples are not validated again.
        """
        if grid_n == self.grid.N:
            return self
        return Family(replace(self.spec, grid_n=grid_n))

    # -- modulus -----------------------------------------------------------

    def tau(self, s: complex) -> complex:
        return complex(sum(c * complex(s) ** j for j, c in enumerate(self._coeffs)))

    def tau_prime(self, s: complex) -> complex:
        return complex(sum(j * c * complex(s) ** (j - 1)
                           for j, c in enumerate(self._coeffs) if j > 0))

    def chart(self, s: complex) -> FiberChart:
        if self.n == 1:
            return FiberChart.make(self.grid, tau=self.tau(s))
        return FiberChart.make(self.grid, omega_matrix=self.spec.omega_matrix)

    def validate_at(self, s: complex) -> "FiberMetric":
        """The fiber metric at s, checked positive-definite; DefinitenessError if not."""
        # "not > 0" also rejects NaN
        if self.n == 1 and not self.tau(s).imag > 0:
            raise DefinitenessError(f"Im tau(s) <= 0 at s = {s}")
        fiber = self.fiber_metric(s)
        me = herm_min_eig(fiber.gab)
        if not me > 0:
            raise DefinitenessError(
                f"model form loses fiber definiteness at s = {s} (min eig {me:.3e})")
        return fiber

    # -- the Kahler form and its exact derivatives --------------------------

    def omega(self, s: complex) -> "FamilyForm":
        if self.n == 1:
            return self._omega_n1(complex(s))
        return self._omega_n2(complex(s))

    def fiber_metric(self, s: complex) -> "FiberMetric":
        """The chart and fiber metric g_{alpha beta-bar} = g_0 + dd^c chi at s.

        This is what a fiber solve reads; omega(s) builds its gab here too,
        so the two agree bit for bit.
        """
        s = complex(s)
        chart = self.chart(s)
        grid = self.grid
        if self.n == 1:
            gzz = np.full(grid.shape, 1.0 / self.tau(s).imag, dtype=complex)
            if not self.chi.is_zero():
                gzz = gzz + self._d(self.chi, chart, s, "z", "zbar")
            return FiberMetric(chart=chart, gab=gzz[np.newaxis, np.newaxis])
        g0 = np.linalg.inv(chart.omega_matrix.imag)
        # chi is real, so its fiber hessian is Hermitian: the diagonals are
        # real (the real parts of their complex sums) and g_10 = conj(g_01)
        if self.chi.is_zero():
            return FiberMetric(chart=chart, gab=Herm2(
                np.full(grid.shape, g0[0, 0]), np.full(grid.shape, g0[1, 1]),
                np.full(grid.shape, complex(g0[0, 1]))))

        def hess(a, b):
            return self.chi.eval(grid, s, chart=chart, derivs=(("z", a), ("zbar", b)))
        g00 = hess(0, 0).real + g0[0, 0]
        g11 = hess(1, 1).real + g0[1, 1]
        g01 = hess(0, 1)
        g01 += g0[0, 1]
        return FiberMetric(chart=chart, gab=Herm2(g00, g11, g01))

    def _omega_n2(self, s: complex) -> "FamilyForm":
        fiber = self.fiber_metric(s)
        chart, gab = fiber.chart, fiber.gab
        grid = self.grid
        gsb = np.zeros((2,) + grid.shape, dtype=complex)
        gss = np.full(grid.shape, self.spec.base_coeff, dtype=complex)
        if not self._chi_s.is_zero():
            for b in range(2):
                gsb[b] = self._chi_s.eval(grid, s, chart=chart, derivs=(("zbar", b),))
            gss = gss + self._chi_ssb.eval(grid, s)
        return FamilyForm(chart=chart, s=s, gss=gss, gsb=gsb, gab=gab)

    def _d(self, poly: FourierPoly, chart: FiberChart, s: complex, *derivs) -> np.ndarray:
        """Exact fiber derivative of an n = 1 potential, 'z'/'zbar' in order."""
        return poly.eval(self.grid, s, self._waves, chart, tuple((d, 0) for d in derivs))

    def _omega_n1(self, s: complex) -> "FamilyForm":
        fiber = self.fiber_metric(s)
        chart = fiber.chart
        grid = self.grid
        tau, taup = self.tau(s), self.tau_prime(s)
        D = tau - np.conj(tau)

        # D_s of chi at fixed z drags the chart: d_s chi_zbar gains the
        # chain-rule term (tau'/D) chi_z, whether or not chi depends on s.
        ds_zbar = self._d(self._chi_s, chart, s, "zbar")
        if taup != 0:
            ds_zbar = ds_zbar + (taup / D) * self._d(self.chi, chart, s, "z")
        zero = np.zeros(grid.shape, dtype=complex)
        base = YStructure(taup=taup, msz=zero, q1=zero,
                          q0=np.full(grid.shape, self._base(taup, tau.imag), dtype=complex))
        form = base.plus_ddc(D, ds_zbar, self._d(self._chi_sb, chart, s, "z"),
                             self._d(self.chi, chart, s, "zbar"),
                             self._chi_ssb.eval(grid, s, self._waves)).form(chart, s, fiber.gab)
        imag_dev = float(np.max(np.abs(form.gss.imag)))
        if imag_dev > 1e-11 * max(1.0, float(np.max(np.abs(form.gss)))):
            raise InvalidFieldError(f"g_ss-bar has imaginary residue {imag_dev:.3e}")
        return form

    def _base(self, taup: complex, v: float) -> float:
        """The n = 1 base term of omega: base_coeff, times |tau'|^2 / v^2 off products."""
        if self.spec.kind == "product":
            return self.spec.base_coeff
        return self.spec.base_coeff * abs(taup) ** 2 / v ** 2

    def ricci_flat_closed_form(self, s: complex) -> "RicciFlatClosedForm":
        """The eps = 0 fiberwise Ricci-flat data at s, in closed form.

        On a flat torus the Ricci-flat metric in the class of g = g_0 + dd^c chi
        is the constant h = <g> = g_0, reached by phi = -(chi - <chi>) (mean
        zero: the KE-volume normalization); <chi> is the k = 0 part of chi.  At
        n = 1, rho = tau^* omega_U + (base(s) + d_s d_sbar <chi>) i ds ^ ds-bar
        with the lift a = tau' y: c = base(s) + d_s d_sbar <chi> is also the
        direct image (the fiber volume is 1), Theta(E) = |dbar v|^2 = wp
        = |tau'|^2 / (4 (Im tau)^2) and dbar a = -tau' / (tau - tau-bar).
        Nothing here goes through omega(s): it checks the solve and assembly.
        """
        s = complex(s)
        if self.n == 1 and not self.tau(s).imag > 0:
            raise DefinitenessError(f"Im tau(s) <= 0 at s = {s}")
        osc = FourierPoly(self.n, {key: c for key, c in self.chi.terms.items()
                                   if any(key[:-2])})
        phi = -osc.eval(self.grid, s).real
        if self.n == 2:
            h = np.linalg.inv(self.spec.omega_matrix.imag).astype(complex)
            return RicciFlatClosedForm(phi=phi, h=h)
        tau, taup = self.tau(s), self.tau_prime(s)
        v = tau.imag
        mean = {key[-2:]: c for key, c in self.chi.terms.items() if not any(key[:-2])}
        ddbar_mean = sum(c * p * q * s ** (p - 1) * np.conj(s) ** (q - 1)
                         for (p, q), c in mean.items() if p and q)
        return RicciFlatClosedForm(
            phi=phi, h=np.array([[1.0 / v]], dtype=complex),
            c=self._base(taup, v) + float(np.real(ddbar_mean)),
            theta=abs(taup) ** 2 / (4 * v ** 2),
            dbar_a=-taup / (tau - np.conj(tau)))

    def ds_inv_v(self, s: complex) -> complex:
        """Exact d/ds of 1/Im(tau(s))."""
        v = self.tau(s).imag
        return -self.tau_prime(s) / (2j * v * v)

    def vrho_gzz(self, s: complex, a_periodic: np.ndarray) -> np.ndarray:
        """Exact v_rho(g_{z z-bar}) for a lift a = tau' y + a_periodic (n=1).

        The y-linear parts of D_s g and a dz g cancel; only the periodic
        combination is returned.
        """
        if self.n != 1:
            raise GeometryError("vrho_gzz is n=1 machinery")
        chart = self.chart(s)
        tau, taup = self.tau(s), self.tau_prime(s)
        D = tau - np.conj(tau)
        out = np.full(self.grid.shape, self.ds_inv_v(s), dtype=complex)
        if self.chi.is_zero():
            return out
        if not self._chi_s.is_zero():
            out = out + self._d(self._chi_s, chart, s, "z", "zbar")
        if taup != 0:
            out = out + (taup / D) * (self._d(self.chi, chart, s, "z", "z")
                                      - self._d(self.chi, chart, s, "z", "zbar"))
        out = out + a_periodic * self._d(self.chi, chart, s, "z", "z", "zbar")
        return out

    def ds_log_mean_det(self, s: complex) -> complex:
        """Exact c'(s) for the eta normalization constant c(s) = log mean(det g) (n=1)."""
        if self.n != 1:
            raise GeometryError("ds_log_mean_det is n=1 machinery")
        v = self.tau(s).imag
        return self.ds_inv_v(s) * v

    def section_norm_sq(self, s: complex) -> float:
        """Quadrature of c_n u ^ conj(u) for the canonical section u = dz^1^...^dz^n."""
        chart = self.chart(s)
        return (2.0 ** self.n) * chart.measure


@dataclass(frozen=True)
class RicciFlatClosedForm:
    """Family.ricci_flat_closed_form at one base point; c, theta, dbar_a at n = 1 only."""

    phi: np.ndarray               # the eps = 0 solution, mean zero
    h: np.ndarray                 # the constant Ricci-flat fiber metric, (n, n)
    c: float | None = None        # c(rho), which is also the direct image
    theta: float | None = None    # Theta(E) = |dbar v|^2 = wp = Kodaira-Spencer norm
    dbar_a: complex | None = None


@dataclass(frozen=True)
class FiberMetric:
    """Family.fiber_metric at one base point: the fiber chart and g_{alpha beta-bar}."""

    chart: FiberChart
    gab: np.ndarray | Herm2       # (1, 1, *grid) complex stack at n = 1, Herm2 at n = 2


@dataclass
class YStructure:
    """Exact y-polynomial structure of the mixed components (n = 1).

    g_{s z-bar} = -taup * y * g_{z z-bar} + msz,
    g_{s s-bar} = |taup|^2 y^2 g_{z z-bar} + y * q1 + q0,
    with msz, q1, q0 periodic.
    """

    taup: complex
    msz: np.ndarray
    q1: np.ndarray
    q0: np.ndarray

    def plus_ddc(self, D: complex, ds_zbar, dsbar_z, zbar, dsdsbar) -> "YStructure":
        """The y-structure of this form + dd^c psi, for an s-dependent potential psi.

        The fields are derivatives of psi at a fixed grid point: ds_zbar is
        d_s(psi_zbar), dsbar_z is (d_sbar psi)_z, zbar is psi_zbar and dsdsbar
        is d_s d_sbar psi; D = tau - tau-bar.  D_s = d_s - tau' y d_z splits
        the mixed components of dd^c psi into these y-polynomial parts.
        dsbar_z and zbar enter q1 only, and only where tau' != 0; they may be
        None otherwise.
        """
        taup = self.taup
        q1 = self.q1
        if taup != 0:
            q1 = q1 + (-np.conj(taup)) * ds_zbar - taup * dsbar_z + abs(taup) ** 2 / D * zbar
        return YStructure(taup=taup, msz=self.msz + ds_zbar, q1=q1, q0=self.q0 + dsdsbar)

    def form(self, chart: FiberChart, s: complex, gab: np.ndarray) -> "FamilyForm":
        """The form with fiber block gab whose mixed components have this y-structure."""
        g = gab[0, 0]
        y = chart.grid.coords[1]
        return FamilyForm(chart=chart, s=s,
                          gss=abs(self.taup) ** 2 * y ** 2 * g + y * self.q1 + self.q0,
                          gsb=((-self.taup) * y * g + self.msz)[np.newaxis],
                          gab=gab, ystruct=self)


@dataclass
class FamilyForm:
    """Component matrix of a real (1,1)-form at one base point.

    gss is g_{s s-bar}, gsb[b] is g_{s beta-bar}, gab[a, b] is
    g_{alpha beta-bar}; the remaining components follow by Hermitian
    symmetry.  ystruct, when present, records the exact y-polynomial parts
    of the mixed components of an n=1 family form.
    """

    chart: FiberChart
    s: complex
    gss: np.ndarray
    gsb: np.ndarray
    gab: np.ndarray
    ystruct: YStructure | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.chart.n

    def full_matrix(self) -> np.ndarray:
        """(n+1) x (n+1) component matrix per node, base index first."""
        return herm_bordered(self.gss, self.gsb, self.gab)

    def fiber_min_eig(self) -> float:
        return herm_min_eig(self.gab)

    def a_periodic(self) -> np.ndarray:
        """Periodic part of the horizontal lift a^z (n = 1)."""
        if self.n != 1:
            raise GeometryError("a_periodic is n=1 machinery")
        if self.ystruct is not None:
            return -self.ystruct.msz / self.gab[0, 0]
        return -self.gsb[0] / self.gab[0, 0]


def random_positive_form(rng: np.random.RandomState, grid: FiberGrid,
                         chart: FiberChart) -> FamilyForm:
    """Seeded fiberwise-positive random form with O(1) band-limited entries."""
    n = grid.n

    def band_field(scale=1.0):
        f = np.zeros(grid.shape, dtype=complex)
        for _ in range(4):
            k = rng.randint(-3, 4, size=2 * n)
            amp = (rng.standard_normal() + 1j * rng.standard_normal()) * scale / 4
            f += amp * _wave(grid, tuple(k))
        return f

    upper = {(a, b): band_field(0.25) for a in range(n) for b in range(a, n)}
    diag = [1.5 + upper[a, a].real for a in range(n)]

    def metric():
        if n == 1:
            return diag[0].astype(complex)[np.newaxis, np.newaxis]
        return Herm2(diag[0], diag[1], upper[0, 1])

    # push up the diagonal until comfortably positive
    me = herm_min_eig(metric())
    if me < 0.25:
        for d in diag:
            d += 0.5 - me
    gab = metric()
    gsb = np.stack([band_field(0.5) for _ in range(n)])
    gss = 2.0 + band_field(0.3).real.astype(complex)
    return FamilyForm(chart=chart, s=1j, gss=gss, gsb=gsb, gab=gab)
