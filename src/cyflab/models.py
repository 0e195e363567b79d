"""Closed-form model families and perturbation potentials.

Three family kinds over a one-dimensional base are provided:

* ``product``            -- fixed modulus tau0, flat fibers;
* ``universal_elliptic`` -- modulus map tau(s) = s over the upper half
  plane, whose unperturbed total-space form is the classical invariant
  metric on the universal family of elliptic curves (the exact oracle);
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DefinitenessError,
    FiberChart,
    FiberGrid,
    GeometryError,
    InvalidFieldError,
    d_z,
    d_zbar,
    ddc_fiber,
    herm_det,
    herm_min_eig,
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
            if c != 0:
                self.terms[key] = self.terms.get(key, 0.0) + c

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
        if not self.terms:
            return 0
        return max(max(abs(v) for v in key[:-2]) for key in self.terms)

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

    def eval(self, grid: FiberGrid, s: complex, waves: dict | None = None) -> np.ndarray:
        """Values on the grid at base point s.

        waves, if given, caches the s-independent fields exp(2 pi i k.xi)
        by k; it must only be shared between evaluations on the same grid.
        """
        if grid.n != self.n:
            raise GeometryError("potential/grid dimension mismatch")
        if self.max_frequency() > grid.N // 2 - 1:
            raise GeometryError("potential frequency exceeds grid Nyquist range")
        out = np.zeros(grid.shape, dtype=complex)
        s = complex(s)
        for key, c in self.terms.items():
            k = key[:-2]
            p, q = key[-2], key[-1]
            wave = None if waves is None else waves.get(k)
            if wave is None:
                wave = _wave(grid, k)
                if waves is not None:
                    waves[k] = wave
            out += c * (s ** p) * (np.conj(s) ** q) * wave
        return out


def _wave(grid: FiberGrid, k: tuple) -> np.ndarray:
    """exp(2 pi i k.xi) on the grid."""
    phase = np.zeros(grid.shape)
    for axis, kv in enumerate(k):
        if kv:
            phase = phase + kv * grid.coords[axis]
    return np.exp(2j * np.pi * phase)


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
        # Fourier waves of chi, shared by its s-derivatives.  Only the n = 1
        # path caches them: an n = 2 wave is a full 4-D field.
        self._waves = {}

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

    def validate_at(self, s: complex):
        if self.n == 1 and self.tau(s).imag <= 0:
            raise DefinitenessError(f"Im tau(s) <= 0 at s = {s}")
        form = self.omega(s)
        me = herm_min_eig(form.gab)
        if me <= 0:
            raise DefinitenessError(
                f"model form loses fiber definiteness at s = {s} (min eig {me:.3e})")

    # -- the Kahler form and its exact derivatives --------------------------

    def omega(self, s: complex) -> "FamilyForm":
        if self.n == 1:
            return self._omega_n1(complex(s))
        return self._omega_n2(complex(s))

    def _omega_n2(self, s: complex) -> "FamilyForm":
        chart = self.chart(s)
        im = chart.omega_matrix.imag
        g0 = np.linalg.inv(im).astype(complex)
        gab = np.zeros((2, 2) + self.grid.shape, dtype=complex)
        for a in range(2):
            for b in range(2):
                gab[a, b] = g0[a, b]
        if not self.chi.is_zero():
            gab = gab + ddc_fiber(self.chi.eval(self.grid, s), chart)
        gsb = np.zeros((2,) + self.grid.shape, dtype=complex)
        gss = np.full(self.grid.shape, self.spec.base_coeff, dtype=complex)
        if not self._chi_s.is_zero():
            chi_s = self._chi_s.eval(self.grid, s)
            for b in range(2):
                gsb[b] = d_zbar(chi_s, chart, b)
            gss = gss + self._chi_ssb.eval(self.grid, s)
        return FamilyForm(chart=chart, s=s, gss=gss, gsb=gsb, gab=gab,
                          provenance="model-plus-potential")

    def _omega_n1(self, s: complex) -> "FamilyForm":
        chart = self.chart(s)
        grid = self.grid
        tau, taup = self.tau(s), self.tau_prime(s)
        v = tau.imag
        D = tau - np.conj(tau)

        gzz = np.full(grid.shape, 1.0 / v, dtype=complex)
        chi_z = None
        if not self.chi.is_zero():
            chi_grid = self.chi.eval(grid, s, self._waves)
            chi_z = d_z(chi_grid, chart)
            gzz = gzz + d_zbar(chi_z, chart)

        # periodic part of g_{s z-bar}; the full component is -tau' y gzz + msz.
        # The chain-rule term (tau'/D) chi_z comes from D_s acting on chi at
        # fixed z and is present whether or not chi depends on s.
        msz = np.zeros(grid.shape, dtype=complex)
        if not self._chi_s.is_zero():
            msz = msz + d_zbar(self._chi_s.eval(grid, s, self._waves), chart)
        if taup != 0 and chi_z is not None:
            msz = msz + (taup / D) * chi_z

        # g_{s s-bar} = |tau'|^2 y^2 gzz + y q1 + q0
        if self.spec.kind == "product":
            base = self.spec.base_coeff
        else:
            base = self.spec.base_coeff * abs(taup) ** 2 / v ** 2
        q0 = np.full(grid.shape, base, dtype=complex)
        q1 = np.zeros(grid.shape, dtype=complex)
        if not self._chi_ssb.is_zero():
            q0 = q0 + self._chi_ssb.eval(grid, s, self._waves)
        if taup != 0 and not self.chi.is_zero():
            chi_zb = d_zbar(chi_grid, chart)
            q1 = (-np.conj(taup)) * msz + abs(taup) ** 2 / D * chi_zb
            if not self._chi_sb.is_zero():
                q1 = q1 - taup * d_z(self._chi_sb.eval(grid, s, self._waves), chart)

        y = grid.coords[1]
        gab = gzz[np.newaxis, np.newaxis]
        gsb = ((-taup) * y * gzz + msz)[np.newaxis]
        gss = abs(taup) ** 2 * y ** 2 * gzz + y * q1 + q0
        imag_dev = float(np.max(np.abs(gss.imag)))
        if imag_dev > 1e-11 * max(1.0, float(np.max(np.abs(gss)))):
            raise InvalidFieldError(f"g_ss-bar has imaginary residue {imag_dev:.3e}")
        form = FamilyForm(chart=chart, s=s, gss=gss, gsb=gsb, gab=gab,
                          provenance="model-plus-potential")
        form.ystruct = YStructure(taup=taup, msz=msz, q1=q1, q0=q0)
        return form

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
        chi_grid = self.chi.eval(self.grid, s, self._waves)
        chi_z = d_z(chi_grid, chart)
        chi_zzb = d_zbar(chi_z, chart)
        if not self._chi_s.is_zero():
            out = out + d_zbar(d_z(self._chi_s.eval(self.grid, s, self._waves), chart), chart)
        if taup != 0:
            out = out + (taup / D) * (d_z(chi_z, chart) - chi_zzb)
        out = out + a_periodic * d_z(chi_zzb, chart)
        return out

    def ds_log_mean_det(self, s: complex) -> complex:
        """Exact c'(s) for the eta normalization constant c(s) = log mean(det g)."""
        if self.n == 1:
            v = self.tau(s).imag
            return self.ds_inv_v(s) * v
        # constant modulus, mean(det g) varies only through chi
        h = 1e-6
        vals = []
        for ds in (h, -h, 1j * h, -1j * h):
            g = self.omega(s + ds).gab
            vals.append(np.log(np.mean(herm_det(g)).real))
        return complex((vals[0] - vals[1]) / (2 * h) - 1j * (vals[2] - vals[3]) / (2 * h)) / 2.0

    def section_norm_sq(self, s: complex) -> float:
        """Quadrature of c_n u ^ conj(u) for the canonical section u = dz^1^...^dz^n."""
        chart = self.chart(s)
        return (2.0 ** self.n) * chart.measure


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
    provenance: str = "model"
    ystruct: YStructure | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.chart.n

    def gbs(self) -> np.ndarray:
        """g_{alpha s-bar} = conj(g_{s alpha-bar})."""
        return np.conj(self.gsb)

    def full_matrix(self) -> np.ndarray:
        """(n+1) x (n+1) component matrix per node, base index first."""
        n = self.n
        out = np.empty((n + 1, n + 1) + self.chart.grid.shape, dtype=complex)
        out[0, 0] = self.gss
        for b in range(n):
            out[0, 1 + b] = self.gsb[b]
            out[1 + b, 0] = np.conj(self.gsb[b])
        out[1:, 1:] = self.gab
        return out

    def fiber_min_eig(self) -> float:
        return herm_min_eig(self.gab)

    def a_periodic(self) -> np.ndarray:
        """Periodic part of the horizontal lift a^z (n = 1)."""
        if self.n != 1:
            raise GeometryError("a_periodic is n=1 machinery")
        if self.ystruct is not None:
            return -self.ystruct.msz / self.gab[0, 0]
        return -self.gsb[0] / self.gab[0, 0]

    def lift_linear(self) -> complex:
        """Constant y-coefficient of the horizontal lift (tau'(s) for families)."""
        return self.ystruct.taup if self.ystruct is not None else 0.0


# -- the closed-form universal elliptic family (the exact oracle) -----------

@dataclass(frozen=True)
class EllipticOracle:
    """Closed forms for the universal family of elliptic curves.

    With y the second grid coordinate and v = Im s:
    h_zz = 1/v, h_sz = -y/v, h_ss = 1/v^2 + y^2/v, c = 1/v^2,
    Theta = |dbar v|^2 = 1/|s - sbar|^2, a = y, dbar a = -1/(s - sbar).
    """

    grid: FiberGrid

    def evaluate(self, which: str, s: complex):
        s = complex(s)
        v = s.imag
        if v <= 0:
            raise DefinitenessError(f"oracle needs Im s > 0, got {s}")
        y = self.grid.coords[1]
        if which == "c":
            return 1.0 / v ** 2
        if which == "theta":
            return 1.0 / abs(s - np.conj(s)) ** 2
        if which == "dbarv_norm2":
            return 1.0 / abs(s - np.conj(s)) ** 2
        if which == "h_zz":
            return np.full(self.grid.shape, 1.0 / v, dtype=complex)
        if which == "h_sz":
            return (-y / v).astype(complex)
        if which == "h_ss":
            return (1.0 / v ** 2 + y ** 2 / v).astype(complex)
        if which == "lift_a":
            return y.astype(complex)
        if which == "dbar_a":
            return complex(-1.0 / (s - np.conj(s)))
        if which == "direct_image_density":
            return 1.0 / v ** 2
        if which == "volume":
            return 1.0
        raise GeometryError(f"unknown oracle quantity {which!r}")

    def form(self, s: complex) -> FamilyForm:
        chart = FiberChart.make(self.grid, tau=complex(s))
        y = self.grid.coords[1]
        v = complex(s).imag
        gzz = np.full(self.grid.shape, 1.0 / v, dtype=complex)
        form = FamilyForm(
            chart=chart, s=complex(s),
            gss=(1.0 / v ** 2 + y ** 2 / v).astype(complex),
            gsb=(-y / v).astype(complex)[np.newaxis],
            gab=gzz[np.newaxis, np.newaxis],
            provenance="model")
        form.ystruct = YStructure(
            taup=1.0,
            msz=np.zeros(self.grid.shape, dtype=complex),
            q1=np.zeros(self.grid.shape, dtype=complex),
            q0=np.full(self.grid.shape, 1.0 / v ** 2, dtype=complex))
        return form

    def invariance_residual(self, s: complex, m: int = 1, n_shift: int = 1) -> float:
        """Deck-transformation invariance of the oracle form, g = (z+n+ms, s).

        The pullback mixes components through dz -> dz + m tau' ds; the
        residual compares the pulled-back matrix at y with the matrix at
        y + m (tau = s here, so tau' = 1).
        """
        s = complex(s)
        v = s.imag
        y = self.grid.coords[1]
        h_zz = 1.0 / v
        h_sz = -y / v
        h_ss = 1.0 / v ** 2 + y ** 2 / v
        ys = y + m
        t_sz = (-ys / v) + m * h_zz
        t_ss = (1.0 / v ** 2 + ys ** 2 / v) + m * (-ys / v) + m * np.conj(-ys / v) + m * m * h_zz
        # n_shift only translates x, which no component depends on
        dev = max(float(np.max(np.abs(t_sz - h_sz))), float(np.max(np.abs(t_ss - h_ss))))
        return dev


def compare_report(computed: dict, expected: dict, tolerances: dict) -> dict:
    """Per-quantity error table with pass/fail against configured tolerances."""
    rows = {}
    ok = True
    for key, tol in tolerances.items():
        got = computed.get(key)
        want = expected.get(key)
        if got is None or want is None:
            rows[key] = {"error": math.nan, "tolerance": tol, "pass": False}
            ok = False
            continue
        err = abs(got - want)
        rel = err / max(1.0, abs(want))
        entry = {"computed": float(np.real(got)), "expected": float(np.real(want)),
                 "error": float(rel), "tolerance": float(tol), "pass": bool(rel <= tol)}
        rows[key] = entry
        ok = ok and entry["pass"]
    return {"rows": rows, "pass": ok}
