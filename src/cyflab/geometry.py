"""Charts, grids and spectral calculus on families of flat complex tori.

A fiber is the real torus [0,1)^{2n} carrying the complex structure
z^a = x_a + sum_b Omega_ab y_b, with Omega the period matrix (a single
modulus tau when n = 1).  All fields are sampled on a uniform grid and
treated as trigonometric polynomials, so derivatives, Laplacian inverses
and quadrature are exact below the Nyquist frequency.

Conventions used throughout the package:

* d^c = (i/2)(d' - d''), so that dd^c applied to a scalar has the plain
  mixed second derivatives as its components.
* A real (1,1)-form is stored through its component matrix in admissible
  coordinates; the fiber block g_ab means g_{alpha beta-bar}.
* Volumes use the (i/2)^n pairing, i.e. the coordinate measure of a fiber
  is det(Im Omega) and integrating a density f against a metric g gives
  mean(f * det g) * det(Im Omega).
* c_n = i^{n^2} is the positivity constant for pairing (n,0)-forms.

This module is the package's only spectral layer: every Fourier transform
goes through the functions below, with scipy.fft as the backend.  Operators
that map real fields to real fields (dd^c, real even Fourier multipliers)
take a real field through real transforms on the half spectrum (last axis
0..N/2), which suffices because its spectrum is Hermitian.  Complex fields,
and the complex-valued d/dz and d/dzbar, use full complex transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft


class GeometryError(ValueError):
    """Base class for chart/field consistency failures."""


class DefinitenessError(GeometryError):
    """A Hermitian object that must be positive-definite is not."""


class NormalizationError(GeometryError):
    """A field violates a required normalization (e.g. nonzero mean)."""


class InvalidFieldError(GeometryError):
    """A field contains non-finite or structurally invalid values."""


def fft(f: np.ndarray) -> np.ndarray:
    """Full complex spectrum of a field (all axes)."""
    return scipy.fft.fftn(f)


def ifft(fh: np.ndarray) -> np.ndarray:
    return scipy.fft.ifftn(fh)


def rfft(f: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field: the last axis keeps frequencies 0..N/2."""
    return scipy.fft.rfftn(f)


def irfft(fh: np.ndarray, shape: tuple) -> np.ndarray:
    """Real field of the given grid shape from a Hermitian half spectrum."""
    return scipy.fft.irfftn(fh, s=shape)


def fourier_multiply(f: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier mult (full grid, real and even in k) to f.

    Such a multiplier maps real fields to real fields, so a real f goes
    through the half spectrum and gives a real result; a complex f gives
    a complex result.
    """
    if np.iscomplexobj(f):
        return ifft(fft(f) * mult)
    return irfft(rfft(f) * mult[..., : f.shape[-1] // 2 + 1], f.shape)


@dataclass(frozen=True)
class FiberGrid:
    """Uniform N^(2n) lattice on [0,1)^{2n} with its spectral index set.

    Real axes are ordered (x_1, y_1, ..., x_n, y_n).
    """

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise GeometryError(f"fiber complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise GeometryError(f"grid size must be even and >= 8, got {self.N}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def num_nodes(self) -> int:
        return self.N ** (2 * self.n)

    @cached_property
    def coords(self) -> list:
        """Coordinate arrays, one per real axis, each of full grid shape."""
        t = np.arange(self.N) / self.N
        return list(np.meshgrid(*([t] * 2 * self.n), indexing="ij"))

    @cached_property
    def freqs(self) -> list:
        """Integer frequencies per axis, broadcast to full grid shape."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        return list(np.meshgrid(*([k] * 2 * self.n), indexing="ij"))

    @cached_property
    def deriv_freqs(self) -> list:
        """Frequencies with the Nyquist mode zeroed (for odd derivatives)."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        k[self.N // 2] = 0.0
        return list(np.meshgrid(*([k] * 2 * self.n), indexing="ij"))

    def fft(self, f: np.ndarray) -> np.ndarray:
        return fft(f)

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return ifft(fh)

    def mean(self, f: np.ndarray) -> complex:
        return complex(np.mean(f))


@dataclass(frozen=True)
class FiberChart:
    """Complex structure z = x + Omega y on the torus [0,1)^{2n}.

    For n = 1 the period matrix is [[tau]] with Im tau > 0; for n = 2 it is
    a symmetric matrix with positive-definite imaginary part.
    """

    n: int
    omega_matrix: np.ndarray
    grid: FiberGrid = field(compare=False)

    @staticmethod
    def make(grid: FiberGrid, tau=None, omega_matrix=None) -> "FiberChart":
        if grid.n == 1:
            if tau is None:
                raise GeometryError("n=1 chart needs a modulus tau")
            om = np.array([[complex(tau)]])
        else:
            om = np.asarray(omega_matrix, dtype=complex)
            if om.shape != (grid.n, grid.n) or not np.allclose(om, om.T):
                raise GeometryError("period matrix must be symmetric n x n")
        im = om.imag
        if np.min(np.linalg.eigvalsh((im + im.T) / 2)) <= 0:
            raise DefinitenessError("Im(period matrix) must be positive-definite")
        return FiberChart(grid.n, om, grid)

    @property
    def tau(self) -> complex:
        if self.n != 1:
            raise GeometryError("tau is only defined for n=1 charts")
        return complex(self.omega_matrix[0, 0])

    @cached_property
    def measure(self) -> float:
        """det(Im Omega): the (i/2)^n dz-volume of the unit cell."""
        return float(np.linalg.det(self.omega_matrix.imag))

    @cached_property
    def dz_coeffs(self) -> np.ndarray:
        """C[a, m] with d/dz^a = sum_m C[a, m] d/dxi_m (axes x1,y1,...)."""
        om = self.omega_matrix
        inv = np.linalg.inv(om - om.conj())
        cx = -om.conj() @ inv      # coefficient of d/dx_b in d/dz^a is cx[b, a]
        cy = inv                   # coefficient of d/dy_b is cy[b, a]
        C = np.zeros((self.n, 2 * self.n), dtype=complex)
        for a in range(self.n):
            for b in range(self.n):
                C[a, 2 * b] = cx[b, a]
                C[a, 2 * b + 1] = cy[b, a]
        return C

    @cached_property
    def z_mult(self) -> list:
        """Fourier multipliers M_a(k) with d/dz^a e_k = M_a(k) e_k."""
        C = self.dz_coeffs
        out = []
        for a in range(self.n):
            m = np.zeros(self.grid.shape, dtype=complex)
            for axis in range(2 * self.n):
                m = m + C[a, axis] * self.grid.deriv_freqs[axis]
            out.append(2j * np.pi * m)
        return out

    def ddc_mult(self, a: int, b: int) -> np.ndarray:
        """Multiplier M_a(k) * (-conj M_b(k)) of f -> f_{alpha beta-bar}."""
        return self.z_mult[a] * (-np.conj(self.z_mult[b]))

    @cached_property
    def ddc_mult_half(self) -> dict:
        """Half-spectrum (Re, Im) parts of the even multipliers ddc_mult(a, b), a <= b.

        For a real field both parts give real inverse transforms: the real
        and imaginary parts of f_{alpha beta-bar}.  The diagonal multipliers
        are real, so their imaginary part is None.
        """
        out = {}
        for a in range(self.n):
            for b in range(a, self.n):
                m = self.ddc_mult(a, b)[..., : self.grid.N // 2 + 1]
                out[a, b] = (m.real.copy(), None if a == b else m.imag.copy())
        return out

    @cached_property
    def flat_inverse_mult(self) -> np.ndarray:
        """Multiplier -1/lambda(k) of the flat Laplacian's inverse, 0 where lambda = 0.

        lambda is flat_symbol(self): f_{alpha alpha-bar} summed over alpha
        has symbol -lambda.  The zeroed modes are its kernel: the constant
        mode and the pure-Nyquist modes that the spectral derivative
        annihilates.
        """
        return _inverse_symbol(flat_symbol(self))

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != self.grid.shape:
            raise InvalidFieldError(f"field shape {f.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(f)):
            raise InvalidFieldError("field contains non-finite values")
        return f


def linear_coeff_derivative(chart: FiberChart, linear: tuple, index: tuple) -> complex:
    """Exact chain-rule derivative of the affine field sum_m linear[m] * xi_m.

    Affine functions of the grid coordinates (such as the coordinate
    monomials x, y, Re z) are not periodic, so their derivatives are taken
    through the chart coefficients rather than the Fourier transform.
    """
    kind, a = index
    row = chart.dz_coeffs[a]
    if kind == "zbar":
        row = np.conj(row)
    elif kind != "z":
        raise GeometryError(f"unknown derivative index {index!r}")
    return complex(sum(row[m] * linear[m] for m in range(2 * chart.n)))


def fiber_derivative(f: np.ndarray, chart: FiberChart, index: tuple,
                     linear: tuple | None = None) -> np.ndarray:
    """Exact spectral derivative in holomorphic fiber coordinates.

    index is ('z', a) or ('zbar', a) with 0 <= a < n.  f must be periodic;
    a field with an affine part sum_m c_m xi_m is passed as its periodic
    remainder together with linear = (c_1, ..., c_2n), whose contribution
    is differentiated exactly through the chart chain rule.
    """
    f = chart.check_field(f)
    kind, a = index
    fh = fft(f)
    m = chart.z_mult[a]
    if kind == "z":
        out = ifft(fh * m)
    elif kind == "zbar":
        out = ifft(fh * (-np.conj(m)))
    else:
        raise GeometryError(f"unknown derivative index {index!r}")
    if linear is not None:
        out = out + linear_coeff_derivative(chart, linear, index)
    return out


def d_z(f, chart, a=0):
    return fiber_derivative(f, chart, ("z", a))


def d_zbar(f, chart, a=0):
    return fiber_derivative(f, chart, ("zbar", a))


def ddc_fiber(f: np.ndarray, chart: FiberChart) -> np.ndarray:
    """Matrix of mixed second derivatives f_{alpha beta-bar}, shape (n,n,grid).

    These are the fiber components of dd^c f.  For real f the matrix is
    Hermitian and is built from the half spectrum: the diagonal and the
    real and imaginary parts of each upper entry are real inverse
    transforms, and each lower entry is the conjugate of its partner.
    """
    f = chart.check_field(f)
    n = chart.n
    out = np.empty((n, n) + f.shape, dtype=complex)
    if np.iscomplexobj(f):
        fh = fft(f)
        for a in range(n):
            for b in range(n):
                out[a, b] = ifft(fh * chart.ddc_mult(a, b))
        return out
    fh = rfft(f)
    for a in range(n):
        out[a, a] = irfft(fh * chart.ddc_mult_half[a, a][0], f.shape)
        for b in range(a + 1, n):
            re_mult, im_mult = chart.ddc_mult_half[a, b]
            out[a, b].real = irfft(fh * re_mult, f.shape)
            out[a, b].imag = irfft(fh * im_mult, f.shape)
            np.conjugate(out[a, b], out=out[b, a])
    return out


def herm_check(g: np.ndarray, tol: float = 1e-13) -> float:
    """Max deviation from conjugate-transpose symmetry of g[a,b] = g_{a b-bar}."""
    n = g.shape[0]
    dev = 0.0
    for a in range(n):
        for b in range(n):
            dev = max(dev, float(np.max(np.abs(g[a, b] - np.conj(g[b, a])))))
    return dev


def herm_inverse(g: np.ndarray) -> np.ndarray:
    """Pointwise inverse gup with sum_b g[a,b] gup[b,c] = delta_ac.

    In index language gup[b, a] = g^{beta-bar alpha}.
    """
    n = g.shape[0]
    if n == 1:
        return 1.0 / g
    if n == 2:
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        inv = np.empty_like(g)
        inv[0, 0] = g[1, 1] / det
        inv[1, 1] = g[0, 0] / det
        inv[0, 1] = -g[0, 1] / det
        inv[1, 0] = -g[1, 0] / det
        return inv
    raise GeometryError(f"unsupported fiber dimension {n}")


def herm_det(g: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    if n == 1:
        return g[0, 0]
    if n == 2:
        return g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    raise GeometryError(f"unsupported fiber dimension {n}")


def herm_min_eig(g: np.ndarray) -> float:
    """Minimum over grid nodes of the smallest eigenvalue of g[a,b]."""
    n = g.shape[0]
    if n == 1:
        return float(np.min(g[0, 0].real))
    if n == 2:
        half_tr = (g[0, 0].real + g[1, 1].real) / 2.0
        rad = np.sqrt(((g[0, 0].real - g[1, 1].real) / 2.0) ** 2 + np.abs(g[0, 1]) ** 2)
        return float(np.min(half_tr - rad))
    raise GeometryError(f"unsupported fiber dimension {n}")


def matrix_min_eig(mat: np.ndarray) -> float:
    """Min eigenvalue over nodes of a stacked Hermitian matrix (m,m,*grid)."""
    m = mat.shape[0]
    flat = mat.reshape(m, m, -1)
    stacked = np.moveaxis(flat, (0, 1), (1, 2))
    vals = np.linalg.eigvalsh(stacked)
    return float(np.min(vals[:, 0]))


def laplace_beltrami(g: np.ndarray, f: np.ndarray, chart: FiberChart) -> np.ndarray:
    """Delta_g f = g^{beta-bar alpha} f_{alpha beta-bar} on the fiber."""
    if herm_min_eig(g) <= 0:
        raise DefinitenessError("laplace_beltrami needs a positive-definite metric")
    gup = herm_inverse(g)
    hess = ddc_fiber(f, chart)
    n = chart.n
    out = np.zeros(chart.grid.shape, dtype=complex)
    for a in range(n):
        for b in range(n):
            out = out + gup[b, a] * hess[a, b]
    return out


def flat_symbol(chart: FiberChart, g_const: np.ndarray | None = None) -> np.ndarray:
    """lambda(k) >= 0 with Delta_g e_k = -lambda(k) e_k for constant g."""
    n = chart.n
    if g_const is None:
        g_const = np.eye(n, dtype=complex)
    gup = np.linalg.inv(np.asarray(g_const, dtype=complex))
    lam = np.zeros(chart.grid.shape, dtype=complex)
    for a in range(n):
        for b in range(n):
            lam = lam + gup[b, a] * chart.z_mult[a] * np.conj(chart.z_mult[b])
    lam = lam.real
    lam[lam < 0] = 0.0
    return lam


def invert_flat_laplacian(f: np.ndarray, chart: FiberChart,
                          g_const: np.ndarray | None = None,
                          mean_tol: float = 1e-10) -> np.ndarray:
    """Solve Delta u = f with mean(u) = 0 for the constant-coefficient metric.

    The source must have (coordinate) mean below mean_tol relative to its size.
    """
    f = chart.check_field(f)
    scale = max(1.0, float(np.max(np.abs(f))))
    if abs(np.mean(f)) > mean_tol * scale:
        raise NormalizationError(
            f"flat Laplacian inversion needs zero-mean source, got mean {np.mean(f):.3e}")
    if g_const is None:
        return fourier_multiply(f, chart.flat_inverse_mult)
    return fourier_multiply(f, _inverse_symbol(flat_symbol(chart, g_const)))


def _inverse_symbol(lam: np.ndarray) -> np.ndarray:
    """-1/lambda where lambda > 0, else 0 (the kernel of the flat Laplacian)."""
    with np.errstate(divide="ignore"):
        return np.where(lam > 0, -1.0 / lam, 0.0)


def fiber_integral(density: np.ndarray, chart: FiberChart,
                   metric: np.ndarray | None = None,
                   volume_density: np.ndarray | None = None,
                   imag_tol: float = 1e-12) -> float:
    """Quadrature of density against a fiber volume, (i/2)^n convention.

    With a metric g the volume form is det(g) * det(Im Omega) dx dy; with an
    explicit volume_density w the measure is w * det(Im Omega) dx dy; with
    neither it is the flat coordinate volume det(Im Omega) dx dy.
    """
    val = fiber_integral_complex(density, chart, metric, volume_density)
    scale = max(1.0, abs(val))
    if abs(val.imag) > imag_tol * scale:
        raise InvalidFieldError(f"fiber integral has imaginary residue {val.imag:.3e}")
    return float(val.real)


def fiber_integral_complex(density, chart: FiberChart, metric=None, volume_density=None):
    density = chart.check_field(np.asarray(density, dtype=complex))
    w = density
    if metric is not None:
        w = w * herm_det(metric)
    if volume_density is not None:
        w = w * volume_density
    return complex(np.mean(w)) * chart.measure

