"""Spectral Green kernels of -Delta on flat torus fibers.

The Green operator of a constant (Ricci-flat) fiber metric is diagonal in
the Fourier basis with multipliers 1/lambda_k over the nonzero grid
frequencies; the kernel is the translation-invariant synthesis of those
multipliers, normalized so that its fiber integral vanishes.  K(y) is the
negative of the kernel minimum.

An independent Ewald-split evaluation of the continuum kernel (heat-kernel
Poisson summation plus exponential integrals) serves as the oracle for the
truncated-series values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    FiberChart,
    GeometryError,
    Herm2,
    InvalidFieldError,
    fiber_integral,
    flat_symbol,
    fourier_multiply,
    herm_mean,
    ifft,
)


class NonConstantMetricError(GeometryError):
    """Green kernels are built for flat (constant) fiber metrics only."""


@dataclass
class GreenOperator:
    chart: FiberChart
    h_const: np.ndarray          # (n, n) constant fiber metric
    volume: float

    @cached_property
    def lam(self) -> np.ndarray:
        """Half-spectrum multipliers of -Delta_h (operator form)."""
        return flat_symbol(self.chart, self.h_const)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Inverse of -Delta_h on the zero-mean subspace (grid mean removed)."""
        with np.errstate(divide="ignore"):
            inv = np.where(self.lam > 0, 1.0 / self.lam, 0.0)
        return fourier_multiply(np.asarray(f), inv)

    @cached_property
    def _modes(self):
        N = self.chart.grid.N
        half = N // 2 - 1
        dim = 2 * self.chart.n
        axes = [np.arange(-half, half + 1)] * dim
        ks = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        ks = ks[np.any(ks != 0, axis=1)]
        C = self.chart.dz_coeffs
        hup = np.linalg.inv(self.h_const)
        # elementwise, not ks @ C[a]: that matrix-vector product is a BLAS
        # call, which wakes the BLAS worker threads to spin for the rest of
        # the command
        m = [sum(ks[:, i] * C[a, i] for i in range(dim)) for a in range(self.chart.n)]
        lam = np.zeros(len(ks))
        for a in range(self.chart.n):
            for b in range(self.chart.n):
                lam = lam + (4 * np.pi ** 2) * (hup[b, a] * m[a] * np.conj(m[b])).real
        return ks, lam

    def kernel_modes(self):
        """Frequencies below Nyquist and their exact eigenvalues.

        The translation-invariant kernel is the eigenfunction expansion
        sum_k e^{2 pi i k.xi} / lambda_k truncated to the open box
        |k_i| <= N/2 - 1; the true quadratic-form eigenvalues are used,
        so the expansion is a genuine section of the continuum series.
        Computed once per operator.
        """
        return self._modes

    @cached_property
    def _coeff_tensor(self) -> np.ndarray:
        """Dense coefficients 1/(lambda_k vol) indexed by k + N/2 - 1 (0 at k = 0)."""
        ks, lam = self.kernel_modes()
        half = self.chart.grid.N // 2 - 1
        coeff = np.zeros((2 * half + 1,) * ks.shape[1])
        coeff[tuple((ks + half).T)] = 1.0 / (lam * self.volume)
        return coeff

    def kernel(self, resolution: int | None = None) -> np.ndarray:
        """g(xi) = G(xi, 0) sampled on a uniform grid of the given resolution."""
        N = self.chart.grid.N
        R = resolution or 2 * N
        if R < N:
            raise GeometryError("kernel resolution must be at least the grid size")
        dim = 2 * self.chart.n
        ks, lam = self.kernel_modes()
        big = np.zeros((R,) * dim, dtype=complex)
        big[tuple((ks % R).T)] = 1.0 / (lam * self.volume)
        out = ifft(big) * R ** dim
        if np.max(np.abs(out.imag)) > 1e-10 * max(1.0, np.max(np.abs(out))):
            raise InvalidFieldError("Green kernel synthesis has imaginary residue")
        return out.real

    def kernel_at(self, points: np.ndarray) -> np.ndarray:
        """Direct evaluation of the truncated expansion at arbitrary points."""
        ks, lam = self.kernel_modes()
        phase = points @ ks.T
        return (np.exp(2j * np.pi * phase) @ (1.0 / (lam * self.volume))).real

    def kernel_on_tensor_grid(self, axes) -> np.ndarray:
        """The truncated expansion on the tensor grid axes[0] x ... x axes[2n-1].

        The series factors over the real axes, sum_k c_k prod_i e^{2 pi i k_i x_i},
        so it is the dense coefficient tensor contracted with one phase
        table e^{2 pi i x k_i} per axis: the value at (x_0[j_0], ...) is
        entry (j_0, ...) of the result, which equals kernel_at on those points.
        """
        half = self.chart.grid.N // 2 - 1
        k = np.arange(-half, half + 1)
        out = self._coeff_tensor
        for x in axes:
            # contracting the leading mode axis appends this axis' points last
            table = np.exp(2j * np.pi * np.outer(np.asarray(x, dtype=float), k))
            out = np.tensordot(out, table, axes=([0], [1]))
        return out.real


@dataclass
class KBound:
    K: float
    argmin: tuple
    resolution: int


def build_green(h: np.ndarray, chart: FiberChart) -> GreenOperator:
    """Green operator of -Delta_h for a constant positive fiber metric h.

    h may be given as an (n, n) matrix or as a full metric field, in which
    case it must be constant on the fiber up to a relative 1e-8.
    """
    n = chart.n
    if not isinstance(h, Herm2):
        h = np.asarray(h, dtype=complex)
    if h.shape == (n, n):
        h_const = h
    else:
        h_const = herm_mean(h)
        dev = max(float(np.max(np.abs(h[a, b] - h_const[a, b])))
                  for a in range(n) for b in range(n))
        scale = float(np.max(np.abs(h_const)))
        if dev > 1e-8 * scale:
            raise NonConstantMetricError(
                f"fiber metric is not constant (deviation {dev:.3e}); "
                "Green kernels are supported for flat metrics only")
    if np.min(np.linalg.eigvalsh((h_const + h_const.conj().T) / 2)).real <= 0:
        raise GeometryError("Green kernel needs a positive-definite metric")
    volume = float(np.linalg.det(h_const).real) * chart.measure
    return GreenOperator(chart=chart, h_const=h_const, volume=volume)


def k_bound(green: GreenOperator, resolution: int | None = None,
            refine_rounds: int = 3) -> KBound:
    """K = max(0, -min G) of the translation-invariant kernel.

    The coarse minimum over a refined sampling grid is polished by local
    evaluation of the truncated series on shrinking 5^dim tensor grids
    around it, by separability (the minimum is interior and smooth; the
    diagonal singularity is positive in this sign convention).
    """
    R = resolution or 2 * green.chart.grid.N
    kern = green.kernel(R)
    flat_idx = int(np.argmin(kern))
    idx = np.unravel_index(flat_idx, kern.shape)
    best = np.array(idx, dtype=float) / R
    val = float(kern[idx])
    step = 1.0 / R
    offsets = np.arange(-2, 3)
    for _ in range(refine_rounds):
        # the 5^dim points best + offsets * step / 2 form a tensor grid
        axes = [(b + offsets * (step / 2.0)) % 1.0 for b in best]
        vals = green.kernel_on_tensor_grid(axes)
        j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = np.array([x[i] for x, i in zip(axes, j)])
        val = float(vals[j])
        step /= 2.0
    return KBound(K=max(0.0, -val), argmin=tuple(best), resolution=R)


def reproducing_residual(green: GreenOperator, f: np.ndarray) -> float:
    """sup | G(-Delta f) - (f - mean f) | for a smooth test field."""
    chart = green.chart
    neg_lap_f = fourier_multiply(np.asarray(f), green.lam)
    recovered = green.apply(neg_lap_f)
    target = f - np.mean(f)
    return float(np.max(np.abs(recovered - target)))


def kernel_mean_residual(green: GreenOperator) -> float:
    """|int G(., w) dV| (zero by construction; checked by quadrature)."""
    kern = green.kernel(green.chart.grid.N)
    det = np.full(green.chart.grid.shape, np.linalg.det(green.h_const).real)
    val = fiber_integral(kern.astype(complex), green.chart,
                         volume_density=det.astype(complex))
    return abs(val)


# -- Ewald oracle for the continuum kernel (n = 1) ---------------------------


def ewald_kernel(green: GreenOperator, axes, t: float = 0.02,
                 freq_cut: int = 40, image_cut: int = 6) -> np.ndarray:
    """Continuum Green kernel by Ewald splitting (independent of truncation).

    G(xi) = (1/Vol) [ sum_k' e^{2 pi i k.xi} e^{-lambda_k t} / lambda_k
                      + (pi/sqrt(det B)) sum_m E_1(pi^2 d_m^T B^{-1} d_m / t)
                      - t ],
    lambda_k = k^T B k, d_m = xi + m; the reciprocal tail is Gaussian-damped
    and the heat-kernel integral is summed in closed form over images.  The
    result is t-independent up to the cutoffs.  Entry (i, j) is G at
    (axes[0][i], axes[1][j]); one phase table per axis, as in kernel_on_tensor_grid.
    """
    # scipy's E_1 keeps this oracle independent of the code it checks; it is
    # imported here so that the solver's start-up does not load scipy.special
    from scipy.special import exp1

    if green.chart.n != 1:
        raise GeometryError("the Ewald oracle is implemented for n = 1 fibers")
    C = green.chart.dz_coeffs[0]
    hup = 1.0 / green.h_const[0, 0].real
    M = np.array([[abs(C[0]) ** 2, (C[0] * np.conj(C[1])).real],
                  [(C[0] * np.conj(C[1])).real, abs(C[1]) ** 2]])
    B = 4 * np.pi ** 2 * hup * M
    Binv = np.linalg.inv(B)
    detB = np.linalg.det(B)
    x, y = (np.asarray(a, dtype=float) for a in axes)

    k = np.arange(-freq_cut, freq_cut + 1)
    k1, k2 = k[:, None], k[None, :]
    lam = B[0, 0] * k1 * k1 + 2 * B[0, 1] * k1 * k2 + B[1, 1] * k2 * k2
    lam[freq_cut, freq_cut] = 1.0
    recip = np.exp(-lam * t) / lam
    recip[freq_cut, freq_cut] = 0.0          # k = 0 is left out
    for pts in (x, y):
        # contracting the leading mode axis appends this axis' points last
        recip = np.tensordot(recip, np.exp(2j * np.pi * np.outer(pts, k)), axes=([0], [1]))

    m = np.arange(-image_cut, image_cut + 1)
    d1 = (x[:, None] + m)[:, None, :, None]
    d2 = (y[:, None] + m)[None, :, None, :]
    c = np.pi ** 2 * (Binv[0, 0] * d1 * d1 + 2 * Binv[0, 1] * d1 * d2 + Binv[1, 1] * d2 * d2)
    real = (np.pi / np.sqrt(detB)) * exp1(c / t).sum(axis=(2, 3))

    return (recip.real + real - t) / green.volume


def ewald_kernel_min(green: GreenOperator) -> float:
    """Minimum of the continuum kernel: a 48^2 scan polished on four shrinking
    5^2 tensor grids around the best point."""
    coarse = 48
    u = (np.arange(coarse) + 0.5) / coarse
    axes = [u, u]
    step = 1.0 / coarse
    offsets = np.arange(-2, 3)
    for _ in range(5):
        vals = ewald_kernel(green, axes)
        j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = [a[i] for a, i in zip(axes, j)]
        axes = [(b + offsets * (step / 2.0)) % 1.0 for b in best]
        step /= 2.0
    return float(vals[j])
