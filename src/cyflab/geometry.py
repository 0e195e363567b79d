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
goes through the functions below, with numpy.fft as the backend; each
transform writes its passes into one output array (numpy's fftn, ifftn
and rfftn with out=, and irfftn's passes in place), which saves an
allocation per axis on the 4-D grids of n = 2.  Operators
that map real fields to real fields (dd^c, real even Fourier multipliers)
take a real field through real transforms on the half spectrum (last axis
0..N/2), which suffices because its spectrum is Hermitian; a real
multiplier is a half-spectrum table.  The complex-valued d/dz and d/dzbar,
and dd^c of a complex field, use full complex transforms.  A half
spectrum that vanishes off a band of modes (BandSpectrum: the zero-padded
spectrum of a prolonged field) is synthesized with each complex pass run
over the lines that hold a mode only.  The fiber Laplacian and its
constant-metric symbol are built here for every caller.

A Hermitian fiber field is stored by its independent parts.  At n = 1 it is
the (1, 1, *grid) complex stack of g_00.  At n = 2 it is a Herm2: the real
diagonals g00 and g11 and the complex upper entry g01, with the lower entry
conj(g01) formed only when read.  This module is the only one that
allocates an n = 2 stack or fills a lower entry by conjugation; the others
build a Herm2 from its parts.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


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
    return np.fft.fftn(f, out=np.empty(f.shape, complex))


def ifft(fh: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(fh, out=np.empty(fh.shape, complex))


def rfft(f: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field: the last axis keeps frequencies 0..N/2."""
    return np.fft.rfftn(f, out=np.empty(f.shape[:-1] + (f.shape[-1] // 2 + 1,), complex))


def irfft(fh: np.ndarray, shape: tuple, overwrite: bool = False,
          out: np.ndarray | None = None) -> np.ndarray:
    """Real field of the given grid shape from a Hermitian half spectrum.

    These are numpy's irfftn passes (complex along each axis but the last,
    in order, then real along the last), with the complex passes done in
    place in one buffer: fh itself with overwrite, which a caller that
    passes a spectrum it does not read again can ask for.  out, if given,
    is the real array (a strided view will do) that the last pass writes.
    """
    work = np.fft.ifft(fh, axis=0, out=fh if overwrite else None)
    for axis in range(1, len(shape) - 1):
        np.fft.ifft(work, axis=axis, out=work)
    return np.fft.irfft(work, n=shape[-1], axis=-1, out=out)


def fourier_multiply(f: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a real multiplier, even in k and given on the half spectrum, to f.

    A real f gives a real result; a complex f is taken as Re f + i Im f.
    """
    if np.iscomplexobj(f):
        return fourier_multiply(f.real, mult) + 1j * fourier_multiply(f.imag, mult)
    return irfft(rfft(f) * mult, f.shape)


def drop_nyquist_modes(f: np.ndarray) -> None:
    """Remove f's pure-Nyquist modes other than the constant, in place, in real space.

    A mode whose every frequency is 0 or N/2 equals (-1)^(j.r) at grid
    index j, so it is constant on each of the 2^ndim parity classes of j,
    and these modes span the fields constant on the classes.  Projecting
    them out subtracts the class means; adding back the grid mean keeps
    the constant mode.  This is the Fourier multiplier that is 0 on those
    modes and 1 elsewhere, without a transform.  Each class is the strided
    view f[p_0::2, p_1::2, ...] and is shifted in place.
    """
    grid_mean = np.mean(f)
    for parity in np.ndindex((2,) * f.ndim):
        cls = f[tuple(slice(p, None, 2) for p in parity)]
        cls -= np.mean(cls) - grid_mean


@dataclass(eq=False)
class BandSpectrum:
    """The half spectrum of a real field on a grid of the given shape, zero off a band.

    The band is the product of per-axis index sets: index[m] holds the
    half-spectrum indices of axis m that may carry a nonzero mode, the last
    one a prefix 0 .. w - 1 of the half axis, and coef is the spectrum on
    their product, a compact block.  field() and synthesize() are irfft of
    the zero-padded spectrum, bit for bit, with its passes in its order, but
    each complex pass runs only over the lines that hold a nonzero mode:
    the pass along axis m over the lines whose indices after m lie in the
    band.  The last, real pass runs over every line.  The passes write into
    one work buffer each, allocated once and reused by every synthesis of
    the spectrum; they are freed with it.
    """

    coef: np.ndarray
    index: tuple
    shape: tuple

    def __post_init__(self):
        last = self.index[-1]
        if not np.array_equal(last, np.arange(len(last))):
            raise GeometryError("a band holds a prefix of the half axis")

    @cached_property
    def _work(self) -> list:
        """The pass buffers: full length on the axes already transformed and
        band length after, then the zero-padded half spectrum, whose columns
        past the band stay zero."""
        sizes = tuple(len(i) for i in self.index)
        work = [np.empty(self.shape[:m + 1] + sizes[m + 1:], dtype=complex)
                for m in range(len(self.shape) - 2)]
        work.append(np.zeros(self.shape[:-1] + (self.shape[-1] // 2 + 1,), dtype=complex))
        return work

    def synthesize(self, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The real field whose half spectrum is coef on this band (zero off it).

        out, if given, is the real array (a strided view will do) that the
        last pass writes.
        """
        *passes, half = self._work
        passes.append(half[..., : len(self.index[-1])])
        for axis, buf in enumerate(passes):
            buf[...] = 0.0
            buf[(slice(None),) * axis + (self.index[axis],)] = coef
            np.fft.ifft(buf, axis=axis, out=buf)
            coef = buf
        return np.fft.irfft(half, n=self.shape[-1], axis=-1, out=out)

    def field(self) -> np.ndarray:
        """The real field of this spectrum, a new array."""
        return self.synthesize(self.coef)


def prolong_spectrum(f: np.ndarray, shape: tuple) -> BandSpectrum:
    """The half spectrum of f prolonged to a finer grid of the given shape,
    held on the band of f's modes; its field() is the prolonged field.

    f's half spectrum is zero-padded: each mode k of f with every |k_m| below
    f's Nyquist frequency keeps its coefficient, scaled by the ratio of node
    counts, so the trigonometric polynomial is the same; the Nyquist planes
    of f, which the finer grid would read as two modes, are dropped.  The
    band is the set of the modes kept.
    """
    fh = rfft(f)
    coarse, fine = [], []
    for m, (nc, nf) in enumerate(zip(f.shape, shape)):
        low = np.arange(nc // 2)
        if m == len(shape) - 1:
            coarse.append(low)
            fine.append(low)
        else:
            # frequencies 0 .. nc/2 - 1, then -(nc/2 - 1) .. -1
            high = np.arange(1 - nc // 2, 0)
            coarse.append(np.concatenate([low, high % nc]))
            fine.append(np.concatenate([low, high % nf]))
    return BandSpectrum(fh[np.ix_(*coarse)] * (np.prod(shape) / f.size), tuple(fine),
                        tuple(shape))


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
    def deriv_freq_axes(self) -> tuple:
        """Per-axis frequencies with the Nyquist mode zeroed (for odd derivatives).

        One vector per real axis, shaped to broadcast over the full grid;
        the half spectrum takes the last one's first N/2 + 1 entries.
        """
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        k[self.N // 2] = 0.0
        return tuple(np.meshgrid(*([k] * 2 * self.n), indexing="ij", sparse=True))


def _ddc_product(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """za * (-conj zb) with za the first operand at every array size.

    A complex product's rounding depends on the operand order.  Through the
    * operator numpy reuses a large temporary (-conj zb, from 256 KiB) as
    the output and swaps the operands, so a full table and its half could
    round differently; the ufunc call keeps the order.
    """
    return np.multiply(za, -np.conj(zb))


@dataclass(eq=False)
class Herm2:
    """An n = 2 Hermitian matrix field held by its independent parts.

    g00 and g11 are the real diagonal fields and g01 the complex upper
    entry; the lower entry g10 = conj(g01) is formed only when read, so the
    field takes 4 real fields where a complex (2, 2) stack takes 8.  The
    parts may also be scalars, for a constant matrix.  h[a, b] reads an
    entry, so index sums over a and b run as on an (n, n, *grid) stack; the
    package never converts one to an array.
    """

    g00: np.ndarray
    g11: np.ndarray
    g01: np.ndarray

    @property
    def shape(self) -> tuple:
        """The shape of the (2, 2, *grid) stack it stands for."""
        return (2, 2) + np.shape(self.g00)

    def __getitem__(self, index):
        a, b = index
        if a == b:
            return self.g11 if a else self.g00
        return np.conj(self.g01) if a else self.g01

    def __add__(self, other: "Herm2") -> "Herm2":
        return Herm2(self.g00 + other.g00, self.g11 + other.g11, self.g01 + other.g01)

    def __iadd__(self, other: "Herm2") -> "Herm2":
        for mine, theirs in ((self.g00, other.g00), (self.g11, other.g11),
                             (self.g01, other.g01)):
            np.add(mine, theirs, out=mine)
        return self

    def __array__(self, dtype=None, copy=None):
        """The (2, 2, *grid) complex stack, 8 real fields, built for numpy
        conversion only (such as hashing a metric's bytes)."""
        if copy is False:
            raise ValueError("a Herm2 becomes an array only as a new stack")
        out = np.empty(self.shape, dtype=complex)
        for a in range(2):
            for b in range(2):
                out[a, b] = self[a, b]
        return out if dtype is None else out.astype(dtype, copy=False)


def herm_pack(m) -> Herm2:
    """The Herm2 of a 2 x 2 Hermitian matrix, or of a (2, 2, *grid) stack.

    It keeps the real parts of the diagonal and the upper entry, so the
    imaginary residue of a diagonal and the lower entry are not read.
    """
    m = np.asarray(m)
    return Herm2(np.array(m[0, 0].real), np.array(m[1, 1].real),
                 np.array(m[0, 1], dtype=complex))


def herm_mean(g) -> np.ndarray:
    """The fiber mean of g, an (n, n) complex matrix; g is a (1, 1) stack or a Herm2.

    At n = 2 the diagonal means are summed over complex copies, as the
    off-diagonal one is: numpy blocks the pairwise sum of a complex array
    differently from that of a real one, and a complex (2, 2) stack of g
    gives these bits.  The lower entry is the conjugate of the upper mean,
    which the mean of the conjugate equals exactly.
    """
    if not isinstance(g, Herm2):
        if g.shape[0] != 1:
            raise _unsupported(g)
        return np.array([[np.mean(g[0, 0])]])
    m01 = np.mean(g.g01)
    return np.array([[np.mean(g.g00.astype(complex)), m01],
                     [np.conj(m01), np.mean(g.g11.astype(complex))]])


def herm_bordered(corner: np.ndarray, border: np.ndarray, block) -> np.ndarray:
    """The (n+1, n+1, *grid) complex stack [[corner, border], [border^*, block]].

    corner is a field, border[b] the n fields of the first row past it and
    block the n x n fiber block, read entry by entry; each lower entry of
    the border is the conjugate of its upper one.
    """
    n = border.shape[0]
    out = np.empty((n + 1, n + 1) + np.shape(corner), dtype=complex)
    out[0, 0] = corner
    for b in range(n):
        out[0, 1 + b] = border[b]
        out[1 + b, 0] = np.conj(border[b])
        for a in range(n):
            out[1 + a, 1 + b] = block[a, b]
    return out


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
            tau = complex(tau)
            # a 1 x 1 Im(period matrix) is its own eigenvalue; "not > 0" also
            # rejects NaN
            if not tau.imag > 0:
                raise DefinitenessError("Im(period matrix) must be positive-definite")
            if not cmath.isfinite(tau):
                raise GeometryError(f"period matrix must be finite, got tau = {tau}")
            return FiberChart(1, np.array([[tau]]), grid)
        om = np.asarray(omega_matrix, dtype=complex)
        if om.shape != (grid.n, grid.n) or not np.allclose(om, om.T):
            raise GeometryError("period matrix must be symmetric n x n")
        if not np.all(np.isfinite(om)):
            raise GeometryError("period matrix must be finite")
        im = om.imag
        if not np.min(np.linalg.eigvalsh((im + im.T) / 2)) > 0:
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
        if self.n == 1:
            # the formulas below for a 1 x 1 Omega, in Python complex
            # arithmetic; they give the same bits
            tau = self.tau
            inv = 1 / (tau - tau.conjugate())
            return np.array([[-tau.conjugate() * inv, inv]])
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
    def derivative_rows(self) -> dict:
        """{('z', a): C[a], ('zbar', a): conj C[a]}, each a tuple of Python complex numbers."""
        rows = {}
        for a, row in enumerate(self.dz_coeffs.tolist()):
            rows["z", a] = tuple(row)
            rows["zbar", a] = tuple(c.conjugate() for c in row)
        return rows

    def _freqs(self, index: tuple | None = None) -> tuple:
        """deriv_freq_axes on the half spectrum, or at a band's indices."""
        ks = self.grid.deriv_freq_axes
        if index is None:
            return ks[:-1] + (ks[-1][..., : self.grid.N // 2 + 1],)
        return tuple(np.take(k, i, axis=m) for m, (k, i) in enumerate(zip(ks, index)))

    def _z_mult(self, ks: tuple, a: int) -> np.ndarray:
        """M_a(k) = 2 pi i sum_m C[a, m] k_m at the per-axis frequencies ks.

        The sum runs over per-axis frequency vectors that broadcast to the
        grid (or to its half spectrum, or to a band), so no full-grid
        frequency mesh is built, and each entry is formed by the same
        operations wherever it is evaluated.
        """
        m = np.zeros((1,) * (2 * self.n), dtype=complex)
        for c, k in zip(self.derivative_rows["z", a], ks):
            m = m + c * k
        # 2 pi i * m, scalar first, written over the last sum
        return np.multiply(2j * np.pi, m, out=m)

    def _mode_norm(self, ks: tuple) -> np.ndarray:
        """|M_0(k)|^2 at ks (n = 1), as numpy rounds M_0 conj(M_0).

        Its negation is M_0 (-conj M_0) bit for bit: both complex products
        round the real part of the same exact sum, up to its sign.
        """
        m = self._z_mult(ks, 0)
        return np.multiply(m, np.conj(m), out=m).real.copy()

    @cached_property
    def _mode_norm_half(self) -> np.ndarray:
        """The mode norm on the half spectrum (n = 1)."""
        return self._mode_norm(self._freqs())

    @cached_property
    def z_mult(self) -> list:
        """Fourier multipliers M_a(k) with d/dz^a e_k = M_a(k) e_k."""
        return [self._z_mult(self.grid.deriv_freq_axes, a) for a in range(self.n)]

    def ddc_mult(self, a: int, b: int) -> np.ndarray:
        """Multiplier M_a(k) * (-conj M_b(k)) of f -> f_{alpha beta-bar}."""
        return _ddc_product(self.z_mult[a], self.z_mult[b])

    @cached_property
    def ddc_mult_half(self) -> dict:
        """Half-spectrum (Re, Im) parts of the even multipliers ddc_mult(a, b), a <= b.

        For a real field both parts give real inverse transforms: the real
        and imaginary parts of f_{alpha beta-bar}.  The diagonal multipliers
        are real, so their imaginary part is None.  The tables are built on
        the half spectrum with ddc_mult's elementwise operations (at n = 1,
        the negated mode norm), so they equal the slices [..., :N/2 + 1] of
        its full tables bit for bit.
        """
        return self._ddc_tables(None)

    def ddc_mult_band(self, index: tuple) -> dict:
        """The ddc_mult_half tables at a band's frequencies only (BandSpectrum.index).

        They are built from deriv_freq_axes at those indices with the same
        elementwise operations, so each entry is the matching entry of
        ddc_mult_half bit for bit, and no half-spectrum table is built.
        """
        return self._ddc_tables(index)

    def _ddc_tables(self, index: tuple | None) -> dict:
        """The (Re, Im) tables of ddc_mult(a, b), a <= b, at _freqs(index)."""
        if self.n == 1:
            norm = self._mode_norm_half if index is None else self._mode_norm(self._freqs(index))
            return {(0, 0): (np.negative(norm), None)}
        ks = self._freqs(index)
        # One z table is built at a time, and -conj z_b once.  The products
        # keep _ddc_product's operand order and are written over an operand
        # that is not read again: z_a after its last product, -conj z_b
        # after the diagonal one.
        out = {}
        z = []
        for b in range(self.n):
            z.append(self._z_mult(ks, b))
            nzb = np.conj(z[b])
            np.negative(nzb, out=nzb)
            for a in range(b):
                last = b == self.n - 1
                m = np.multiply(z[a], nzb, out=z[a] if last else None)
                out[a, b] = (m.real.copy(), m.imag.copy())
                if last:
                    z[a] = None
                del m
            m = np.multiply(z[b], nzb, out=nzb)
            out[b, b] = (m.real.copy(), None)
            del m, nzb
        del z
        return {key: out[key] for key in sorted(out)}

    @cached_property
    def flat_inverse_mult(self) -> np.ndarray:
        """Multiplier -1/lambda(k) of the flat Laplacian's inverse, 0 where lambda = 0.

        lambda is flat_symbol(self), on the half spectrum.  The zeroed modes
        are its kernel: the constant mode and the pure-Nyquist modes that
        the spectral derivative annihilates.
        """
        # at n = 1, flat_symbol(self) is the mode norm, bit for bit
        lam = self._mode_norm_half if self.n == 1 else flat_symbol(self)
        return np.divide(-1.0, lam, out=np.zeros(lam.shape), where=lam > 0)

    def check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != self.grid.shape:
            raise InvalidFieldError(f"field shape {f.shape} != grid {self.grid.shape}")
        if not np.isfinite(f).all():
            raise InvalidFieldError("field contains non-finite values")
        return f


def linear_coeff_derivative(chart: FiberChart, linear: tuple, index: tuple) -> complex:
    """Exact chain-rule derivative of the affine field sum_m linear[m] * xi_m.

    Affine functions of the grid coordinates (such as the coordinate
    monomials x, y, Re z) are not periodic, so their derivatives are taken
    through the chart coefficients rather than the Fourier transform.
    """
    row = chart.derivative_rows.get(index)
    if row is None:
        raise GeometryError(f"unknown derivative index {index!r}")
    return complex(sum(c * v for c, v in zip(row, linear)))


def fiber_derivative(f: np.ndarray, chart: FiberChart, index: tuple) -> np.ndarray:
    """Exact spectral derivative in holomorphic fiber coordinates.

    index is ('z', a) or ('zbar', a) with 0 <= a < n.  f must be periodic;
    the affine part of a field is differentiated by linear_coeff_derivative.
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
    return out


def d_z(f, chart, a=0):
    return fiber_derivative(f, chart, ("z", a))


def d_zbar(f, chart, a=0):
    return fiber_derivative(f, chart, ("zbar", a))


def ddc_fiber(f, chart: FiberChart):
    """Matrix of mixed second derivatives f_{alpha beta-bar}.

    These are the fiber components of dd^c f.  For real f the matrix is
    Hermitian and is built from the half spectrum: the diagonal and the
    real and imaginary parts of each upper entry are real inverse
    transforms (ddc_real_fields), each written straight into its part of
    the returned matrix.  At n = 1 it is returned as a (1, 1, *grid)
    complex stack, at n = 2 as a Herm2 holding those parts.  f may also be
    the BandSpectrum of a real field: its spectrum is read as it is, with
    no forward transform.  A complex f gives the (n, n, *grid) complex
    stack of its f_{alpha beta-bar}.
    """
    n = chart.n
    shape = chart.grid.shape
    band = isinstance(f, BandSpectrum)
    if band:
        if f.shape != shape:
            raise InvalidFieldError(f"spectrum of grid {f.shape} != grid {shape}")
    else:
        f = chart.check_field(f)
        if np.iscomplexobj(f):
            out = np.empty((n, n) + shape, dtype=complex)
            fh = fft(f)
            for a in range(n):
                for b in range(n):
                    out[a, b] = ifft(fh * chart.ddc_mult(a, b))
            return out
        # a chart's first dd^c builds its tables: before h exists
        chart.ddc_mult_half
    if n == 2:
        h = Herm2(np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex))
        parts = {(0, 0): (h.g00, None), (1, 1): (h.g11, None),
                 (0, 1): (h.g01.real, h.g01.imag)}
    else:
        h = np.zeros((1, 1) + shape, dtype=complex)
        parts = {(0, 0): (h[0, 0].real, None)}
    for _ in ddc_real_fields(f if band else rfft(f), chart, out=parts):
        pass
    return h


def ddc_real_fields(fh, chart: FiberChart, out: dict | None = None):
    """Yield (a, b, Re f_ab, Im f_ab), a <= b, from the half spectrum fh of a real f.

    Each part is one real inverse transform of fh times a ddc_mult_half
    table; Im f_aa is None, as the diagonal is real.  fh may be a
    BandSpectrum: each part is then one product on its compact block, with
    the tables at its band (ddc_mult_band), and one band synthesis.  out,
    if given, maps (a, b) to the (re, im) arrays (views will do) that those
    transforms write.  This is the one implementation of dd^c on real
    fields: ddc_fiber writes the parts straight into the Hermitian matrix
    it returns, and add_weighted_ddc weights and sums them one pair at a
    time.
    """
    if isinstance(fh, BandSpectrum):
        tables, coef, synthesize = chart.ddc_mult_band(fh.index), fh.coef, fh.synthesize
    else:
        shape = chart.grid.shape
        tables, coef = chart.ddc_mult_half, fh

        def synthesize(x, out):
            return irfft(x, shape, overwrite=True, out=out)
    for (a, b), (re_mult, im_mult) in tables.items():
        re_out, im_out = (None, None) if out is None else out[a, b]
        # the parts are not kept here once yielded
        yield (a, b, synthesize(coef * re_mult, out=re_out),
               None if im_mult is None else synthesize(coef * im_mult, out=im_out))


def _unsupported(g) -> GeometryError:
    return GeometryError("a fiber metric is a (1, 1, *grid) stack (n = 1) or a Herm2 "
                         f"(n = 2), got an array of shape {np.shape(g)}")


def herm_inverse(g) -> np.ndarray:
    """Pointwise inverse gup with sum_b g[a,b] gup[b,c] = delta_ac, an (n, n, *grid) stack.

    In index language gup[b, a] = g^{beta-bar alpha}.  At n = 2 each entry
    is a cofactor over the complex det g (herm_det), so the lower entry is
    -conj(g_01) / det g and need not be the conjugate of the upper one.
    """
    if isinstance(g, Herm2):
        det = herm_det(g)
        inv = np.empty((2, 2) + det.shape, dtype=complex)
        inv[0, 0] = g.g11 / det
        inv[1, 1] = g.g00 / det
        inv[0, 1] = -g.g01 / det
        inv[1, 0] = -np.conj(g.g01) / det
        return inv
    if g.shape[0] == 1:
        return 1.0 / g
    raise _unsupported(g)


def herm_det(g, real: bool = False) -> np.ndarray:
    """Pointwise det g, complex; with real, Re det g as a new real field.

    At n = 2 this is g00 g11 - g01 conj(g01), with the complex product and
    the difference taken in one buffer; numpy's complex product leaves an
    imaginary rounding residue, which the determinant keeps.  The real
    determinant subtracts the real part of the same product from g00 g11,
    forming the product one slab of the first axis at a time, so it holds
    one real field where the complex one takes two and a real temporary.
    """
    if isinstance(g, Herm2):
        if real:
            det = g.g00 * g.g11
            for det_slab, g01 in zip(det, g.g01):
                det_slab -= (g01 * np.conj(g01)).real
            return det
        det = np.conj(g.g01)
        np.multiply(g.g01, det, out=det)
        np.subtract(g.g00 * g.g11, det, out=det)
        return det
    if g.shape[0] == 1:
        return g[0, 0].real.copy() if real else g[0, 0]
    raise _unsupported(g)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def herm_min_eig(g) -> float:
    """Minimum over grid nodes of the smallest eigenvalue of g[a,b].

    At n = 2 this is min (g00 + g11)/2 - sqrt(((g00 - g11)/2)^2 + |g01|^2),
    evaluated in that order of operations, updated in place, in at most two
    fields at once: the radical is formed before the half trace.
    """
    if isinstance(g, Herm2):
        rad = g.g00 - g.g11
        rad /= 2.0
        rad **= 2
        off = np.abs(g.g01)
        off **= 2
        rad += off
        del off
        np.sqrt(rad, out=rad)
        half_tr = g.g00 + g.g11
        half_tr /= 2.0
        half_tr -= rad
        del rad
        bad = ~np.isfinite(half_tr)
        if bad.any():
            # an entry past about 1e154 overflows the square: at such nodes take
            # det / (tr/2 + rad) of the entries scaled by their largest
            a, b, c = g.g00[bad], g.g11[bad], np.abs(g.g01[bad])
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), c)
            a, b, c = a / scale, b / scale, c / scale
            half, rad = (a + b) / 2.0, np.hypot((a - b) / 2.0, c)
            # each form free of cancellation on its side of tr = 0
            low = np.where(half > 0, (a * b - c * c) / (half + rad), half - rad)
            half_tr[bad] = scale * low
        return float(np.min(half_tr))
    if g.shape[0] == 1:
        return float(np.min(g[0, 0].real))
    raise _unsupported(g)


def matrix_min_eig(mat: np.ndarray) -> float:
    """Min eigenvalue over nodes of a stacked Hermitian matrix (m,m,*grid)."""
    m = mat.shape[0]
    flat = mat.reshape(m, m, -1)
    stacked = np.moveaxis(flat, (0, 1), (1, 2))
    vals = np.linalg.eigvalsh(stacked)
    return float(np.min(vals[:, 0]))


def hessian_weights(g):
    """Yield ((a, b), w_re, w_im), a <= b, the real weights of u -> g^{b a} u_ab for real u.

    The sum is sum w_re Re u_ab + w_im Im u_ab (w_im is None on the real
    diagonal); g is a metric field or a constant one.  At n = 2 the
    Hermitian pair (0, 1), (1, 0) folds into -2 conj(g01) / det g, in real
    arithmetic.  The pairs come in the order (0, 0), (1, 1), (0, 1), and
    each weight is built when its pair is yielded, so a caller that sums
    them one at a time holds one pair of weights at once.
    """
    if not isinstance(g, Herm2):
        if g.shape[0] != 1:
            raise _unsupported(g)
        yield (0, 0), 1.0 / g[0, 0].real, None
        return
    h00, h11, h01 = g.g00, g.g11, np.asarray(g.g01)
    # in place, in the order of h00 h11 - (Re h01^2 + Im h01^2)
    abs2 = h01.real ** 2
    abs2 += h01.imag ** 2
    det = np.asarray(h00 * h11)
    det -= abs2
    del abs2
    yield (0, 0), h11 / det, None
    yield (1, 1), h00 / det, None
    # -2 Re h01 / det and -2 Im h01 / det; the factor -2 is exact after the
    # division as before it, and w_im is formed in det's field
    w_re = h01.real / det
    w_re *= -2.0
    w_im = np.divide(h01.imag, det, out=det)
    w_im *= -2.0
    del det
    yield (0, 1), w_re, w_im


def add_weighted_ddc(out: np.ndarray, fh: np.ndarray, chart: FiberChart, weights: dict):
    """out += sum w_re Re f_ab + w_im Im f_ab, fh the half spectrum of f.

    weights is {(a, b): (w_re, w_im)} of hessian_weights, all held at once.
    """
    for a, b, re, im in ddc_real_fields(fh, chart):
        w_re, w_im = weights[a, b]
        re *= w_re
        out += re
        if im is not None:
            im *= w_im
            out += im
        del re, im


def laplace_beltrami(g: np.ndarray, f: np.ndarray, chart: FiberChart) -> np.ndarray:
    """Delta_g f = g^{beta-bar alpha} f_{alpha beta-bar}; a complex f is Re f + i Im f."""
    if not herm_min_eig(g) > 0:
        raise DefinitenessError("laplace_beltrami needs a positive-definite metric")
    f = chart.check_field(f)
    if np.iscomplexobj(f):
        return laplace_beltrami(g, f.real, chart) + 1j * laplace_beltrami(g, f.imag, chart)
    out = np.zeros(chart.grid.shape)
    weights = {key: (w_re, w_im) for key, w_re, w_im in hessian_weights(g)}
    add_weighted_ddc(out, rfft(f), chart, weights)
    return out


def flat_symbol(chart: FiberChart, g_const=None) -> np.ndarray:
    """lambda(k) >= 0 with Delta_g e_k = -lambda(k) e_k for constant g, on the half spectrum.

    g_const is an n x n matrix; None is the identity.
    """
    lam = np.zeros(chart.ddc_mult_half[0, 0][0].shape)
    g = np.eye(chart.n) if g_const is None else np.asarray(g_const)
    for (a, b), w_re, w_im in hessian_weights(herm_pack(g) if chart.n == 2 else g):
        re_mult, im_mult = chart.ddc_mult_half[a, b]
        lam -= w_re * re_mult
        if im_mult is not None:
            lam -= w_im * im_mult
    lam[lam < 0] = 0.0
    return lam


def fiber_integral(density: np.ndarray, chart: FiberChart,
                   metric: np.ndarray | None = None) -> float:
    """Quadrature of density against a fiber volume, (i/2)^n convention.

    With a metric g the volume form is det(g) * det(Im Omega) dx dy; without
    one it is the flat coordinate volume det(Im Omega) dx dy.  The integral
    must be real to 1e-12 of its size.
    """
    val = fiber_integral_complex(density, chart, metric)
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-12 * scale:
        raise InvalidFieldError(f"fiber integral has imaginary residue {val.imag:.3e}")
    return float(val.real)


def fiber_integral_complex(density, chart: FiberChart, metric=None):
    w = chart.check_field(np.asarray(density, dtype=complex))
    if metric is not None:
        w = w * herm_det(metric)
    return complex(np.mean(w)) * chart.measure

