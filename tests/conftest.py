import numpy as np
import pytest

from cyflab.geometry import FiberChart, FiberGrid, herm_pack
from cyflab.models import FamilySpec, FourierPoly, make_family


@pytest.fixture(scope="session")
def grid64():
    return FiberGrid(1, 64)


@pytest.fixture(scope="session")
def square_chart(grid64):
    return FiberChart.make(grid64, tau=1j)


@pytest.fixture(scope="session")
def elliptic_family():
    """Universal elliptic family, unperturbed (the closed-form oracle)."""
    spec = FamilySpec(kind="universal_elliptic", grid_n=64,
                      base_samples=(1j, 0.3 + 0.8j, 2j))
    return make_family(spec)


def perturbation_chi(amplitude=0.05):
    """chi = amplitude * cos(2 pi x) * (1 + Re s): the standard test potential."""
    return FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5},
                                   amplitude)


@pytest.fixture(scope="session")
def perturbed_family():
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=64,
                      base_samples=(1j, 0.2 + 1.0j))
    return make_family(spec)


@pytest.fixture(scope="session")
def product_family():
    spec = FamilySpec(kind="product", tau0=1j, chi=perturbation_chi(), grid_n=64,
                      base_samples=(0.2 + 0.3j,))
    return make_family(spec)


def random_trig_field(rng, grid, kmax=3, terms=6, real=True):
    """Band-limited random field for property tests."""
    f = np.zeros(grid.shape, dtype=complex)
    for _ in range(terms):
        k = rng.randint(-kmax, kmax + 1, size=2 * grid.n)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        phase = sum(kk * grid.coords[ax] for ax, kk in enumerate(k))
        f += amp * np.exp(2j * np.pi * phase)
    return f.real.astype(complex) if real else f


def random_chart_and_metric(rng, n, N):
    """A random fiber chart on an N-grid and a constant positive metric on it."""
    if n == 1:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.6))
        return FiberChart.make(FiberGrid(1, N), tau=tau), \
            np.array([[rng.uniform(0.5, 2.0)]], dtype=complex)
    off = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    om = np.array([[complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4)), off],
                   [off, complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.4))]])
    chart = FiberChart.make(FiberGrid(2, N), omega_matrix=om)
    b = 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return chart, np.array([[rng.uniform(0.8, 1.5), b], [np.conj(b), rng.uniform(0.8, 1.5)]])


def as_metric(g):
    """A test's Hermitian (n, n, *grid) stack or n x n matrix as the library
    stores a fiber metric: unchanged at n = 1, a Herm2 at n = 2."""
    return g if np.shape(g)[0] == 1 else herm_pack(g)
