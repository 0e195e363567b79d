"""The spectral layer: geometry is the only module that transforms, and its
real-field paths agree with the complex ones."""

import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import cyflab
from cyflab.geometry import FiberChart, FiberGrid, ddc_fiber

TRANSFORM_CALL = re.compile(r"\b(?:np|numpy)\.fft\.(?!fftfreq\b)\w+|\bscipy\.fft\b")


def test_only_geometry_transforms():
    src = Path(cyflab.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if TRANSFORM_CALL.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "transforms outside cyflab.geometry:\n" + "\n".join(offenders)


CHARTS = {
    1: FiberChart.make(FiberGrid(1, 16), tau=0.3 + 1.1j),
    2: FiberChart.make(FiberGrid(2, 8), omega_matrix=np.array([[1j, 0.2], [0.2, 1.5j]])),
}


def band_limited_real(chart, seed):
    """Real trigonometric polynomial with frequencies strictly below Nyquist."""
    grid = chart.grid
    rng = np.random.RandomState(seed)
    kmax = grid.N // 2 - 1
    f = np.zeros(grid.shape)
    for _ in range(6):
        k = rng.randint(-kmax, kmax + 1, size=2 * grid.n)
        phase = 2 * np.pi * sum(kk * grid.coords[ax] for ax, kk in enumerate(k))
        f += rng.standard_normal() * np.cos(phase) + rng.standard_normal() * np.sin(phase)
    return f


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 10 ** 6))
def test_real_ddc_matches_complex_path(n, seed):
    chart = CHARTS[n]
    f = band_limited_real(chart, seed)
    real_path = ddc_fiber(f, chart)
    complex_path = ddc_fiber(f.astype(complex), chart)
    # dd^c amplifies f by up to (2 pi k)^2, and its round-off with it: the
    # scale is the larger of f and its hessian
    scale = max(float(np.max(np.abs(f))), float(np.max(np.abs(complex_path))))
    assert np.max(np.abs(real_path - complex_path)) < 1e-13 * scale
