"""Workload inputs generated from a seed, and the checks on their outputs.

Seed 0 reproduces the README config (and the acceptance-4 n = 2 potential)
exactly.  Any other seed scales each conjugate pair of the elliptic family's
``chi`` coefficients by one factor in [0.8, 1.2] and shifts the base rectangle
by up to +-0.05 in Re s; scaling a pair by one factor keeps the potential
real.  For the n = 2 fiber, any other seed translates the potential by a
random vector of the fiber torus instead: the inputs differ, while the Newton
and Krylov work stays that of seed 0 (scaling it moved the matvec count by up
to 17% between seeds, which a timing of FFT and memory traffic would report
as noise).
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0

README_CHI = [[1, 0, 0, 0, 0.025, 0.0], [-1, 0, 0, 0, 0.025, 0.0],
              [1, 0, 1, 0, 0.0125, 0.0], [1, 0, 0, 1, 0.0125, 0.0],
              [-1, 0, 1, 0, 0.0125, 0.0], [-1, 0, 0, 1, 0.0125, 0.0]]
README_RECT = [-0.2, 0.2, 0.8, 1.2]

# acceptance-4 potential: 0.01 cos 2 pi x_1 + 0.008 cos 2 pi y_2 (axes x1, y1, x2, y2)
N2_CHI = [[1, 0, 0, 0, 0, 0, 0.01, 0.0], [-1, 0, 0, 0, 0, 0, 0.01, 0.0],
          [0, 0, 0, 1, 0, 0, 0.008, 0.0], [0, 0, 0, -1, 0, 0, 0.008, 0.0]]

# Acceptance-2 bound on the geodesic-curvature PDE residual.  The repository
# applies it at s = 0.2 + 1.0i; the residual is stencil truncation that grows
# as Im s falls (9.3e-5 at s = 0.2 + 0.8i on the README family), so it is
# checked on the rows with Im s >= 1 only.
PDE_RESIDUAL_BOUND = 5e-5
PDE_RESIDUAL_MIN_IM = 1.0
# direct_image >= lower_bound holds with equality on the unperturbed family;
# the repository compares with this slack (familygeom.direct_image_report)
DIRECT_IMAGE_TOL = 1e-6


def _scale_pairs(rows, rng):
    """Scale each conjugate pair (k, p, q) ~ (-k, q, p) by one random factor."""
    def pair_key(row):
        k, (p, q) = row[:-4], row[-4:-2]
        mirror = tuple(-v for v in k) + (q, p)
        return min(tuple(row[:-2]), mirror)

    factors = {}
    for key in sorted({pair_key(r) for r in rows}):
        factors[key] = rng.uniform(0.8, 1.2)
    return [r[:-2] + [r[-2] * factors[pair_key(r)], r[-1] * factors[pair_key(r)]]
            for r in rows]


def _translate(rows, rng):
    """Translate the potential by a random a in the fiber torus: c_k -> c_k e^{2 pi i k.a}.

    The factor of -k is the conjugate of that of k, so the potential stays real.
    """
    a = [rng.random() for _ in range(len(rows[0]) - 4)]
    out = []
    for r in rows:
        k = r[:-4]
        c = complex(r[-2], r[-1]) * cmath.exp(2j * math.pi * sum(ki * ai for ki, ai in zip(k, a)))
        out.append(r[:-2] + [c.real, c.imag])
    return out


def elliptic_config(seed: int) -> dict:
    chi, rect = README_CHI, list(README_RECT)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        chi = _scale_pairs(chi, rng)
        shift = rng.uniform(-0.05, 0.05)
        rect = [rect[0] + shift, rect[1] + shift, rect[2], rect[3]]
    return {
        "schema": 1,
        "family": {"kind": "universal_elliptic", "chi": chi,
                   "base": {"rect": rect, "nx": 5, "ny": 5}},
        "solver": {"grid_n": 64, "tol": 1e-11},
        "stencil": {"h_s": 1e-3, "richardson": False},
        "continuation": {"eps_schedule": [1.0, 0.3, 0.1, 0.03, 0.01, 0.0]},
        "outputs": {"dir": "out", "formats": ["json", "csv"]},
        "suites": ["identities", "elliptic", "epsilon", "green", "positivity"],
        "seed": 7,
        "threads": 1,
    }


def fiber_n2_config(seed: int) -> dict:
    chi = N2_CHI
    if seed != DEFAULT_SEED:
        chi = _translate(chi, random.Random(seed))
    return {
        "schema": 1,
        "family": {"kind": "product", "n": 2,
                   "period_matrix": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
                   "chi": chi},
        "solver": {"grid_n": 24, "tol": 1e-11},
        "fiber": {"eps": 0.0},
        "outputs": {"dir": "out", "formats": ["json", "csv"]},
    }


# -- output checks -------------------------------------------------------------
# Each returns a list of failure reasons; a missing or malformed report raises
# OSError, ValueError or KeyError.


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_family(out: Path, cfg: dict) -> list:
    report = _load(out / "family_report.json")
    bad = []
    rows = report["rows"]
    base = cfg["family"]["base"]
    expected = base["nx"] * base["ny"] if "rect" in base else len(base["samples"])
    if len(rows) != expected:
        bad.append(f"{len(rows)} rows, expected {expected}")
    if not report["all_positive"]:
        bad.append("all_positive is false")
    for row in rows:
        s = complex(row["s_re"], row["s_im"])
        if s.imag >= PDE_RESIDUAL_MIN_IM and not row["pde_residual_sup"] < PDE_RESIDUAL_BOUND:
            bad.append(f"pde_residual_sup {row['pde_residual_sup']:.3e} at s={s}")
        if not row["direct_image"] >= row["lower_bound"] - DIRECT_IMAGE_TOL:
            bad.append(f"direct_image < lower_bound at s={s}")
    if not (out / "family.csv").is_file():
        bad.append("family.csv missing")
    return bad


def check_epsilon(out: Path, cfg: dict) -> list:
    report = _load(out / "verify_report.json")
    suite = report["suites"]["epsilon"]
    bad = []
    if not suite["pass"]:
        bad.append("epsilon suite did not pass")
    if not suite["order"] >= 0.95:
        bad.append(f"continuation order {suite['order']:.3f} < 0.95")
    worst = max(row["vphi_integral"] for row in suite["vphi"])
    if not worst < 1e-8:
        bad.append(f"|int v phi rho^n| = {worst:.3e} >= 1e-8")
    return bad


def check_fiber(out: Path, cfg: dict) -> list:
    report = _load(out / "fiber_solution.json")
    diag = report["diagnostics"]
    bad = []
    if not report["residual_sup"] <= cfg["solver"]["tol"]:
        bad.append(f"residual_sup {report['residual_sup']:.3e} above tol")
    if not diag["det_h_constancy"] < 1e-8:
        bad.append(f"det_h_constancy {diag['det_h_constancy']:.3e} >= 1e-8")
    if not diag["volume_residual"] < 1e-10:
        bad.append(f"volume_residual {diag['volume_residual']:.3e} >= 1e-10")
    if not (out / "phi.csv").is_file():
        bad.append("phi.csv missing")
    return bad


def report_digest(out: Path) -> str:
    """One hash over every report file the command wrote, by name."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    def __init__(self, make_config, argv, check, points, reference_threads=None):
        self.make_config = make_config
        self.argv = argv            # CLI words before --config/--out
        self.check = check
        self.points = points        # base points per command
        # an untimed command at this thread count opens every run; its reports
        # must be byte-identical to the timed threads-1 commands
        self.reference_threads = reference_threads

    def command(self, config_path: Path, out: Path, threads: int = 1) -> list:
        argv = list(self.argv) + ["--config", str(config_path), "--out", str(out)]
        if threads != 1:
            argv += ["--threads", str(threads)]
        return argv


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "family": Workload(elliptic_config, ["run-family"], check_family, points=25,
                       reference_threads=2),
    "epsilon": Workload(elliptic_config, ["verify", "--suite", "epsilon"], check_epsilon,
                        points=1),
    "fiber-n2": Workload(fiber_n2_config, ["solve-fiber"], check_fiber, points=1),
}
