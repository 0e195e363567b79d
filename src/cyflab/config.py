"""The run configuration: one JSON document, schema 1, unknown keys are errors.

CONFIG_SCHEMA reads, range-checks and defaults each key; parse_config then
applies the rules that relate keys to each other and builds the values the
commands take.  Every report carries the provenance block of its config.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from collections import namedtuple

import numpy as np
import scipy

from . import __version__
from .geometry import GeometryError
from .masolver import KE_VOLUME, NO_NORMALIZATION, REFERENCE_VOLUME, SolverConfig
from .models import VALID_KINDS, FamilySpec, FourierPoly

# the suites verify has, in the order it runs and reports them
KNOWN_SUITES = ("identities", "elliptic", "product", "epsilon", "green",
                "positivity", "convergence")


class ConfigError(ValueError):
    pass


# A reader takes one exact JSON type and returns its Python value; true and
# false are not numbers here, although Python counts a bool as an int.


def _exact(kind, wording: str):
    def read(value, where: str):
        if type(value) is not kind:
            raise ConfigError(f"{where} must be {wording}, got {value!r}")
        return value
    return read


_int = _exact(int, "an integer")
_bool = _exact(bool, "true or false")
_str = _exact(str, "a string")


def _float(value, where: str) -> float:
    # a JSON integer may exceed every float; NaN fails the comparison
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _complex(value, where: str) -> complex:
    re, im = value if isinstance(value, list) and len(value) == 2 else (value, 0)
    return complex(_float(re, where), _float(im, where))


def _list(item):
    """Reader of a JSON list whose entries item reads."""
    def read(value, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return read


def _chi_term(value, where: str) -> tuple:
    """A chi row [k_1, .., k_2n, p, q, re, im] as (integer key, coefficient)."""
    if not isinstance(value, list) or len(value) < 4:
        raise ConfigError(f"{where} must be [k_1, .., k_2n, p, q, re, im], got {value!r}")
    return tuple(_int(v, where) for v in value[:-2]), _complex(value[-2:], where)


# A rule is a pair (check, wording): the range check of a read value and the
# range in words, for errors and the README.
def _one_of(choices, each=False):
    """The value (with each, every entry) is among choices."""
    allowed = set(choices)
    return ((lambda v: set(v) <= allowed) if each else (lambda v: v in allowed),
            ("each " if each else "") + "one of " + ", ".join(map(str, choices)))


def _range(lo, hi=None, open_lo=False):
    """lo <= value (lo < value with open_lo) and, if hi is given, value <= hi."""
    if hi is None:
        wording = f"{'>' if open_lo else '>='} {lo}"
    elif open_lo:
        wording = f"in ({lo}, {hi}]"
    else:
        wording = f"{lo} to {hi}"
    return (lambda v: (lo < v if open_lo else lo <= v) and (hi is None or v <= hi)), wording


# A config key with its reader, default, range check and the range in words.
# The default is JSON, read like a given value; a None default stays None, and
# ... marks a required key.
Key = namedtuple("Key", "read default check allowed", defaults=(None, ""))


def _section(doc, where: str) -> dict:
    """The section at dotted path where, each key read, range-checked and defaulted."""
    table = CONFIG_SCHEMA[where]
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    out = {}
    for name, key in table.items():
        path = name if where == "config" else f"{where}.{name}"
        value = doc.get(name, key.default)
        if value is Ellipsis:
            raise ConfigError(f"{path} is required")
        out[name] = None if name not in doc and value is None else key.read(value, path)
        if out[name] is not None and key.check is not None and not key.check(out[name]):
            raise ConfigError(f"{path} must be {key.allowed}, got {value!r}")
    return out


CONFIG_SCHEMA = {
    "config": {
        "schema": Key(_int, ..., *_one_of((1,))),
        "family": Key(_section, ...),
        "solver": Key(_section, {}),
        "stencil": Key(_section, {}),
        "continuation": Key(_section, {}),
        "outputs": Key(_section, {}),
        "fiber": Key(_section, {}),
        "suites": Key(_list(_str), list(KNOWN_SUITES), lambda v: v and set(v) <= set(KNOWN_SUITES),
                      "non-empty, " + _one_of(KNOWN_SUITES, each=True)[1]),
        "seed": Key(_int, 0, *_range(0, 2 ** 32 - 1)),
        "threads": Key(_int, 1, *_range(1)),
    },
    "family": {
        "kind": Key(_str, ..., *_one_of(VALID_KINDS)),
        "n": Key(_int, 1, *_one_of((1, 2))),
        "tau0": Key(_complex, [0, 1]),
        "modulus_coeffs": Key(_list(_complex), [[0, 0], [1, 0]]),
        "period_matrix": Key(_list(_list(_complex)), None),
        "chi": Key(_list(_chi_term), []),
        "base_coeff": Key(_float, 1.0, *_range(0, open_lo=True)),
        "base": Key(_section, {}),
    },
    "family.base": {
        "samples": Key(_list(_complex), None, bool, "non-empty"),
        "rect": Key(_list(_float), None, lambda v: len(v) == 4, "4 entries"),
        "nx": Key(_int, 5, *_range(1, 100)),
        "ny": Key(_int, 5, *_range(1, 100)),
    },
    "solver": {
        "grid_n": Key(_int, None, *_range(8)),
        "tol": Key(_float, 1e-11, *_range(0, 1e-4, open_lo=True)),
        "max_iters": Key(_int, 50, *_range(1)),
        "damping_floor": Key(_float, 2.0 ** -20, *_range(0, 1, open_lo=True)),
    },
    "stencil": {
        "h_s": Key(_float, 1e-3, *_range(1e-6)),
        "richardson": Key(_bool, False),
    },
    "continuation": {
        "eps_schedule": Key(_list(_float), [1.0, 0.3, 0.1, 0.03, 0.01, 0.0],
                            bool, "non-empty"),
    },
    "outputs": {
        "dir": Key(_str, "out"),
        "formats": Key(_list(_str), ["json", "csv"], *_one_of(("json", "csv", "svg"), each=True)),
    },
    "fiber": {
        "s": Key(_complex, None),
        "eps": Key(_float, 0.0, *_range(0)),
        "normalization": Key(_str, KE_VOLUME,
                             *_one_of((KE_VOLUME, REFERENCE_VOLUME, NO_NORMALIZATION))),
        "manufactured": Key(_section, None),
    },
    "fiber.manufactured": {
        "amplitude": Key(_float, ...),
        "mode": Key(_list(_int), ...),
    },
}


def parse_config(doc) -> dict:
    """The typed run configuration of a JSON document; ConfigError if malformed.
    CONFIG_SCHEMA reads each key, and the rules here relate keys to each other."""
    conf = _section(doc, "config")
    fam, base, fiber = conf["family"], conf["family"]["base"], conf["fiber"]
    n = fam["n"]
    grid_n = conf["solver"]["grid_n"] or (64 if n == 1 else 24)
    # at most 2^20 nodes per field, so grid_n <= 1024 at n = 1 and <= 32 at
    # n = 2, where a grid-32 solve peaks near 190 MB
    if grid_n % 2 or grid_n ** (2 * n) > 2 ** 20:
        raise ConfigError(f"solver.grid_n must be even with grid_n^{2 * n} <= 2^20 nodes")

    if base["rect"] is None:
        samples = base["samples"] or [1j]
    elif base["samples"] is not None:
        raise ConfigError("family.base takes samples or rect, not both")
    else:
        re0, re1, im0, im1 = base["rect"]
        samples = [complex(a, b) for b in np.linspace(im0, im1, base["ny"])
                   for a in np.linspace(re0, re1, base["nx"])]
    if fiber["s"] is None:
        fiber["s"] = samples[0]
    if fam["kind"] != "product" and min(s.imag for s in samples + [fiber["s"]]) <= 0:
        raise ConfigError("base samples and fiber.s must satisfy Im s > 0")

    chi_terms = {}
    for key, coeff in fam["chi"]:
        if len(key) != 2 * n + 2:
            raise ConfigError(
                f"chi terms must be [k_1..k_{2 * n}, p, q, re, im], got {list(key)}")
        chi_terms[key] = chi_terms.get(key, 0.0) + coeff
    matrix = fam["period_matrix"]
    shape = None if matrix is None else [len(row) for row in matrix]
    if shape != ([2, 2] if n == 2 else None):
        raise ConfigError("family.period_matrix must be a 2 x 2 matrix at n = 2 and absent at "
                          "n = 1, whose modulus comes from tau0 or modulus_coeffs")
    schedule = conf["continuation"]["eps_schedule"]
    if any(a <= b for a, b in zip(schedule, schedule[1:])) or schedule[-1] < 0:
        raise ConfigError("continuation.eps_schedule must decrease strictly to a value >= 0")
    manufactured = fiber["manufactured"]
    if manufactured is not None and len(manufactured["mode"]) != 2 * n:
        raise ConfigError(f"fiber.manufactured.mode must list {2 * n} frequencies")
    if manufactured is not None and max(map(abs, manufactured["mode"])) > grid_n // 2 - 1:
        raise ConfigError("fiber.manufactured.mode exceeds the grid Nyquist range")

    try:
        chi = FourierPoly(n, chi_terms)
        spec = FamilySpec(
            kind=fam["kind"], n=n, tau0=fam["tau0"],
            modulus_coeffs=tuple(fam["modulus_coeffs"]),
            omega_matrix=None if matrix is None else np.array(matrix),
            chi=chi, base_coeff=fam["base_coeff"], grid_n=grid_n,
            base_samples=tuple(samples))
    except GeometryError as exc:
        raise ConfigError(f"invalid family: {exc}") from exc
    if chi.max_frequency() > grid_n // 2 - 1:
        raise ConfigError("family.chi frequency exceeds the grid Nyquist range")

    # the sections as read, plus the values the commands take from them
    solver, stencil = conf["solver"], conf["stencil"]
    return dict(conf, spec=spec, samples=samples, schedule=schedule, raw=doc,
                solver=SolverConfig(tol=solver["tol"], max_iters=solver["max_iters"],
                                    damping_floor=solver["damping_floor"]),
                h_s=stencil["h_s"], richardson=stencil["richardson"])


def read_config(path: str):
    """The JSON document at path, or a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path: str) -> dict:
    return parse_config(read_config(path))


def provenance_block(cfg: dict) -> dict:
    blob = json.dumps(cfg["raw"], sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "grid_n": cfg["spec"].grid_n,
        "h_s": cfg["h_s"],
        "tol": cfg["solver"].tol,
        "seed": cfg["seed"],
    }
