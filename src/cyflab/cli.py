"""Configuration ingestion, experiment orchestration and report emission.

A run is described by a single JSON document (schema 1, unknown keys are
errors).  Reports are deterministic for a fixed config and seed: JSON with
sorted keys, CSV with a fixed column order; the optional SVG heatmap is
presentation-only.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .geometry import DefinitenessError, FiberChart, FiberGrid, GeometryError, ddc_fiber, \
    herm_det, herm_min_eig
from .green import build_green, ewald_kernel_min, k_bound, kernel_mean_residual, \
    reproducing_residual
from .familygeom import (
    contraction_residual,
    curvature_report,
    dbar_vertical,
    geodesic_curvature,
    kodaira_spencer_norm,
    pde_residual,
    semmes_residual,
    theta_E,
    vphi_cross_check,
    wp_norm,
)
from .masolver import (
    BaseStencil,
    KE_VOLUME,
    MAProblem,
    NO_NORMALIZATION,
    REFERENCE_VOLUME,
    SolverConfig,
    SolverDivergence,
    epsilon_continuation,
    eta_from_metric,
    fiberwise_ricci_flat,
    solve_ma,
    solve_nested,
)
from .models import VALID_KINDS, Family, FamilySpec, FourierPoly, make_family, \
    random_positive_form

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

KNOWN_SUITES = ("identities", "elliptic", "product", "epsilon", "green",
                "positivity", "convergence")


class ConfigError(ValueError):
    pass


# -- config parsing ------------------------------------------------------------
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
        "suites": Key(_list(_str), list(KNOWN_SUITES), *_one_of(KNOWN_SUITES, each=True)),
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
    if (n == 2 or matrix is not None) and [len(row) for row in matrix or []] != [n] * n:
        raise ConfigError(f"family.period_matrix must be an {n} x {n} matrix")
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


# -- writers -------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        # a non-finite value would make the file invalid JSON: refuse it
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default, allow_nan=False)
        fh.write("\n")


FAMILY_CSV_COLUMNS = ["s_re", "s_im", "direct_image", "lower_bound", "theta_E",
                      "wp", "c_min", "c_max", "pde_residual_sup", "K",
                      "combined_min_eig"]


def write_family_csv(path: Path, rows: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FAMILY_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(row[c])) for c in FAMILY_CSV_COLUMNS])


# -- phi.csv: Python's repr of every value, computed in numpy -----------------
# repr(float) is the shortest decimal that reads back as the same double, the
# nearest one when several are that short.  Its digits come from Schubfach
# (R. Giulietti, "The Schubfach way to render doubles", 2020) in uint64
# arithmetic, each 64 x 64-bit product taken in 32-bit limbs.  Java's version
# of it asks for at least two digits; repr does not, so the one-digit-shorter
# candidate is tried for every value and subnormals are not scaled by 10.

# rows of phi.csv formatted per write: the temporaries of one block are held at once
PHI_CSV_BLOCK = 2 ** 13

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_F64_EXP = 0x7FF << 52
_K_MIN = -324       # floor(log10 2^q) at a double's smallest exponent q = -1074
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)

# Columns of a value's text in a row.  A value is 0.D0D1..D16 10^decpt, and
# the digits D are laid out twice so that the kept columns alone place the
# point: positional text keeps D[:decpt] of the first copy (or its '0'), the
# point, and D[decpt:] (or the zeros before D) of the second; the exponent
# form keeps D0, the point, D1.. and the exponent.
_V_SIGN = 0         # '-'
_V_INT = 1          # '0' D0..D15
_V_DOT = 18         # '.'
_V_FRAC = 19        # '000' D0..D16
_V_E = 39           # 'e'
_V_ESIGN = 40       # '+' or '-'
_V_EXP = 41         # three exponent digits, or 'nan' / 'inf'
_V_CRLF = 44
_V_WIDTH = 46
_POSITIONAL = range(-3, 17)     # repr's decpt range of positional text
_EXPONENT_LAYOUT = len(_POSITIONAL) * 17     # the first exponent-form layout
_SPECIAL_LAYOUT = _EXPONENT_LAYOUT + 2 * 17


@cache
def _pow10_multipliers():
    """Schubfach's g = floor(10^-k 2^-r) + 1, 2^125 < g < 2^126, for each k
    a double can need, split at bit 63 into (g >> 63, g & (2^63 - 1))."""
    g1, g0 = [], []
    for k in range(_K_MIN, _flog10pow2(971) + 1):     # 971: the largest double's q
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        beta = (num << -r) // den if r <= 0 else num // (den << r)
        g1.append((beta + 1) >> 63)
        g0.append((beta + 1) & _M63)
    g1, g0 = np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)
    g1.flags.writeable = g0.flags.writeable = False
    return g1, g0


@cache
def _ascii_quads():
    """The four ASCII digits of 0..9999 as one uint32 each."""
    return np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)


@cache
def _value_layouts():
    """The kept value columns of each layout: positional text by (decpt, number
    of significant digits), the exponent form by (three exponent digits or two,
    significant digits), and nan or inf."""
    keep = np.zeros((_SPECIAL_LAYOUT + 1, _V_WIDTH), bool)
    keep[:, _V_CRLF:] = True
    for decpt in _POSITIONAL:
        for sig in range(1, 18):
            row = keep[(decpt - _POSITIONAL[0]) * 17 + sig - 1]
            if decpt > 0:
                row[_V_INT + 1:_V_INT + 1 + decpt] = True
            else:
                row[_V_INT] = True
            row[_V_DOT] = True
            row[_V_FRAC + 3 + decpt:_V_FRAC + 3 + max(sig, decpt + 1)] = True
    for hundreds in (0, 1):
        for sig in range(1, 18):
            row = keep[_EXPONENT_LAYOUT + hundreds * 17 + sig - 1]
            row[_V_INT + 1] = True
            row[_V_DOT] = sig > 1
            row[_V_FRAC + 4:_V_FRAC + 3 + sig] = True
            row[_V_E:_V_EXP + 3] = True
            row[_V_EXP] = hundreds
    keep[_SPECIAL_LAYOUT, _V_EXP:_V_EXP + 3] = True
    keep.flags.writeable = False
    return keep


def _flog10pow2(q):
    return q * 661_971_961_083 >> 41


def _flog10_three_quarters_pow2(q):
    return q * 661_971_961_083 - 274_743_187_321 >> 41


def _flog2pow10(e):
    return e * 913_124_641_741 >> 38


def _mul128(a, b):
    """The high and low words of the 128-bit products of two uint64 arrays."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _add128(x, y):
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _sub128(x, y):
    lo = x[1] - y[1]
    return x[0] - y[0] - (x[1] < y[1]), lo


def _shl128(x, s):
    """x << s as two words, for 0 < s < 64."""
    return x >> 64 - s, x << s


def _rop(y, x):
    """Schubfach's rop: g cp 2^-127 rounded to odd, from the words y of g1 cp
    and x of g0 cp."""
    z = (y[1] >> 1) + x[0]
    return y[0] + (z >> 63) | (z & _M63 != 0)


def _shortest_digits(bits):
    """(d, k) with d 10^k the shortest decimal that rounds to the positive finite
    double of each bit pattern, the nearest one when several are that short."""
    g1, g0 = _pow10_multipliers()
    bq = (bits >> 52).astype(np.int64)
    t = bits & (1 << 52) - 1
    c = np.where(bq > 0, t | 1 << 52, t)
    q = np.maximum(bq, 1) - 1075
    # the double below a power of two is nearer than the one above
    regular = (t != 0) | (bq <= 1)
    k = np.where(regular, _flog10pow2(q), _flog10_three_quarters_pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    # rop of g by cb = 4c and by its neighbours cb +- 2 (cb - 1 below a power of
    # two): the neighbours' products are the centre's plus or minus g << s
    cp = c << h + 2
    y, x = _mul128(g1, cp), _mul128(g0, cp)
    vb = _rop(y, x)
    s = h + 1
    vbr = _rop(_add128(y, _shl128(g1, s)), _add128(x, _shl128(g0, s)))
    s = h + regular
    vbl = _rop(_sub128(y, _shl128(g1, s)), _sub128(x, _shl128(g0, s)))
    out = c & 1      # an odd c leaves the ends of its rounding interval out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    # both s and s + 1 in: the nearer, the even one on a tie (vb & 3 is 4v/10^k - 4s
    # rounded to odd)
    up = ~uin | win & ((vb & 3) + (s & 1) > 2)
    d = np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10), s + up)
    return d, k


def _ascii_digits(x, width):
    """The decimal digits of the integers x, `width` ASCII bytes a row."""
    groups = -(-width // 4)
    parts = np.empty((x.size, groups), np.int64)
    for j in range(groups - 1, 0, -1):
        high = x // 10000
        parts[:, j] = x - high * 10000
        x = high
    parts[:, 0] = x
    return _ascii_quads().take(parts).view(np.uint8)[:, 4 * groups - width:]


def _phi_rows(x, indices, rows, keep):
    """The bytes of the CSV rows of the values x: the index columns, given as
    (array, digits) pairs, then repr of the value, comma separated and CRLF
    ended.  rows and keep are (len(x), row width) buffers whose constant
    columns are already set."""
    bits = x.view(np.uint64)
    finite = bits & _F64_EXP != _F64_EXP
    regular = finite & (bits << 1 != 0)
    nan = ~finite & (bits << 12 != 0)
    d, k = _shortest_digits(np.where(regular, bits & _M63, 1 << 62))
    digits = np.searchsorted(_POW10, d, side="right")
    decpt = np.where(regular, digits + k, 1)
    D = _ascii_digits(np.where(regular, d * _POW10[17 - digits], 0), 17)
    sig = np.where(regular, 17 - np.argmax(D[:, ::-1] != ord("0"), axis=1), 1)
    col = 0
    for index, width in indices:
        rows[:, col:col + width] = _ascii_digits(index, width)
        length = np.searchsorted(_POW10, index, side="right").clip(1)
        keep[:, col:col + width] = np.arange(width) >= width - length[:, None]
        col += width + 1
    value, kept = rows[:, col:], keep[:, col:]
    value[:, _V_INT + 1:_V_INT + 17] = D[:, :16]
    value[:, _V_FRAC + 3:_V_FRAC + 20] = D
    e = decpt - 1
    value[:, _V_ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    value[:, _V_EXP:_V_EXP + 3] = _ascii_digits(np.abs(e), 3)
    layout = np.where((decpt >= _POSITIONAL[0]) & (decpt <= _POSITIONAL[-1]),
                      (decpt - _POSITIONAL[0]) * 17 + sig - 1,
                      _EXPONENT_LAYOUT + (np.abs(e) >= 100) * 17 + sig - 1)
    special = np.flatnonzero(~finite)
    if special.size:
        value[special, _V_EXP:_V_EXP + 3] = np.where(
            nan[special, None], np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8))
        layout[special] = _SPECIAL_LAYOUT
    kept[:] = _value_layouts().take(layout, axis=0)
    kept[:, _V_SIGN] = (bits >> 63 != 0) & ~nan
    return rows[keep]


def write_phi_csv(path: Path, phi: np.ndarray):
    """CSV of a real field: the bytes csv.writer gives, CRLF line ends included,
    each value as Python's repr.

    A 2-d field is indexed i,j, any other by its flat index.  Rows are
    formatted and written PHI_CSV_BLOCK at a time.
    """
    phi = np.asarray(phi, dtype=float)
    flat = phi.ravel()
    widths = [len(str(max(n - 1, 0))) for n in (phi.shape if phi.ndim == 2 else [flat.size])]
    block = min(PHI_CSV_BLOCK, flat.size)
    rows = np.empty((block, sum(widths) + len(widths) + _V_WIDTH), np.uint8)
    keep = np.ones(rows.shape, bool)
    value = rows[:, sum(widths) + len(widths):]
    rows[:, np.cumsum(widths) + np.arange(len(widths))] = ord(",")
    value[:, _V_SIGN] = ord("-")
    value[:, _V_INT] = ord("0")
    value[:, _V_DOT] = ord(".")
    value[:, _V_FRAC:_V_FRAC + 3] = ord("0")
    value[:, _V_E] = ord("e")
    value[:, _V_CRLF:] = np.frombuffer(b"\r\n", np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"i,j,phi\r\n" if phi.ndim == 2 else b"flat_index,phi\r\n")
        for start in range(0, flat.size, PHI_CSV_BLOCK):
            x = flat[start:start + PHI_CSV_BLOCK]
            index = np.arange(start, start + x.size, dtype=np.uint64)
            if phi.ndim == 2:
                i = index // phi.shape[1]
                index = [i, index - i * phi.shape[1]]
            else:
                index = [index]
            fh.write(_phi_rows(x, list(zip(index, widths)), rows[:x.size], keep[:x.size]))


def write_heatmap_svg(path: Path, samples: list, values: list, cell: int = 40):
    """Presentation-only heatmap of a base-sample scalar (not deterministic-tracked)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    res = sorted({round(s.real, 12) for s in samples})
    ims = sorted({round(s.imag, 12) for s in samples})
    vmin, vmax = min(values), max(values)
    span = (vmax - vmin) or 1.0
    w, h = cell * len(res), cell * len(ims)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for s, v in zip(samples, values):
        i = res.index(round(s.real, 12))
        j = ims.index(round(s.imag, 12))
        t = (v - vmin) / span
        r, g, b = int(255 * t), int(64 + 64 * (1 - t)), int(255 * (1 - t))
        parts.append(
            f'<rect x="{i * cell}" y="{(len(ims) - 1 - j) * cell}" width="{cell}" '
            f'height="{cell}" fill="rgb({r},{g},{b})"><title>s=({s.real:.4g},'
            f'{s.imag:.4g}) value={v:.6g}</title></rect>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


# -- commands ------------------------------------------------------------------


def manufactured_problem(metric, phi_star: np.ndarray, eps: float) -> MAProblem:
    """The fiber problem on metric whose solution is phi_star: eta = 0 and the
    forcing f = log det(g + dd^c phi*) - log det g - eps phi*."""
    h_star = metric.gab + ddc_fiber(phi_star, metric.chart)
    if herm_min_eig(h_star) <= 0:
        raise DefinitenessError("manufactured phi* breaks fiber positivity")
    extra_f = np.log(herm_det(h_star).real) - np.log(herm_det(metric.gab).real) - eps * phi_star
    return MAProblem(chart=metric.chart, gab=metric.gab, eta=np.zeros(phi_star.shape),
                     epsilon=eps, extra_f=extra_f)


def manufactured_phi(manufactured: dict, grid: FiberGrid) -> np.ndarray:
    """phi* = amplitude cos(2 pi k.xi) of fiber.manufactured on the grid."""
    phase = sum(k * grid.coords[ax] for ax, k in enumerate(manufactured["mode"]))
    return manufactured["amplitude"] * np.cos(2 * np.pi * phase)


def cmd_solve_fiber(cfg: dict, out_dir: Path) -> int:
    fiber = cfg["fiber"]
    s = fiber["s"]
    eps = fiber["eps"]
    manufactured = fiber["manufactured"]
    family = Family(cfg["spec"])
    # make_family's check of the base samples; the metric it builds at s is
    # the fine problem's, which is then not built again
    fine = None
    for sample in map(complex, family.spec.base_samples):
        metric = family.validate_at(sample)
        if sample == s:
            fine = metric
        del metric

    def metric_at(grid_n):
        nonlocal fine
        if grid_n != family.grid.N or fine is None:
            return family.on_grid(grid_n).fiber_metric(s)
        metric, fine = fine, None
        return metric

    report = {"provenance": provenance_block(cfg), "s": s, "eps": eps}
    # every grid's problem comes from the same analytic data: solve_nested
    # starts the fine Newton from the solves of coarser grids
    band = family.chi.max_frequency()
    if manufactured is not None:
        built = {}

        def problem_at(grid_n):
            metric = metric_at(grid_n)
            phi_star = manufactured_phi(manufactured, metric.chart.grid)
            built[grid_n] = phi_star, manufactured_problem(metric, phi_star, eps)
            return built[grid_n][1]

        sol = solve_nested(problem_at, family.grid.N,
                           max(band, *map(abs, manufactured["mode"])), cfg["solver"],
                           normalization=REFERENCE_VOLUME if eps == 0 else NO_NORMALIZATION)
        phi_star, problem = built[family.grid.N]
        del built
        shift = 0.0
        if eps == 0:
            det_g = herm_det(problem.gab).real
            shift = float(np.mean(phi_star * det_g) / np.mean(det_g))
        report["recovery_error"] = float(np.max(np.abs(sol.phi - (phi_star - shift))))
    else:
        def problem_at(grid_n):
            metric = metric_at(grid_n)
            return MAProblem(chart=metric.chart, gab=metric.gab,
                             eta=eta_from_metric(metric.gab, metric.chart), epsilon=eps)

        sol = solve_nested(problem_at, family.grid.N, band, cfg["solver"],
                           normalization=fiber["normalization"])

    report.update({
        "residual_sup": sol.residual_sup,
        "newton_iters": sol.newton_iters,
        "normalization": sol.normalization,
        "diagnostics": sol.diagnostics,
    })
    # the solved metric sol.h is not written: free it before the phi.csv write
    phi = sol.phi
    del sol
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "fiber_solution.json", report)
    if "csv" in cfg["outputs"]["formats"]:
        write_phi_csv(out_dir / "phi.csv", phi)
    return EXIT_OK


# the keys of a sample report that each command writes per base sample
FAMILY_ROW_KEYS = ("s_re", "s_im", "direct_image", "lower_bound", "theta_E", "wp", "ks_norm",
                   "c_min", "c_max", "pde_residual_sup", "semmes", "contraction",
                   "ricci_constancy", "positive", "K", "combined_min_eig")
GREEN_ROW_KEYS = ("s", "K", "wp", "mean_c", "pointwise_margin", "combined_min_eig", "pass")


def sample_report(family, s, h_s, config, richardson=False) -> dict:
    """The curvature report of one base point, as familygeom.curvature_report."""
    return curvature_report(family, s, h_s=h_s, config=config, richardson=richardson)


def sample_rows(cfg: dict, keys) -> tuple:
    """(rows, failure): the given keys of the sample report at each base sample.

    The samples run on cfg["threads"] threads and the rows keep their order.
    A sample that fails numerically (a divergent solve, or a stencil point
    outside the family's domain) ends the rows, which hold the samples before
    it, and failure is {"s", "error"} of it; None when every sample solved.
    """
    family = make_family(cfg["spec"])

    def work(s):
        try:
            return sample_report(family, s, cfg["h_s"], cfg["solver"], cfg["richardson"])
        except (SolverDivergence, GeometryError) as exc:
            return exc

    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
            results = list(pool.map(work, cfg["samples"]))
    else:
        results = [work(s) for s in cfg["samples"]]

    rows = []
    for s, res in zip(cfg["samples"], results):
        if isinstance(res, Exception):
            return rows, {"s": s, "error": str(res)}
        rows.append({key: res[key] for key in keys})
    return rows, None


def _exit_code(failure, ok: bool) -> int:
    if failure is not None:
        print(f"numerical failure at s = {failure['s']}: {failure['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_run_family(cfg: dict, out_dir: Path, plot: bool = False) -> int:
    rows, failure = sample_rows(cfg, FAMILY_ROW_KEYS)
    formats = cfg["outputs"]["formats"]
    all_positive = bool(rows) and all(r["positive"] and r["combined_min_eig"] > 0
                                      for r in rows)
    report = {
        "provenance": provenance_block(cfg),
        "rows": rows,
        "all_positive": all_positive,
    }
    if failure is not None:
        report["failure"] = failure
    if "json" in formats:
        write_json(out_dir / "family_report.json", report)
    if "csv" in formats:
        # on a fiber failure the rows computed so far are still written
        write_family_csv(out_dir / "family.csv", rows)
    if rows and (plot or "svg" in formats):
        write_heatmap_svg(out_dir / "c_heatmap.svg", cfg["samples"][:len(rows)],
                          [r["direct_image"] for r in rows])
    return _exit_code(failure, all_positive)


# -- verify suites --------------------------------------------------------------


def suite_identities(cfg: dict) -> dict:
    rng = np.random.RandomState(cfg["seed"])
    results = {"semmes_max": 0.0, "contraction_max": 0.0, "det_oracle_max": 0.0,
               "cases": 0}
    for n, N in ((1, 32), (2, 12)):
        grid = FiberGrid(n, N)
        chart = FiberChart.make(grid, tau=1j) if n == 1 else \
            FiberChart.make(grid, omega_matrix=np.array([[1j, 0.2], [0.2, 1.5j]]))
        for _ in range(50):
            form = random_positive_form(rng, grid, chart)
            results["semmes_max"] = max(results["semmes_max"], semmes_residual(form))
            results["contraction_max"] = max(results["contraction_max"],
                                             contraction_residual(form))
            if n == 1:
                det_full = form.gss * form.gab[0, 0] - np.abs(form.gsb[0]) ** 2
                c = geodesic_curvature(form)
                results["det_oracle_max"] = max(
                    results["det_oracle_max"],
                    float(np.max(np.abs(c - det_full / form.gab[0, 0]))))
            results["cases"] += 1
    results["pass"] = bool(results["semmes_max"] < 1e-11
                           and results["contraction_max"] < 1e-11
                           and results["det_oracle_max"] < 1e-12)
    return results


def suite_elliptic(cfg: dict) -> dict:
    spec = FamilySpec(kind="universal_elliptic", grid_n=cfg["spec"].grid_n,
                      base_samples=(1j, 0.3 + 0.8j, 2j))
    family = make_family(spec)
    rows, ok = [], True
    for s in spec.base_samples:
        stencil = BaseStencil(center=s, h_s=cfg["h_s"])
        rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        exact = family.ricci_flat_closed_form(s)
        v = s.imag
        c = geodesic_curvature(rho.form)
        fld = dbar_vertical(rho.form)
        th = theta_E(family, stencil)
        row = {
            "s": s,
            "phi_sup": float(np.max(np.abs(rho.phi - exact.phi))),
            "c_rel_err": float(np.max(np.abs(c - exact.c)) * v ** 2),
            "dbarv_rel_err": float(np.max(np.abs(fld.norm2 - exact.theta)) * 4 * v ** 2),
            "theta_err": abs(th - exact.theta),
        }
        ok = ok and row["phi_sup"] < 1e-10 and row["c_rel_err"] < 1e-8 \
            and row["dbarv_rel_err"] < 1e-8 and row["theta_err"] < 1e-5
        rows.append(row)
    return {"rows": rows, "pass": bool(ok)}


def suite_product(cfg: dict) -> dict:
    s = 0.2 + 0.3j
    family = _perturbed_family(cfg, (s,), kind="product")
    stencil = BaseStencil(center=s, h_s=cfg["h_s"])
    rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
    fld = dbar_vertical(rho.form)
    out = {
        "dbarv_sup": float(np.max(np.abs(fld.A))),
        "theta": abs(theta_E(family, stencil)),
        "wp": wp_norm(rho.form),
        "ks_norm": kodaira_spencer_norm(rho.form),
    }
    out["pass"] = bool(out["dbarv_sup"] < 1e-8 and out["theta"] < 1e-9
                       and out["wp"] < 1e-8 and out["ks_norm"] < 1e-8)
    return out


def _perturbed_family(cfg: dict, samples=(1j,), kind="universal_elliptic"):
    """The family of kind over tau0 = i with a small chi perturbation."""
    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5}, 0.05)
    return make_family(FamilySpec(kind=kind, tau0=1j, chi=chi, grid_n=cfg["spec"].grid_n,
                                  base_samples=tuple(samples)))


def suite_epsilon(cfg: dict) -> dict:
    family = _perturbed_family(cfg)
    s = 1j
    path = epsilon_continuation(family, s, cfg["schedule"], cfg["solver"])
    # every cross check compares with the same eps = 0 stencil: solve it once
    rho0 = fiberwise_ricci_flat(family, BaseStencil(center=s, h_s=cfg["h_s"]),
                                config=cfg["solver"])
    vphi_rows = []
    ok = path.order is not None and path.order > 0.95
    for eps in cfg["schedule"]:
        out = vphi_cross_check(family, s, eps=eps, h_s=cfg["h_s"], config=cfg["solver"],
                               rho0=rho0)
        vphi_rows.append({"eps": eps, "sup_difference": out["sup_difference"],
                          "vphi_integral": out["vphi_integral"],
                          "linear_fallbacks": out["linear_fallbacks"]})
        ok = ok and out["vphi_integral"] < 1e-8
    for row in path.table:
        if row["eps"] > 0:
            ok = ok and row["ke_identity_residual"] <= 10 * cfg["solver"].tol
    out = {"order": path.order, "c_normalization": path.c_normalization,
           "table": path.table, "vphi": vphi_rows,
           "sup_phi_max": path.sup_phi_max, "sup_lap_max": path.sup_lap_max,
           "pass": bool(ok)}
    if path.order is None:
        out["failure"] = ("no decay order: a sup_diff_to_limit of an eps > 0 row "
                          "is not positive")
    return out


def suite_green(cfg: dict) -> dict:
    grid = FiberGrid(1, cfg["spec"].grid_n)
    chart = FiberChart.make(grid, tau=1j)
    green = build_green(np.array([[1.0 + 0j]]), chart)
    rng = np.random.RandomState(cfg["seed"])
    x, y = grid.coords
    f = np.zeros(grid.shape)
    for _ in range(6):
        k1, k2 = rng.randint(-4, 5, size=2)
        f = f + rng.standard_normal() * np.cos(2 * np.pi * (k1 * x + k2 * y)) \
            + rng.standard_normal() * np.sin(2 * np.pi * (k1 * x + k2 * y))
    kb = k_bound(green)
    exact = -ewald_kernel_min(green)
    out = {
        "reproducing_residual": reproducing_residual(green, f),
        "kernel_mean": kernel_mean_residual(green),
        "K": kb.K,
        "K_exact_ewald": exact,
        "K_truncation_err": abs(kb.K - exact),
    }
    out["pass"] = bool(out["reproducing_residual"] < 1e-9
                       and out["kernel_mean"] < 1e-12
                       and out["K_truncation_err"] < 5e-3 * exact)
    return out


def suite_positivity(cfg: dict) -> dict:
    samples = [0.1 + 0.9j, 0.3 + 1.1j]
    family = _perturbed_family(cfg, samples)
    reports = [sample_report(family, s, cfg["h_s"], cfg["solver"]) for s in samples]
    rows = [{key: rep[key] for key in GREEN_ROW_KEYS} for rep in reports]
    rows += [{"s": rep["s"], "direct_image": rep["direct_image"],
              "lower_bound": rep["lower_bound"], "pass": rep["positive"]} for rep in reports]
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def suite_convergence(cfg: dict) -> dict:
    # manufactured-solution error must drop spectrally when N doubles; the
    # target and its forcing are analytic (full spectrum), so the discrete
    # error is pure truncation
    errors = {}
    for N in (16, 32):
        grid = FiberGrid(1, N)
        chart = FiberChart.make(grid, tau=1j)
        x = grid.coords[0]
        amp = 0.01
        phi_star = amp * np.exp(np.cos(2 * np.pi * x))
        lap_star = 0.25 * amp * (2 * np.pi) ** 2 * np.exp(np.cos(2 * np.pi * x)) \
            * (np.sin(2 * np.pi * x) ** 2 - np.cos(2 * np.pi * x))
        g = np.ones((1, 1) + grid.shape, dtype=complex)
        extra_f = np.log(1.0 + lap_star) - 0.5 * phi_star
        problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                            epsilon=0.5, extra_f=extra_f)
        sol = solve_ma(problem, cfg["solver"])
        errors[N] = float(np.max(np.abs(sol.phi - phi_star)))
    factor = errors[16] / max(errors[32], 1e-16)

    family = _perturbed_family(cfg, (0.2 + 1.0j,))
    sups = {}
    for h in (cfg["h_s"], cfg["h_s"] / 2):
        stencil = BaseStencil(center=0.2 + 1.0j, h_s=h)
        rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        sups[h] = float(np.max(np.abs(pde_residual(rho))))
    ratio = sups[cfg["h_s"]] / max(sups[cfg["h_s"] / 2], 1e-18)
    return {"manufactured_errors": {str(k): v for k, v in errors.items()},
            "spectral_factor": factor,
            "pde_residual": {str(k): v for k, v in sups.items()},
            "fd_ratio": ratio,
            "pass": bool(factor >= 100 and ratio >= 3)}


SUITE_RUNNERS = {
    "identities": suite_identities,
    "elliptic": suite_elliptic,
    "product": suite_product,
    "epsilon": suite_epsilon,
    "green": suite_green,
    "positivity": suite_positivity,
    "convergence": suite_convergence,
}


def cmd_verify(cfg: dict, out_dir: Path, suites=None) -> int:
    suites = suites or cfg["suites"]
    if "epsilon" in suites and sum(eps > 0 for eps in cfg["schedule"]) < 2:
        raise ConfigError("continuation.eps_schedule needs two values > 0 for the "
                          "epsilon suite to fit its order")
    results = {name: SUITE_RUNNERS[name](cfg) for name in suites}
    ok = all(r["pass"] for r in results.values())
    report = {"provenance": provenance_block(cfg), "suites": results, "pass": ok}
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "verify_report.json", report)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_green(cfg: dict, out_dir: Path) -> int:
    rows, failure = sample_rows(cfg, GREEN_ROW_KEYS)
    report = {"provenance": provenance_block(cfg), "rows": rows,
              "pass": bool(rows) and all(r["pass"] for r in rows)}
    if failure is not None:
        report["failure"] = failure
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "green_report.json", report)
    return _exit_code(failure, report["pass"])


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyflab",
        description="Fiberwise Ricci-flat metrics on torus fibrations: "
                    "solves, identity checks and positivity reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-fiber", "run-family", "verify", "green"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="override solver.grid_n")
        p.add_argument("--fd-step", type=float, default=None, help="override stencil.h_s")
        p.add_argument("--threads", type=int, default=None, help="override threads")
        if name == "run-family":
            p.add_argument("--plot", action="store_true", help="emit the SVG heatmap")
        if name == "verify":
            p.add_argument("--suite", default=None, choices=KNOWN_SUITES,
                           help="run a single named suite instead of the configured set")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = read_config(args.config)
        # the overrides enter the document, hence the provenance hash
        for section, key, value in (("solver", "grid_n", args.grid),
                                    ("stencil", "h_s", args.fd_step)):
            if value is not None and isinstance(doc, dict) \
                    and isinstance(doc.setdefault(section, {}), dict):
                doc[section][key] = value
        cfg = parse_config(doc)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {args.threads}")
            cfg["threads"] = args.threads
        if args.command in ("run-family", "green") and cfg["spec"].n != 1:
            raise ConfigError(f"{args.command} needs family.n = 1: the family pipeline "
                              "assembles n = 1 fibrations only")
        out_dir = Path(args.out or cfg["outputs"]["dir"])
        if args.command == "solve-fiber":
            return cmd_solve_fiber(cfg, out_dir)
        if args.command == "run-family":
            return cmd_run_family(cfg, out_dir, plot=getattr(args, "plot", False))
        if args.command == "verify":
            suites = [args.suite] if args.suite else None
            return cmd_verify(cfg, out_dir, suites=suites)
        return cmd_green(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverDivergence, GeometryError, OverflowError) as exc:
        # OverflowError: a chi power of s past the float range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
