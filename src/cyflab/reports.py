"""Report files: the JSON reports, family.csv, phi.csv and the SVG heatmap.

JSON has sorted keys and refuses a non-finite value; the CSV files have a
fixed column order and Python's repr of every value.  Their bytes depend
only on the rows they are given.  The SVG heatmap is presentation-only.
"""

from __future__ import annotations

import csv
import json
from functools import cache
from pathlib import Path

import numpy as np

# the keys of a sample report that each command writes per base sample
FAMILY_ROW_KEYS = ("s_re", "s_im", "direct_image", "lower_bound", "theta_E", "wp", "ks_norm",
                   "c_min", "c_max", "pde_residual_sup", "semmes", "contraction",
                   "ricci_constancy", "positive", "K", "combined_min_eig")
GREEN_ROW_KEYS = ("s", "K", "wp", "mean_c", "pointwise_margin", "combined_min_eig", "pass")


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
