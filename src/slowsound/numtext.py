"""Exact text of float arrays: "%.12g" and "%.2f", an array at a time.

g12_text and f2_text write the same characters as "%.12g" % v and
"%.2f" % v for every float64 v, with no Python call per value: a
fixed-precision printf conversion (Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019) built from numpy array operations.  Each
value is scaled by a correctly rounded power of ten and rounded to an
integer, whose digits are read four at a time from tables of 4-byte
lanes, with NUL where a character is left out: a leading or trailing
zero, an absent point or exponent.  A cell is a row of lanes: its lead
byte (a separator of the caller's choosing, or NUL) and minus sign, the
whole digits, "." and the decimals, the exponent.  Lanes that no cell
of the call needs are left out, the lead shares the whole digits' lane
when they fit, and the exponent shares the lane of decimals 12-15,
which exponent notation leaves empty.  The rows are laid end to end and
one bytes.translate drops the NULs.

"%.2f" rounds 100 |v| exactly: Dekker's two-product (Numer. Math. 18,
224 (1971)) gives the product's rounding error, which settles a product
that lands on a half, and exact ties go to even as they do in "%".
"%.12g" scales |v| into [1e11, 1e12) by one product with a table power,
within 2.3e-4 of the exact product, so a fraction farther than 3e-4 from
the half rounds as the exact value does.  The cells this cannot prove
are written by "%" one at a time and spliced into the text: for "%.12g"
near-ties, a carry into the next power of ten, and magnitudes outside
[1e-280, 1e280] other than zeros, NaN and infinities, which it writes
itself; for "%.2f" magnitudes from 9999.5, NaN and infinities.  Every
operation is one that numpy carries out without a warning on any
float64.
"""

import numpy as np

__all__ = ["f2_text", "g12_text"]

_MINUS = np.uint32(ord("-") << 8)  # the second byte of a lead lane


def _tables():
    """The digit and exponent lanes, built from two-digit pieces.

    _DIGITS holds three tables of four-digit lanes: without trailing zeros
    (0 as nothing), with every digit, and without leading zeros (0 as "0").
    A lane is read from the first two by digits + 10_000 * (more digits
    follow), and from the last two by 20_000 + digits - 10_000 * (more
    digits lead).  _POINT_TRAILING does the same for "." and three decimals.
    The pieces are Python ints and each table takes one numpy operation:
    each numpy loop a process first runs costs resident pages of numpy's
    library, and building the tables runs few loops the kernels do not.
    """
    pairs = [(48 + k // 10, 48 + k % 10, k) for k in range(100)]
    full = [t | o << 8 for t, o, k in pairs]
    leading = [t * (k >= 10) | o * (k >= 1) << 8 for t, o, k in pairs]
    trailing = [t * (k > 0) | o * (k % 10 > 0) << 8 for t, o, k in pairs]
    # the first two digits by row, the last two by column
    low = np.array([[v << 16 for v in row] for row in (trailing, full, full)])[:, None, :]
    digits = np.array([full, full, leading])[:, :, None] | low
    digits[0, :, 0] = trailing
    digits[2, 0] = [v << 16 for v in leading]
    digits[2, 0, 0] = ord("0") << 24
    hundreds = [ord(".") | (48 + h) << 8 for h in range(10)]
    point = np.array(hundreds)[:, None] | low[:2]
    point[0, :, 0] = hundreds
    point[0, 0, 0] = 0
    cents = [ord(".") | v << 8 for v in full]
    # "e+dd" or "e-ddd" as two lanes, for exponents -_E to _E, and a row of NUL
    exponents = [(ord("-+"[e >= 0]), abs(e)) for e in range(-_E, _E + 1)]
    head = [ord("e") | sign << 8 | full[e // 10 if e >= 100 else e] << 16 for sign, e in exponents]
    tail = [(48 + e % 10) * (e >= 100) for sign, e in exponents]
    tables = (digits, point, cents, head + [0], tail + [0])
    return (np.array(table, np.uint32).reshape(-1) for table in tables)


_E = 300  # the exponent and power tables run from -_E to _E
_DIGITS, _POINT_TRAILING, _CENTS, _EXP_HEAD, _EXP_TAIL = _tables()
_TRAILING, _ONES = _DIGITS[:20_000], _DIGITS[20_000:]
_NAN, _INF = np.frombuffer(b"\0nan\0inf", "<u4")
_NONE = np.zeros(0, np.intp)
# float(10**k) and 1 / 10**k are correctly rounded
_POW10 = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-_E, _E + 1)])


def _leads(lead, values):
    """Each cell's lead lane, its lead byte alone, in C order."""
    first = np.empty(np.shape(values), "<u4")
    first[...] = lead
    return first.reshape(-1)


def _joined(lanes, slots, texts):
    """The cells' lanes end to end without NUL, texts[i] inserted before lane slots[i]."""
    cells = np.empty((len(lanes[0]), len(lanes)), "<u4")
    for j, lane in enumerate(lanes):
        cells[:, j] = lane
    data = cells.tobytes()
    pieces, start = [], 0
    for slot, text in zip(slots.tolist(), texts):
        pieces += (data[start : 4 * slot].translate(None, b"\0"), text.encode())
        start = 4 * slot
    pieces.append(data[start:].translate(None, b"\0"))
    return b"".join(pieces).decode("ascii")


def _whole_lanes(whole, top):
    """Lanes of the whole numbers below 1e12 in whole (int64), without leading zeros."""
    if top < 10**4:
        return [_ONES[whole]]
    high = whole // 10**4
    lanes = [_DIGITS[20_000 + whole - 10**4 * high - 10**4 * (high > 0)]]
    if top < 10**8:
        return [_ONES[high] * (high > 0), *lanes]
    top4 = high // 10**4
    middle = _DIGITS[20_000 + high - 10**4 * top4 - 10**4 * (top4 > 0)]
    return [_ONES[top4] * (top4 > 0), middle * (high > 0), *lanes]


def _fraction_lanes(fraction, decimals):
    """Lanes of "." and the 15 decimals of fraction / 1e15 (int64), without
    trailing zeros; lanes past the first decimals ones are left out."""
    lanes = []
    for scale, table, size, first in (
        (10**12, _POINT_TRAILING, 1000, 1),
        (10**8, _TRAILING, 10_000, 4),
        (10**4, _TRAILING, 10_000, 8),
        (1, _TRAILING, 10_000, 12),
    ):
        if decimals < first:
            break
        digits = fraction // scale
        fraction = fraction - scale * digits
        lanes.append(table[digits + size * (fraction > 0)])
    return lanes


def g12_text(values, lead):
    """The "%.12g" text of each of values (float64) in C order, each after
    its lead byte; lead broadcasts to the shape of values."""
    x = np.ravel(values)
    lanes, spliced = _g12_lanes(x, _leads(lead, values))
    return _joined(lanes, len(lanes) * spliced + 1, ["%.12g" % v for v in x[spliced].tolist()])


def _g12_lanes(x, first):
    """g12_text's lanes of the values x after their lead lanes first, and
    the cells left to "%"."""
    a = np.abs(x)
    rough = ~((a >= 1e-280) & (a <= 1e280))  # zeros, NaN, infinities, extremes
    a[rough] = 1.0
    # the decimal exponent e: |x| 10^(11 - e) in [1e11, 1e12), rounded to m
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[_E + 11 - e]
    m = np.rint(y)
    first |= np.signbit(x) * _MINUS
    # "%" writes the cells that would carry into 1e12 (log10 rounded down
    # across a power of ten among them), those within 3e-4 of a half, and
    # magnitudes outside [1e-280, 1e280] but zeros, NaN and infinities.
    # A log10 rounded up, by a few ulp, leaves y less than 0.1 below 1e11,
    # where it rounds to 1e11 as the exact value does.
    odd = ((y >= 1e12 - 0.5) | (np.abs(y - m) > 0.5 - 3e-4) | rough).nonzero()[0]
    nans = infs = spliced = odd[:0]
    if odd.size:
        m[odd] = e[odd] = 0  # "0", the zeros' own text
        v = x[odd]
        nan, inf = np.isnan(v), np.isinf(v)
        nans, infs, spliced = odd[nan], odd[inf], odd[(v != 0) & ~nan & ~inf]
        first[nans] &= 0xFF
        first[spliced] &= 0xFF
    # fixed notation from 1e-4 and below 1e12: 11 - shift decimals
    fixed = (e + 4).view(np.uintp) < 16
    shift = e * fixed
    scale = _POW10[_E + 11 - shift]
    whole = np.floor(m / scale)
    fraction = ((m - whole * scale) * _POW10[_E + 4 + shift]).astype(np.int64)
    whole = whole.astype(np.int64)
    top = whole.max(initial=0)
    whole_lanes = _whole_lanes(whole, top)
    ones = whole_lanes[-1]
    if odd.size:
        ones[nans], ones[infs], ones[spliced] = _NAN, _INF, 0
    if top < 100 and not infs.size:
        ones |= first  # one lane: the lead bytes, then at most two digits
        lanes = whole_lanes
    else:
        lanes = [first, *whole_lanes]
    decimals = _fraction_lanes(fraction, 11 - shift.min(initial=11))
    lanes += decimals
    if not fixed.all():
        index = np.where(fixed, -1, _E + e)
        if len(decimals) == 4:
            decimals[3] |= _EXP_HEAD[index]  # NUL where the exponent goes: 11 decimals
        else:
            lanes.append(_EXP_HEAD[index])
        tail = _EXP_TAIL[index]
        if tail.any():
            lanes.append(tail)
    return lanes, spliced


def f2_text(values, lead):
    """The "%.2f" text of each of values (float64) in C order, each after
    its lead byte; lead broadcasts to the shape of values."""
    x = np.ravel(values)
    first = _leads(lead, values)
    if np.minimum.reduce(x, initial=np.inf) > 0 and np.maximum.reduce(x, initial=0.0) < 999:
        ones, cents = _f2_lanes(x)
        ones |= first  # one lane: the lead byte, then at most three digits
        return _joined([ones, cents], _NONE, [])
    ok = np.abs(x) < 9999.5
    ones, cents = _f2_lanes(np.where(ok, np.abs(x), 0.0))
    fallback = (~ok).nonzero()[0]
    ones[fallback] = cents[fallback] = 0
    first |= (np.signbit(x) & ok) * _MINUS
    return _joined([first, ones, cents], 3 * fallback + 1, ["%.2f" % v for v in x[fallback].tolist()])


def _f2_lanes(a):
    """The whole-number and cents lanes of "%.2f" % v for a in [0, 9999.5)."""
    p = a * 100.0
    n = np.rint(p)
    ties = (np.abs(p - n) == 0.5).nonzero()[0]
    if ties.size:
        # Veltkamp's split of a; 100 needs none, so p + err is 100 a exactly
        at, pt, nt = a[ties], p[ties], n[ties]
        c = at * 134217729.0
        high = c - (c - at)
        err = (high * 100.0 - pt) + (at - high) * 100.0
        n[ties] = nt + (pt > nt) * (err > 0) - (pt < nt) * (err < 0)
    cents = n.astype(np.intp)
    whole = cents // 100
    cents -= 100 * whole
    return _ONES[whole], _CENTS[cents]
