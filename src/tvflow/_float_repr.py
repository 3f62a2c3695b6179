"""The text ``repr`` gives each float of an array, computed in bulk.

``repr`` of a float is the shortest decimal that reads back as the same
double (the correctly rounded ``dtoa`` of Gay 1990, mode 0), laid out by
Python's rules.  Ryū (Adams 2018, PLDI) finds the same digits with
fixed-width integer arithmetic, which runs here on whole numpy arrays:

1. A double m2 * 2^e2 and the ends of the interval that rounds to it, as
   mv = 4 m2, mp = mv + 2 and mm = mv - 1 or mv - 2, are scaled by a power
   of ten 10^-e10 into 64-bit integers vr, vp and vm.  The scale is a
   126-bit multiplier from a table, kept as four 32-bit limbs.  Each
   product is shifted right by 118 to 125 bits, so of a 2-limb by 4-limb
   product only limbs 3 to 5 are formed.
2. When no scaled value is exact, the digits are vr with r decimal
   digits removed, where r is the highest decimal position at which vm
   and vp differ, rounded half up on the last removed digit: Ryū's
   common case, the only one computed here.
3. A double whose vr, vp or vm may be exact is formatted by ``repr``
   itself: every double from 2^49 to 2^131, and below that those whose
   mv ends in enough zero bits, such as integers and multiples of 1/4.
   A solver's output has few: of the 184,312 distinct dual values a
   316 x 316 grid solve writes, 2 take ``repr``.

The digits are then laid out as ``repr`` does: exponent form (``e`` and at
least two exponent digits) when the decimal point falls 4 or more places
before the first digit or more than 16 after it, else fixed form, with
``.0`` after an integral value.  Each text is a column of a byte frame
whose rows are the sign, the ``0.`` and zeros before a small fixed value,
the digits with the point among them, and the exponent; a text's unused
rows hold 0 bytes, which its caller drops.  So the rows a text takes do
not matter, and ``repr``'s texts fill a column from the top.  A call
formats all its doubles in one pass, whose temporaries take about 210
bytes per double, so its caller bounds their number: the CSV writers call
it once per chunk of at most ``io._CHUNK_ROWS`` rows.  On a chunk of
15,000 doubles one pass is about 8% faster than passes over blocks of
4,096 (2-vCPU Xeon VM).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["POW10", "repr_texts", "write_digits"]

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# 10^e for every e with 10^e below 2^64.
POW10 = 10 ** np.arange(20, dtype=_U64)
# Frame rows: the sign, "0." and up to three zeros, 17 digits and the
# point, then "e", the exponent's sign and up to three digits.
_LEAD = 5
_BODY = 18
_EXP = 5
_WIDTH = 1 + _LEAD + _BODY + _EXP


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Ryū's constants for doubles, one entry per biased exponent, and the
    exponent texts; built once, on first use."""
    # The multipliers: floor(2^(124 + bits(5^q)) / 5^q) + 1 for e2 >= 0,
    # and the top 125 bits of 5^i for e2 < 0.
    inverse = [(1 << (5**q).bit_length() + 124) // 5**q + 1 for q in range(342)]
    power = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    limbs = np.array(
        [[v >> 32 * k & 0xFFFFFFFF for k in range(4)] for v in inverse + power],
        dtype=_U64,
    )

    biased = np.arange(2048)
    e2 = np.maximum(biased, 1) - 1077
    pos = e2 >= 0
    a = np.abs(e2)
    # log10(2^e2) and log10(5^-e2), one less beyond the smallest exponents.
    q = np.where(pos, (a * 78913 >> 18) - (a > 3), (a * 732923 >> 20) - (a > 1))
    i = a - q

    def pow5bits(e: np.ndarray) -> np.ndarray:
        return (e * 1217359 >> 19) + 1

    shift = np.where(pos, q - e2 + 124 + pow5bits(q), q - pow5bits(i) + 125)
    row = np.where(pos, q, 342 + i)
    small_q = np.minimum(q, 63).astype(_U64)
    tables = {
        "limbs": np.ascontiguousarray(limbs[row].T),
        # The product's bits from `shift` on start at bit shift - 96 of limb 3.
        "down": (shift - 96).astype(_U64),
        "up": (128 - shift).astype(_U64),
        "e10": np.where(pos, q, q + e2),
        "hidden": np.where(biased > 0, 1 << 52, 0).astype(_U64),
        # A scaled value may be exact: for e2 >= 0 and q <= 21 ("exact"),
        # when 5^q divides mv, mm or mp; for e2 < 0, when mv & twos == 0,
        # as it does for every mv at q <= 1 (twos is all ones where that
        # cannot hold, as mv > 0).
        "exact": pos & (q <= 21),
        "twos": np.where(
            ~pos & (q < 63),
            (_U64(1) << small_q) - _U64(1),
            _U64(0xFFFFFFFFFFFFFFFF),
        ),
        "exp": np.array([f"e{e:+03d}" for e in range(-324, 309)], dtype=f"S{_EXP}")
        .view(np.uint8).reshape(-1, _EXP),
    }
    for table in tables.values():  # shared by every call
        table.flags.writeable = False
    return tables


def repr_texts(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite value of the float64 array ``values``, as
    an array of byte strings: item k holds the characters of
    ``repr(values[k])`` in order, with 0 bytes between and after them."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    frame = np.zeros((_WIDTH, values.size), dtype=np.uint8)  # a column per text
    digits, e10, sign, exact = _shortest(values.view(_U64))
    _layout(frame, digits, e10, sign)
    # Where the digits may be wrong, repr's text replaces the column.
    rows = np.flatnonzero(exact)
    texts = np.array(list(map(repr, values[rows].tolist())), f"S{_WIDTH}")
    frame[:, rows] = texts.view(np.uint8).reshape(-1, _WIDTH).T
    used = frame.any(axis=1)
    width = int(used.sum())
    return np.ascontiguousarray(frame[used].T).view(f"S{width}").reshape(-1)


def _shortest(
    bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ryū's d2d, common case only: the shortest digits of each double as
    an integer, its power of ten, the sign bit, and the mask of the
    doubles whose vr, vp or vm may be exact, whose digits may be wrong."""
    t = _tables()
    biased = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mantissa = bits & _U64((1 << 52) - 1)
    # Zeros are scaled as 1.0, which is exact, so they are formatted by repr.
    biased[(biased == 0) & (mantissa == 0)] = 1023
    m2 = mantissa | t["hidden"][biased]
    mv = m2 << _U64(2)
    # mm = mv - 2 except at the bottom of a binade, where the gap below
    # is half the gap above.
    mm_shift = ((mantissa != 0) | (biased <= 1)).astype(_U64)
    b = t["limbs"][:, biased]
    down, up = t["down"][biased], t["up"][biased]
    vr = _mul_shift(mv, b, down, up)
    vp = _mul_shift(mv + _U64(2), b, down, up)
    vm = _mul_shift(mv - _U64(1) - mm_shift, b, down, up)
    exact = t["exact"][biased] | ((mv & t["twos"][biased]) == 0)
    digits, removed = _common(vr, vp, vm)
    return digits, t["e10"][biased] + removed, bits >> _U64(63), exact


def _mul_shift(
    x: np.ndarray, b: np.ndarray, down: np.ndarray, up: np.ndarray
) -> np.ndarray:
    """floor(x * B / 2^shift) for each x < 2^55 and the 4-limb B in ``b``,
    where down = shift - 96 lies in 22..29 and up = 128 - shift.

    Limbs 0 to 2 of the product only carry into limb 3; limbs 4 and 5 are
    kept together in one 64-bit word, below 2^56."""
    x0, x1 = x & _LOW32, x >> _U64(32)
    t = b[0] * x0
    carry = t >> _U64(32)
    for k in (1, 2, 3):
        t = b[k] * x0
        acc = carry + (t & _LOW32) + b[k - 1] * x1
        carry = (acc >> _U64(32)) + (t >> _U64(32))
    top = carry + b[3] * x1
    return ((acc & _LOW32) >> down) | (top << up)


def _common(
    vr: np.ndarray, vp: np.ndarray, vm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's common case: remove the r digits below the highest decimal
    position where vm and vp differ, rounding half up; returns the digits
    and r."""
    diff = vp - vm
    # vp // 10^s > vm // 10^s holds for every s with 10^s <= vp - vm,
    # and while it does the digit at position s can go.
    r = np.searchsorted(POW10[1:], diff, side="right")
    # It holds at s exactly when a multiple of 10^s lies in (vm, vp].
    rows = np.flatnonzero(vp % POW10[r + 1] < diff)
    while rows.size:
        r[rows] += 1
        rows = rows[vp[rows] % POW10[r[rows] + 1] < diff[rows]]
    scale = POW10[r]
    digits = vr // scale
    rest = vr - digits * scale
    digits += ((vr - rest <= vm) | (rest << _U64(1) >= scale)).astype(_U64)
    return digits, r


def _layout(
    frame: np.ndarray, digits: np.ndarray, e10: np.ndarray, sign: np.ndarray
) -> None:
    """Write the text of digits * 10^e10, negative where ``sign`` is 1,
    into ``frame``: a column per value, a row per character position."""
    count = np.maximum(np.searchsorted(POW10, digits, side="right"), 1)
    point = count + e10  # the decimal point's place after the first digit
    fixed = (point > -4) & (point <= 16)
    whole = fixed & (point > 0)
    frame[0] = sign * np.uint8(ord("-"))
    # "0." and -point zeros before the digits of a small fixed value.
    small = fixed & ~whole
    lead = frame[1 : 1 + _LEAD]
    lead[0] = small * np.uint8(ord("0"))
    lead[1] = small * np.uint8(ord("."))
    lead[2:] = (np.arange(1, _LEAD - 1)[:, None] <= -point) & small
    lead[2:] *= np.uint8(ord("0"))
    # The 17 digits, left-aligned, with the point at place `at`: after
    # `point` digits in fixed form, after the first digit in exponent form,
    # else at place 17, past the text's end.  Integral fixed values are
    # filled with zeros to one past the point; elsewhere the text ends
    # after the last digit.
    at = np.where(whole, point, np.where(fixed | (count == 1), 17, 1))
    end = np.where(whole, np.maximum(count, point + 1) + 1, count + (at < 17))
    full = digits * POW10[17 - count]
    # 18 digits: a 0 inserted at place `at`, which becomes the point.
    full = full * _U64(10) - full % POW10[17 - at] * _U64(9)
    body = frame[1 + _LEAD : 1 + _LEAD + _BODY]
    write_digits(body[:9], (full // POW10[9]).astype(np.uint32))
    write_digits(body[9:], (full % POW10[9]).astype(np.uint32))
    places = np.arange(_BODY)[:, None]
    np.subtract(body, ord("0") - ord("."), out=body, where=places == at)
    body *= places < end
    rows = np.flatnonzero(~fixed)
    if rows.size:
        exponent = _tables()["exp"][point[rows] - 1 + 324]
        frame[1 + _LEAD + _BODY :, rows] = exponent.T


def write_digits(rows: np.ndarray, values: np.ndarray) -> None:
    """Write the characters of the last ``len(rows)`` decimal digits of
    each unsigned integer of ``values`` into the byte rows ``rows``, a row
    per place and the units in the last, a column per value.  Leading
    zeros are written as ``0``."""
    rest = values
    for k in range(len(rows) - 1, -1, -1):
        shifted = rest // 10
        rows[k] = rest - shifted * 10
        rest = shifted
    rows += ord("0")
