"""Exact "%.17g" text of float arrays, as numpy array code.

:func:`cells` gives, for every value, the bytes that ``format(v, ".17g")``
gives, in a fixed-width cell with NUL bytes in its holes; a writer joins the
cells and drops the NUL bytes.  The digits come from a fast path with a
proven error bound, after Grisu (Loitsch, "Printing floating-point numbers
quickly and accurately", PLDI 2010); a value that the bound cannot decide is
formatted by ``format`` itself.

Fast path, for 1e-280 <= |x| <= 1e280: with e = floor(log10 |x|), the
scaled value y = |x| 10^(16 - e) lies in [1e16, 1e17) and its nearest
integer n holds the 17 significant digits.  10^(16 - e) is the double-double
hi + lo, built once with exact integer arithmetic.  |x| hi = p + err exactly
(Dekker's product on Veltkamp splits), so y = p + c with c = err + |x| lo.
For y >= 2^53, p is an integer-valued double; |c| < 32, and c is off by
less than 1e-14.  n = p + floor(c) + (frac(c) > 1/2).  A value goes to
``format`` when frac(c) is within 1e-6 of 1/2 (a tie or near-tie), when y
falls outside [1e16, 1e17) after rounding (log10 off by one), or when |x|
is outside the range; 0, inf and nan have fixed texts.

Layout: each cell is ``WIDTH`` bytes, seven little-endian 64-bit words:
word 0 the sign and "0.000" prefix with the first digit in its last byte,
words 1-2 the other sixteen digits where they are integer digits, byte 24
the decimal point, words 4-5 the same sixteen digits where they are
fraction digits, word 6 the exponent ("e+XX", "e-XXX").  A mask row chosen
by the layout and the count of significant digits clears the holes, which
strips the trailing zeros and a bare point as "%g" does.  The last byte of
a cell is always NUL, free for a separator.
"""

from __future__ import annotations

import functools

import numpy as np

#: bytes per cell
WIDTH = 56

#: the fast range: on it 10^(16 - e) and the split halves and partial
#: products of Dekker's product stay clear of underflow and overflow
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
#: decimal exponents of the tables: floor(log10 |x|) on the fast range,
#: with one to spare for a log10 that is off by one
_E_MIN, _E_MAX = -281, 281
_VELTKAMP = 134217729.0  # 2**27 + 1
#: frac(c) this close to 1/2 is left to ``format``; c is off by < 1e-14
_TIE = 1e-6
_ASCII_ZEROS = 0x3030303030303030


def _words(texts: list[str]) -> np.ndarray:
    """Each text (at most 8 ASCII bytes) as one little-endian int64 word."""
    return np.array([t.encode().ljust(8, b"\0") for t in texts]).view("<i8").astype(np.int64)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = high + low, each with at most 26 significant bits."""
    t = _VELTKAMP * v
    high = t - (t - v)
    return high, v - high


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables, built on the first call (~3 ms, ~140 kB).

    By e - _E_MIN: hi, lo, their split halves, the exponent word, the
    integer digits after the first one, and the mask-row base.  Also the
    prefix words by 2 (e - _E_MIN) + sign, the mask rows, the digit words of
    0..9999 and the words of 0, -0, inf, -inf, nan.
    """
    exponents = range(_E_MIN, _E_MAX + 1)
    hi, lo = [], []
    for e in exponents:
        k = 16 - e
        if k >= 0:
            h = float(10**k)  # int -> float rounds to nearest
            lo.append(float(10**k - int(h)))
        else:
            den = 10**-k
            h = 1 / den  # int / int rounds to nearest
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (den * pow2))  # 10^k - h, rounded once
        hi.append(h)
    hi = np.array(hi)
    fixed = [-4 <= e < 17 for e in exponents]
    exp_words = _words(["" if f else f"e{e:+03d}" for e, f in zip(exponents, fixed)])
    lead = [-e if f and e < 0 else 0 for e, f in zip(exponents, fixed)]
    prefixes = _words([sign + ("0." + "0" * (z - 1) if z else "")
                       for z in lead for sign in ("", "-")])
    integer_digits = [e if f and e > 0 else 0 for e, f in zip(exponents, fixed)]
    # mask row 17 * kind + cut, cut the digits written after the first: kind
    # is the count of integer digits among them, or 17 for "0.000ddd" (the
    # point is in the prefix)
    row_base = np.array([17 * (17 if z else i) for z, i in zip(lead, integer_digits)])
    kind = np.arange(18)[:, None, None]
    cut = np.arange(17)[:, None]
    ints = np.where(kind < 17, kind, 0)
    byte = np.arange(16)
    masks = np.zeros((18, 17, WIDTH), np.uint8)
    masks[..., :8] = masks[..., 48:] = 255
    masks[..., 8:24] = 255 * (byte < ints)
    masks[..., 24] = 255 * ((ints < cut) & (kind < 17))[..., 0]
    masks[..., 32:48] = 255 * ((ints <= byte) & (byte < cut))
    masks = masks.reshape(18 * 17, WIDTH).view("<i8").astype(np.int64)
    # digit values (not ASCII) of 0..9999, the first digit in the lowest byte
    pairs = np.arange(100, dtype=np.int64) // 10 | np.arange(100, dtype=np.int64) % 10 << 8
    quads = (pairs[:, None] | pairs[None, :] << 16).ravel()
    specials = _words(["0", "-0", "inf", "-inf", "nan", "nan"])
    return (hi, np.array(lo), *_split(hi), exp_words, np.array(integer_digits), row_base,
            prefixes, masks, quads, specials)


def cells(values: np.ndarray) -> np.ndarray:
    """The "%.17g" cells of a float64 array: uint8, shape ``values.shape + (WIDTH,)``.

    Dropping the NUL bytes of a cell leaves ``format(v, ".17g")`` of its
    value, byte for byte.
    """
    (hi, lo, hi_high, hi_low, exp_words, integer_digits, row_base,
     prefixes, masks, quads, specials) = _tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    x = np.abs(v)
    s = np.fmin(np.fmax(x, _FAST_MIN), _FAST_MAX)  # nan -> _FAST_MIN
    fast = s == x
    e = np.floor(np.log10(s)).astype(np.intp)
    e -= _E_MIN
    hi, lo, hi_high, hi_low = hi.take(e), lo.take(e), hi_high.take(e), hi_low.take(e)
    p = s * hi
    s_high, s_low = _split(s)
    c = ((s_high * hi_high - p) + s_high * hi_low + s_low * hi_high) + s_low * hi_low + s * lo
    whole = np.floor(c)
    c -= whole
    floor_y = p.astype(np.int64) + whole.astype(np.int64)
    n = floor_y + (c > 0.5)
    fast &= (np.abs(c - 0.5) > _TIE) & (floor_y >= 10**16) & (n < 10**17)

    # n = first * 10^16 + halves[0] * 10^8 + halves[1]; each half becomes one
    # word of eight digit bytes
    eights = n // 10**8
    first = n // 10**16
    halves = np.empty((2, len(n)), np.int64)
    np.subtract(eights, first * 10**8, out=halves[0])
    np.subtract(n, eights * 10**8, out=halves[1])
    fours = halves // 10**4
    digits = quads.take(fours)
    digits |= quads.take(halves - fours * 10**4) << 32
    # digits after the first up to the last nonzero one, from the top set bit
    cut = (np.frexp(digits[1] * 2.0**64 + digits[0])[1] + 7) >> 3
    digits |= _ASCII_ZEROS

    out = np.empty((len(n), WIDTH // 8), np.int64)
    np.add(prefixes.take(2 * e + np.signbit(v)), (first + 48) << 56, out=out[:, 0])
    out[:, 1] = out[:, 4] = digits[0]
    out[:, 2] = out[:, 5] = digits[1]
    out[:, 3] = ord(".")
    np.take(exp_words, e, out=out[:, 6])
    out &= masks.take(row_base.take(e) + np.maximum(cut, integer_digits.take(e)), axis=0)

    if not fast.all():
        slow = np.flatnonzero(~fast)
        xs = v[slow]
        out[slow] = 0
        out[slow, 0] = specials.take(np.signbit(xs) + 2 * np.isinf(xs) + 4 * np.isnan(xs))
        for i in slow[(xs != 0.0) & np.isfinite(xs)].tolist():
            out[i] = np.frombuffer(format(float(v[i]), ".17g").encode().ljust(WIDTH, b"\0"), "<i8")
    return out.astype("<i8", copy=False).view(np.uint8).reshape(np.shape(values) + (WIDTH,))
