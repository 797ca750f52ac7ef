"""'%.2f,%.2f' % (x, y) for a whole block of points at once: the SVG
writer's polyline.

For v >= 0 the text is that of n, the integer nearest the exact 100 * v
(ties to even), as n // 100, '.', and the two digits of n % 100.  Take
p = fl(100 * v); Dekker's product (a Veltkamp split of v, none of 100)
gives err = 100 * v - p exactly.  Rounding to nearest is monotonic and
leaves every half-integer below 10^5 as it is, so p is never on the other
side of a half-integer than the exact 100 * v: n = rint(p) unless p is a
half-integer.  Then the sign of err picks n, and err = 0 is an exact tie
(v an odd multiple of 1/8), which rint breaks to even as '%.2f' does.
Negative v (-0.0 included), v that rounds to 1000.00 or more, inf and nan
go to '%.2f' one at a time.

soqd.cli imports this module on its first SVG write, so that neither
``import soqd`` nor a sweep without a plot compiles it.
"""

import numpy as np

from ._g17 import _SPLIT

#: n at or above this has four integer digits and falls back
_N_LIMIT = 10 ** 5


def _tables() -> tuple:
    """Little-endian cell words, ORed together per value: by n // 100,
    bytes 0..2 its digits with leading zeros NUL and byte 3 '.'; by
    n % 100, bytes 4..5 its two digits; by column, byte 6 the separator
    after x or y.  Byte 7 stays NUL."""
    i = np.arange(1000, dtype=np.uint64)
    integers = (np.where(i >= 100, i // 100 + 48, 0) | np.where(i >= 10, i // 10 % 10 + 48, 0) << 8
                | (i % 10 + 48) << 16 | ord(".") << 24)
    f = np.arange(100, dtype=np.uint64)
    fractions = (f // 10 + 48) << 32 | (f % 10 + 48) << 40
    separators = np.array([ord(","), ord(" ")], np.uint64) << 48
    return integers, fractions, separators


_INTEGERS, _FRACTIONS, _SEPARATORS = _tables()


def _rounded(xy: np.ndarray) -> tuple:
    """n = 100 * v rounded half-even for every v of ``xy``, as int64, and
    the mask of values that take the per-value path (their n is 0)."""
    # clipped, so that no inf reaches p - n; values beyond fall back anyway
    v = np.clip(xy, -1000.0, 1000.0)
    p = v * 100.0
    n = np.rint(p)
    # err is needed only where p is a half-integer
    tie = np.abs(p - n) == 0.5
    a, p = v[tie], p[tie]
    head = a * _SPLIT - (a * _SPLIT - a)
    err = (head * 100.0 - p) + (a - head) * 100.0
    n[tie] = np.rint(p + 0.5 * np.sign(err))
    fallback = np.signbit(xy) | ~(n < _N_LIMIT)
    n[fallback] = 0
    return n.astype(np.int64), fallback


def points(x: np.ndarray, y: np.ndarray) -> bytes:
    """``' '.join('%.2f,%.2f' % (x[i], y[i]) for every i)`` as ASCII bytes,
    for 1-D float64 arrays of one length."""
    xy = np.column_stack((x, y))
    n, fallback = _rounded(xy)
    integer, fraction = np.divmod(n, 100)
    words = (_INTEGERS.take(integer) | _FRACTIONS.take(fraction)
             | _SEPARATORS).astype("<u8", copy=False).ravel()
    pieces, lo = [], 0
    for i in np.flatnonzero(fallback).tolist():
        pieces += [words[lo:i].tobytes(), b"%.2f%c" % (xy.flat[i], b", "[i % 2])]
        lo = i + 1
    pieces.append(words[lo:].tobytes())
    # the NULs are the padding of each word; the last byte is a separator
    return b"".join(pieces).translate(None, b"\0")[:-1]
