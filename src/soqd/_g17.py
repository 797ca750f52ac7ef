"""'%.17g' % v for a whole block of float64 at once: the CSV writer's cells.

With X the decimal exponent of |v|, s = |v| * 10^(16 - X) lies in
[1e16, 1e17), and s rounded half-even is the integer N of the 17
significant digits.  s is a double-double: Dekker's exact product
(Veltkamp splits, no FMA) of frexp's mantissa m in [0.5, 1) with the
(hi, lo) pair of 10^k / 2^e, hi in [1, 2), then ldexp.  In units where
m * hi < 2 the pair is off by at most 2^-106, m * lo and the sum of the low
parts round by at most 2^-107 and 2^-106, and ldexp scales by at most
2^57: s is within 2^-47 of exact.  So N is exact unless s is that close to
a half-integer; such values (in a band 8 times wider) and inf and nan go
to '%.17g' one at a time.  An s that close to 1e16 or 1e17 needs no care:
N is 1e16 on either side once N = 1e17 carries into X + 1.  The text is
then laid out as C's %g lays it out at precision 17.

soqd.cli imports this module on its first CSV write, so that
``import soqd`` does not compile it.
"""

import numpy as np

#: Dekker's splitting constant for float64, 2^27 + 1
_SPLIT = 134217729.0
#: s this close to a half-integer goes to '%.17g': 8 times the 2^-47 bound
_TIE_BAND = 2.0 ** -44
#: decimal exponents X of the finite nonzero doubles; k = 16 - X scales
#: them, with one step of slack each way for log10's error
_X_MIN, _X_MAX = -324, 308
_K_MIN = 16 - _X_MAX - 1
#: column k - _K_MIN: the Veltkamp head and tail of hi, then lo and e, with
#: 10^k = (hi + lo) * 2^e.  Filled per k on first use (head = 0 marks a
#: column not built yet); a built column never changes
_pow10 = np.zeros((4, 16 - _X_MIN + 2 - _K_MIN))
#: bytes per CSV cell: the longest text, "-1.2345678901234567e-308", then
#: its separator; shorter text is padded with NULs, which are not written
CELL = 25


def _pow10_column(k: int) -> tuple:
    """(head, tail, lo, e) of 10^k from exact integers: hi = head + tail
    and lo are correctly rounded."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    e = num.bit_length() - den.bit_length() - (k < 0)
    num, den = num << max(-e, 0), den << max(e, 0)
    hi = num / den
    lo = ((num << 52) - int(hi * 2.0 ** 52) * den) / (den << 52)
    head = hi * _SPLIT - (hi * _SPLIT - hi)
    return head, hi - head, lo, e


def _scaled(m: np.ndarray, e2: np.ndarray, x: np.ndarray) -> tuple:
    """m * 2^e2 * 10^(16 - x) as a double-double (hi, lo), |lo| <= ulp(hi)/2."""
    i = 16 - x - _K_MIN
    head = _pow10[0].take(i)
    if not head.all():
        for j in set(i[head == 0].tolist()):
            _pow10[:, j] = _pow10_column(j + _K_MIN)
        head = _pow10[0].take(i)
    tail, p_lo = _pow10[1].take(i), _pow10[2].take(i)
    m_head = m * _SPLIT - (m * _SPLIT - m)
    m_tail = m - m_head
    p = m * (head + tail)
    lo = ((m_head * head - p) + m_head * tail + m_tail * head) + m_tail * tail + m * p_lo
    hi = p + lo
    lo -= hi - p
    scale = e2 + _pow10[3].take(i).astype(np.int32)
    return np.ldexp(hi, scale), np.ldexp(lo, scale)


def _layout_tables() -> tuple:
    """By q < 10^4: its four ASCII digits as a word, and their trailing
    '0's.  By digit count: the bytes kept of source words 0 and 1 (digits
    1..8, 9..16).  By X - _X_MIN: the form (0 for scientific notation, X for
    fixed with X >= 0, 16 - X for X < 0), the digits ahead of the '.', and
    the bytes of "e+dd" or "e-ddd" (NUL in fixed notation) in source word
    2.  By form: the source row byte of each cell byte."""
    p = np.arange(100)
    pairs = (p // 10 + 48 | (p % 10 + 48) << 8).astype(np.uint64)
    pair_zeros = ((p % 10 == 0) * (1 + (p < 10))).astype(np.int8)
    # q = 100 * row + column
    quads = (pairs[:, None] | pairs << np.uint64(16)).ravel()
    trailing_zeros = (pair_zeros + (p == 0) * pair_zeros[:, None]).ravel()
    keep = np.array([[(1 << 8 * min(max(n - 1 - 8 * w, 0), 8)) - 1 for n in range(18)]
                     for w in range(2)], dtype=np.uint64)
    x = np.arange(_X_MIN, _X_MAX + 1)
    sci = (x < -4) | (x >= 17)
    form = np.where(sci, 0, np.where(x >= 0, x, 16 - x))
    e = np.abs(x)
    two = (e // 10 + 48) | (e % 10 + 48) << 8
    three = (e // 100 + 48) | (e // 10 % 10 + 48) << 8 | (e % 10 + 48) << 16
    exponent = ord("e") | np.where(x < 0, 45, 43) << 8 | np.where(e >= 100, three, two) << 16
    exponent = (exponent * sci).astype(np.uint64) << np.uint64(24)
    # source row bytes: 0..15 digits 1..16, 16 digit 0, 17 '0', 18 '.',
    # 19..23 the exponent, 24 the sign, 25 NUL
    layout = np.full((21, CELL), 25)
    layout[:, 0] = 24
    digit = [16] + list(range(16))
    for c in range(17):
        layout[c, 1:19] = digit[:c + 1] + [18] + digit[c + 1:]
    layout[0, 19:24] = range(19, 24)
    for z in range(4):  # X = -1 - z: "0.", z zeros, the digits
        layout[17 + z, 1:20 + z] = [17, 18] + [17] * z + digit
    ahead = np.where(form <= 16, form + 1, 0)
    return quads, trailing_zeros, keep, form, ahead, exponent, layout


_QUADS, _TRAILING_ZEROS, _KEEP, _FORM, _AHEAD, _EXPONENT, _LAYOUT = _layout_tables()


def cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v of a 1-D float64 array, as rows of
    CELL bytes: the text padded with NULs, its last byte always NUL."""
    a = np.abs(values)
    fallback = ~(a < np.inf)
    zero = a == 0
    a[fallback | zero] = 1.0
    m, e2 = np.frexp(a)
    # np.log10 may be an ulp off under other SIMD dispatch: one step fixes X
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(m, e2, x)
    step = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
    moved = np.flatnonzero(step)
    if moved.size:
        x[moved] += step[moved]
        hi[moved], lo[moved] = _scaled(m[moved], e2[moved], x[moved])
    rounded = np.rint(lo)
    fallback |= np.abs(np.abs(lo - rounded) - 0.5) < _TIE_BAND
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    x += carry

    upper, lower = np.divmod(n, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    first[zero] = 0
    q = [*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4)]
    z = [_TRAILING_ZEROS.take(g) for g in q]
    zeros = z[3] + (q[3] == 0) * (z[2] + (q[2] == 0) * (z[1] + (q[1] == 0) * z[0]))
    # the source row as four little-endian words (on any host), digits past
    # the last one printed NUL, and the '.' NUL if no digit follows it
    xi = x - _X_MIN
    ahead_x = _AHEAD.take(xi)
    digits = np.maximum(17 - zeros, ahead_x)
    src = np.empty((len(a), 4), "<u8")
    src[:, 0] = (_QUADS.take(q[0]) | _QUADS.take(q[1]) << np.uint64(32)) & _KEEP[0].take(digits)
    src[:, 1] = (_QUADS.take(q[2]) | _QUADS.take(q[3]) << np.uint64(32)) & _KEEP[1].take(digits)
    src[:, 2] = ((first + 48).astype(np.uint64) | np.uint64(48 << 8)
                 | (digits > ahead_x) * np.uint64(46 << 16) | _EXPONENT.take(xi))
    src[:, 3] = np.signbit(values) * np.uint64(45)
    index = _LAYOUT.take(_FORM.take(xi), axis=0)
    index += np.arange(0, 32 * len(a), 32)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    for i in np.flatnonzero(fallback).tolist():
        out[i] = np.frombuffer((b"%.17g" % values[i]).ljust(CELL, b"\0"), np.uint8)
    return out
