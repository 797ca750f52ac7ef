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
C's %g at precision 17, each byte at a fixed slot of four little-endian
words, NUL in the slots it leaves empty: the sign, "0." and up to three
zeros (X < 0), d0, the '.'; d1..d8; d9..d16; "e+dd" or "e-ddd", then the
separator.  Only fixed notation with 1 <= X <= 16 moves bytes: d1..dX
shift back one, onto the '.', which goes behind dX.

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
#: bytes per CSV cell: four words, each byte of the text at a fixed slot,
#: then the separator; the NULs between are not written
CELL = 32


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
    i = (16 - _K_MIN) - x
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
    """By q < 10^4, then q + 10^4: its four ASCII digits as a word, then
    with their trailing '0's NUL.  By X - _X_MIN: word 0 without its sign
    and d0 ("0." and -1 - X zeros for -4 <= X < 0, else the '.'), and word
    3 without its separator ("e+dd" or "e-ddd" in scientific notation).  By
    X in 1..16: the bytes of words 0..2 that take their next byte as
    d1..dX move back one, then the byte that takes the '.' behind dX."""
    p = np.arange(100)
    pairs = (p // 10 + 48 | (p % 10 + 48) << 8).astype(np.uint64)
    # q = 100 * row + column
    quads = (pairs[:, None] | pairs << np.uint64(16)).ravel()
    trimmed = quads.copy()
    for zeros in range(1, 5):  # q a multiple of 10^zeros: its last digits NUL
        trimmed[::10 ** zeros] &= np.uint64((1 << 32 - 8 * zeros) - 1)
    x = np.arange(_X_MIN, _X_MAX + 1)
    sci = (x < -4) | (x >= 17)
    e = np.abs(x)
    two = (e // 10 + 48) | (e % 10 + 48) << 8
    three = (e // 100 + 48) | (e // 10 % 10 + 48) << 8 | (e % 10 + 48) << 16
    exponent = ord("e") | np.where(x < 0, 45, 43) << 8 | np.where(e >= 100, three, two) << 16
    head = np.full(x.size, 46 << 56, np.uint64)
    for z in range(4):  # X = -1 - z: "0.", then z zeros
        head[-1 - z - _X_MIN] = int.from_bytes(b"\0" + b"0." + b"0" * z, "little")
    moves = np.zeros((2, 17, 24), np.uint8)
    for c in range(1, 17):
        moves[0, c, 7:7 + c] = moves[1, c, 7 + c] = 255
    return (np.concatenate([quads, trimmed]), head, (exponent * sci).astype(np.uint64),
            moves.view("<u8"))


_QUADS, _HEAD, _EXPONENT, _MOVES = _layout_tables()
#: ASCII '0' and '.' in every byte of a word
_ZEROS, _DOTS = np.uint64(0x3030303030303030), np.uint64(0x2E2E2E2E2E2E2E2E)


def cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v of a 1-D float64 array, as rows of
    CELL bytes: each byte of the text at its slot, NULs between and
    after; the last byte is always NUL."""
    a = np.abs(values)
    fallback = ~(a < np.inf)
    zero = a == 0
    a[fallback | zero] = 1.0
    m, e2 = np.frexp(a)
    # np.log10 may be an ulp off under other SIMD dispatch: one step fixes X
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(m, e2, x)
    up = (hi - 1e17) + lo >= 0
    moved = np.flatnonzero(up | ((hi - 1e16) + lo < 0))
    if moved.size:
        x[moved] += np.where(up[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(m[moved], e2[moved], x[moved])
    rounded = np.rint(lo)
    fallback |= np.abs(np.abs(lo - rounded) - 0.5) < _TIE_BAND
    n = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = np.flatnonzero(n == 10 ** 17)
    n[carry] = 10 ** 16
    x[carry] += 1

    # d0, then d1..d16 as four groups q of four digits (// and a product:
    # int64 divmod is several times slower).  A group followed only by zero
    # groups is looked up with its trailing '0's NUL; bare ends true where
    # no digit follows d0
    first = n // 10 ** 16
    n -= first * 10 ** 16
    first[zero] = 0
    upper = n // 10 ** 8
    lower = n - upper * 10 ** 8
    q0, q2 = upper // 10 ** 4, lower // 10 ** 4
    q = [q0, upper - q0 * 10 ** 4, q2, lower - q2 * 10 ** 4]
    bare = q[3] == 0
    q[3] += 10 ** 4
    for g in (2, 1, 0):  # np.add's where=: bool * int64 is far slower
        empty = q[g] == 0
        np.add(q[g], 10 ** 4, out=q[g], where=bare)
        bare &= empty
    # four little-endian words (on any host): the sign, "0.000", d0 and
    # the '.'; d1..d8; d9..d16; the exponent
    xi = x - _X_MIN
    words = np.empty((len(a), 4), "<u8")
    words[:, 0] = _HEAD.take(xi)
    out = words.view(np.uint8)
    np.copyto(out[:, 0], 45, where=np.signbit(values))
    out[:, 6] = first + 48
    np.copyto(out[:, 7], 0, where=bare)
    words[:, 1] = _QUADS.take(q[0]) | _QUADS.take(q[1]) << np.uint64(32)
    words[:, 2] = _QUADS.take(q[2]) | _QUADS.take(q[3]) << np.uint64(32)
    words[:, 3] = _EXPONENT.take(xi)
    # 1 <= X <= 16: d1..dX move back one byte (a trailing zero among them
    # reads '0' again), and the '.' goes behind dX if a digit follows
    fixed = np.flatnonzero((x - 1).view(np.uint64) < 16)
    if fixed.size:
        w = words[fixed]
        into, dot = _MOVES[:, x[fixed]]
        kept = w[:, :3] & ~(into | dot)
        dots = ((kept[:, 1] | kept[:, 2]) != 0) * _DOTS
        words[fixed, :3] = ((w[:, :3] >> np.uint64(8) | w[:, 1:] << np.uint64(56) | _ZEROS)
                            & into | kept | dots[:, None] & dot)
    for i in np.flatnonzero(fallback).tolist():
        out[i] = np.frombuffer((b"%.17g" % values[i]).ljust(CELL, b"\0"), np.uint8)
    return out
