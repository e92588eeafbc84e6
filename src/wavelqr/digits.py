"""Byte-exact "%.17g" of float arrays, formatted with numpy into fixed byte slots.

Python's "%.17g" runs bignum dtoa for every number.  Here each number is
scaled to 17 integer digits in double-double arithmetic, exact enough to
round as dtoa does except at near-ties, which fmt formats.  A number's slot
is its sign, a "0.000" prefix, 18 digit-or-point bytes, "e+ddd" and the
separator, NUL where its text is shorter.  cli.write_csv lays the slots of
a block of rows out as one (bytes per row, rows) uint8 array and formats
every block of a file in one Workspace, with out= and np.copyto, so that
no block allocates scratch of its size.
"""

import functools
import math

import numpy as np

NUMBER_SLOT = 30
_TIE = 2.0**-30  # a scaled value this close to k + 1/2 is left to fmt


def fmt(x) -> str:
    return "%.17g" % float(x)


class Workspace:
    """The scratch of formatting at most `values` numbers at a time into
    CSV blocks of at most `rows` rows of `width` bytes, allocated once and
    reused by every block: a shorter block takes leading views (_lead).

    - _numbers: the numbers of a block (numbers()).
    - _slots: their formatted slots, then the block in row order (text()).
    - _words: three arrays of 8-byte words, the scratch of _number_slots,
      and _exponents: the decimal exponents of a block's numbers.
    - _rows: the five rows gathered from the powers-of-ten table, then the
      digits beside a record of 16 bytes a number, then the block in
      column order (block()).
    - _flags: 10 arrays of bools or bytes.

    Each buffer is an allocation of its own, none over 40 bytes a number
    or the block: one arena of them all raised the peak RSS of simulate
    by a MiB, where these fit into the heap's free chunks.
    """

    def __init__(self, values, width=0, rows=0):
        self._numbers = np.empty(values)
        self._slots = np.empty(max(NUMBER_SLOT * values, width * rows), np.uint8)
        self._words = np.empty((3, values))
        self._exponents = np.empty(values, np.int16)
        self._rows = np.empty(max(40 * values, width * rows), np.uint8)
        self._flags = np.empty((10, values), np.bool_)

    def numbers(self, shape):
        """Where a block's numbers go, as float64 of shape."""
        return _lead(self._numbers, shape, np.float64)

    def block(self, shape):
        """The block in column order, (bytes per row, rows): formatted
        slots are read from the other buffers, and the scratch it reuses
        is done with."""
        return _lead(self._rows, shape, np.uint8)

    def text(self, size):
        """The block's bytes in row order, over the slots it was made from."""
        return _lead(self._slots, (size,), np.uint8)


def _lead(buffer, shape, dtype):
    """The leading bytes of buffer as an array of shape and dtype."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return buffer.reshape(-1).view(np.uint8)[:size].view(dtype).reshape(shape)


@functools.cache
def _pow10(E):
    """(hi, h1, h2, lo, b) with 10**(16 - E) ~ (hi + lo) * 2**b, hi in [1, 2)
    and hi = h1 + h2, Dekker's split into halves of at most 26 significant
    bits.

    hi + lo carries 10**(16 - E) to about 2**-106 relative.  Built from
    Python ints: a 110-bit integer q with q * 2**shift ~ 10**k, rounded to
    a double and a double remainder.
    """
    k = 16 - E
    power = 10 ** abs(k)
    if k >= 0:
        shift = max(0, power.bit_length() - 110)
        q = power >> shift
    else:
        shift = -(power.bit_length() + 110)
        q = (1 << -shift) // power
    top = q.bit_length() - 1
    h = float(q)
    hi = math.ldexp(h, -top)
    c = 134217729.0 * hi
    h1 = c - (c - hi)
    return hi, h1, hi - h1, math.ldexp(float(q - int(h)), -top), top + shift


@functools.cache
def _by_exponent():
    """A 16-byte record for each decimal exponent E, in row E + 330, as
    (661, 2) uint64: the digit the point follows (17 for -4 <= E < 0: no
    point among the digits; E for 0 <= E <= 16; 0 in scientific notation),
    the digits shown at least (E + 1 for 0 <= E <= 16), the slot bytes of
    "0.000" (-4 <= E < 0) and of "e+ddd" (scientific notation), NUL where
    absent, and 4 bytes of padding."""
    E = np.arange(-330, 331)
    sci = (E < -4) | (E > 16)
    neg, pos = ~sci & (E < 0), ~sci & (E >= 0)
    ae = np.abs(E)
    records = np.zeros((len(E), 16), np.uint8)
    records[:, :12] = np.array([
        np.where(neg, 17, E * pos), (E + 1) * pos,
        neg * 48, neg * 46, (neg & (E <= -2)) * 48, (neg & (E <= -3)) * 48, (neg & (E <= -4)) * 48,
        sci * 101, sci * (43 + 2 * (E < 0)), (ae >= 100) * (48 + ae // 100),
        sci * (48 + ae // 10 % 10), sci * (48 + ae % 10),
    ]).T
    return records.view(np.uint64)


def _scaled(a, E, ws):
    """(p, t) with p + t = a * 10**(16 - E), p the rounded product, in
    words 2 and 1 of the workspace ws; a may be its word 0.

    With a = m * 2**ex and m in [0.5, 1): a Dekker TwoProduct of m and hi,
    plus m * lo, carries the product to about 2**-100 relative.  Nothing
    overflows; the power-of-two scale is applied last and is exact.
    """
    n = len(a)
    m, ex = ws._words[1, :n], ws._words[2, :n].view(np.int64)
    np.frexp(a, out=(m, ex))
    first = int(E.min())
    table = np.array([_pow10(e) for e in range(first, int(E.max()) + 1)]).T.copy()
    i = ws._words[0, :n].view(np.intp)
    np.subtract(E, first, out=i)
    hi, h1, h2, lo, b = rows = _lead(ws._rows, (5, n), np.float64)
    np.take(table, i, axis=1, out=rows, mode="clip")
    scale = i.view(np.int64)  # the bits of the double 2**(ex + b)
    np.copyto(scale, b, casting="unsafe")
    scale += ex
    scale += 1023
    scale <<= 52
    p = np.multiply(m, hi, out=ex.view(np.float64))
    lo *= m
    # m = m1 + m2, Dekker's split, in the rows of hi and b
    m1, m2 = hi, b
    np.multiply(m, 134217729.0, out=m1)
    np.subtract(m1, m, out=m2)
    m1 -= m2
    np.subtract(m, m1, out=m2)
    # t = (((m1 h1 - p) + m1 h2 + m2 h1) + m2 h2) + m lo, one operation at a time
    t = np.multiply(m1, h1, out=m)
    t -= p
    t += np.multiply(m1, h2, out=m1)
    t += np.multiply(m2, h1, out=h1)
    t += np.multiply(m2, h2, out=h2)
    t += lo
    p *= scale.view(np.float64)
    t *= scale.view(np.float64)
    return p, t


def _number_slots(x, out, ws):
    """Write "%.17g" % v for each float v of x into its slot out[:, ...],
    with the scratch of the workspace ws.

    out is a uint8 view of shape (NUMBER_SLOT - 1,) + x.shape, all of
    whose bytes are written.  Returns the flat indices of x left to fmt:
    non-finite values, and values whose digits after the 17th lie within
    _TIE of a rounding tie.
    """
    x = x.ravel()
    n = len(x)
    if not n:
        return np.empty(0, np.intp)
    zero, regular, f, g, low, high = ws._flags[:6, :n]
    nd, point_after, shown, point = ws._flags[6:, :n].view(np.uint8)
    np.equal(x, 0, out=zero)
    np.isfinite(x, out=regular)
    regular &= np.logical_not(zero, out=f)
    # stand-ins for 0, inf and nan that keep the arithmetic finite
    a, E = ws._words[0, :n], ws._exponents[:n]
    np.fmin(np.abs(x, out=a), np.finfo(float).max, out=a)
    a += zero
    decade = np.log10(a, out=ws._words[1, :n])
    np.copyto(E, np.floor(decade, out=decade), casting="unsafe")
    p, t = _scaled(a, E, ws)
    # log10 can miss the decade next to a power of ten; decide it from the
    # unrounded pair, so that p + t lies in [1e16, 1e17) up to rounding
    np.less(p, 1e16, out=low)
    low |= np.logical_and(np.equal(p, 1e16, out=f), np.less(t, 0, out=g), out=f)
    np.greater(p, 1e17, out=high)
    high |= np.logical_and(np.equal(p, 1e17, out=f), np.greater_equal(t, 0, out=g), out=f)
    fix = np.flatnonzero(np.logical_or(low, high, out=f))
    if fix.size:
        E[fix] += high[fix].astype(np.int16) - low[fix]
        again = np.fmin(np.abs(x[fix]), np.finfo(float).max) + zero[fix]
        p[fix], t[fix] = _scaled(again, E[fix], Workspace(fix.size))
    # p >= 1e16 > 2**53 is an integer, so t holds the whole fraction
    whole = np.floor(t, out=ws._words[0, :n])
    frac = np.subtract(t, whole, out=t)
    rows = _lead(ws._rows, (5, n), np.float64)
    D, spare = rows[:2].view(np.int64)
    np.copyto(D, p, casting="unsafe")
    np.copyto(spare, whole, casting="unsafe")
    D += spare
    D += np.greater(frac, 0.5, out=f)
    near = np.abs(np.subtract(frac, 0.5, out=whole), out=whole)
    np.less(near, _TIE, out=f)
    f &= regular
    f |= np.logical_not(np.logical_or(regular, zero, out=g), out=g)
    left = np.flatnonzero(f)
    carry = np.greater_equal(D, 10**17, out=f)  # 99999999999999999.5 and up round to 1e17
    D -= np.multiply(carry, 9 * 10**16, out=spare)
    E += carry
    D *= regular  # zero: D = 0, E = 0 prints as "0"
    E *= regular

    # the 17 digits, from two uint32 halves, in the last 18 n bytes of the
    # gathered rows; digits[17] = 0
    digits = rows.reshape(-1).view(np.uint8)[-18 * n:].reshape(18, n)
    top, bottom = ws._words[0, :n].view(np.int64), ws._words[2, :n].view(np.int64)
    np.floor_divide(D, 10**8, out=top)
    np.subtract(D, np.multiply(top, 10**8, out=bottom), out=bottom)
    part, quot, tens = (w.view(np.uint32)[:n] for w in (ws._words[1, :n], rows[0], rows[1]))
    for half, last, count in ((top, 8, 9), (bottom, 16, 8)):
        np.copyto(part, half, casting="unsafe")
        for j in range(last, last - count, -1):
            np.floor_divide(part, 10, out=quot)
            np.subtract(part, np.multiply(quot, 10, out=tens), out=digits[j], casting="unsafe")
            part, quot = quot, part
    digits[17] = 0
    shape = out.shape[1:]
    # what depends on E alone, one record a number over the first gathered
    # rows: the "0.000" and "e+ddd" bytes of out, the digit the point
    # follows and the digits shown at least
    records = _lead(ws._rows, (n, 2), np.uint64)
    i = ws._words[0, :n].view(np.intp)
    np.take(_by_exponent(), np.add(E, 330, out=i), axis=0, out=records, mode="clip")
    by_e = records.view(np.uint8).T  # (16, n), strided
    np.copyto(out[1:6], by_e[2:7].reshape(5, *shape))
    np.copyto(out[24:], by_e[7:12].reshape(5, *shape))
    np.copyto(point_after, by_e[0])
    np.copyto(shown, by_e[1])
    # a row per digit: bools over words 0-2, bytes over the first gathered rows
    mask, tmp = _lead(ws._words, (17, n), np.bool_), _lead(ws._rows, (17, n), np.uint8)
    index = np.arange(17, dtype=np.uint8)[:, None]  # of a digit; of a slot, less 1
    # nd: significant digits once trailing zeros are dropped
    tail = np.not_equal(digits[16::-1], 0, out=mask)  # a nonzero digit at or after
    for j in range(1, 17):
        tail[j] |= tail[j - 1]
    np.add.reduce(tail.view(np.uint8), axis=0, out=nd)
    # the point if any digit follows it, and the digits shown
    np.greater(nd, np.add(point_after, 1, out=point), out=f)
    np.multiply(f, np.uint8(46), out=point)
    np.maximum(shown, nd, out=shown)
    digits[:17] += 48
    digits[:17] *= np.less(index, shown, out=mask)
    np.multiply(np.signbit(x, out=f).reshape(shape), np.uint8(45), out=out[0])
    # slot s holds digit s before the point (s <= point_after), the point
    # at s = point_after + 1, then digit s - 1.  Slots 1 to 17 are made in
    # tmp, where row s - 1 is d[s - 1] + (d[s] - d[s - 1]) before, wrapping
    # around modulo 256 exactly, and reach out in one copy: the rows of
    # out are strided, and short for a block of few rows, so each pass
    # over them costs more than one over tmp.
    np.copyto(out[6], digits[0].reshape(shape))
    np.subtract(digits[1:], digits[:-1], out=tmp)
    tmp *= np.less(index, point_after, out=mask)
    tmp += digits[:-1]
    at_point = np.subtract(point, tmp, out=digits[:-1])  # the digits are done with
    at_point *= np.equal(index, point_after, out=mask)
    tmp += at_point
    np.copyto(out[7:24], tmp.reshape(17, *shape))
    return left


def formatted(x, ws=None):
    """(NUMBER_SLOT,) + x.shape uint8 slots of "%.17g," for the 1-D or 2-D
    floats x, in the workspace ws (by default one of x's size, of which
    the slots then keep only their own buffer).  For a 2-D x the array is
    a view in which the slots of each row of x are contiguous: its memory
    is (len(x), NUMBER_SLOT, columns)."""
    ws = Workspace(x.size) if ws is None else ws
    slots = np.moveaxis(_lead(ws._slots, (*x.shape[:-1], NUMBER_SLOT, x.shape[-1]), np.uint8), -2, 0)
    slots[-1] = ord(",")
    for j in _number_slots(x, slots[:-1], ws):
        at = np.unravel_index(j, x.shape)
        cell = fmt(x[at]).encode()
        slots[(slice(-1), *at)] = 0
        slots[(slice(len(cell)), *at)] = np.frombuffer(cell, np.uint8)
    return slots
