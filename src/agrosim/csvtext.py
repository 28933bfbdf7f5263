"""CSV lines of float64 rows, each value the exact text of ``"%.17g" % v``.

:func:`rows` formats a block of rows in numpy, byte for byte as CPython's
``%.17g`` (correctly rounded, half to even), with no Python call per value
for the values it covers: zero, NaN, +-inf and every finite ``v`` whose
decimal exponent ``P = floor(log10|v|)`` lies in [-99, 16], that is
``1e-99 <= |v| < 1e17`` up to the doubles next to the ends.  The 17 digits
are ``|v| * 10**q`` rounded half to even to an integer D, with ``q = 16 -
P``.  For ``q <= 22``, ``10**q`` is exact in binary64, and Dekker's exact
product (T. J. Dekker, Numer. Math. 18, 1971) gives ``|v| * 10**q`` as
``prod + err`` with no rounding.  ``prod`` is then an even integer (it is
at least ``2**53``), so ``int(prod) + rint(err)`` is D.  A larger ``q`` is
applied as exact factors ``10**22``, ..., ``10**22``, ``10**(q - 22k)``:
each stage multiplies ``prod`` and ``err`` by the next factor, exactly,
and keeps the new product and the rounded sum of the three error terms.
That sum is within about ``2**-42`` of the exact remainder, so ``rint``
of it is D unless its fraction lies within ``2**-30`` of one half (a tie
such as ``3 * 2**-24`` included); those few values are formatted apart.
``P`` starts from ``log10``, which may be one off near a power of ten; the
product says which way (below ``10**16``: one lower; D at or above
``10**17``: one higher), and the digits are made once more with the
corrected exponent.

Each value's text is laid out in a slot of :data:`_WIDTH` bytes, with a
column of its own for the sign, the leading ``0.000``, each digit, the
point, the exponent and the separator.  Masks chosen by the value's
exponent and number of significant digits fill the slot, the columns a
value does not use hold NUL, and the NULs are deleted from the block at
the end; NaN and inf are constant slots, and a NaN's sign is not written,
as ``%`` writes none.  Every other value (a subnormal, anything outside
the covered range, a value whose exponent is still off after the
correction, or one whose rounding is too close to call) is formatted by
``"%.17g" % v`` into its own slot, so no value's text depends on the
range.

:mod:`agrosim.sim` imports this module with the first CSV it writes, so
its tables are built then, not when agrosim is imported.
"""

from __future__ import annotations

import numpy as np

#: Decimal exponents formatted in numpy; the lowest is the last whose
#: exponent text has two digits, so every separator falls in column 29.
_P_MIN, _P_MAX = -99, 16
#: The largest power of ten that is exact in binary64.
_Q_EXACT = 22
#: How close to one half the fraction of a rounded remainder may come
#: before its rounding is left to ``%``; its error is about ``2**-42``.
_TIE_MARGIN = 2.0 ** -30
#: Bytes of a value's slot; column 29 holds its separator.
_WIDTH, _SEP = 32, 29
#: The widest ``%.17g`` text of a value outside the covered range.
_FALLBACK_WIDTH = 24
#: Veltkamp's splitter for binary64, 2**27 + 1.
_SPLIT = 134217729.0


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``x == hi + lo`` exactly, each with at most 26
    significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _pattern(p: int, nd: int) -> str:
    """A slot for exponent ``p`` and ``nd`` significant digits (1 for zero):
    ``A`` takes a digit of the canvas, ``B`` one of the canvas moved a column
    right (a digit after the point), and every other character is written as
    it stands (upper case, as ``nan`` is a constant slot).  The sign goes to
    column 0 and digit k to column 7 + k."""
    if p < -4:  # d.ddd e-XX
        body = "A" + ("." + "B" * (nd - 1) if nd > 1 else "")
        return ("\0" * 7 + body).ljust(25, "\0") + f"e{p:+03d},".ljust(7, "\0")
    if p < 0:  # 0.000ddd
        body = ("\0" + "0." + "0" * (-1 - p)).ljust(7, "\0") + "A" * nd
    else:  # ddd.ddd
        body = "\0" * 7 + "A" * (p + 1) + ("." + "B" * (nd - p - 1) if nd > p + 1 else "")
    return _constant(body)


def _constant(text: str) -> str:
    """A slot holding ``text`` from column 0 and the separator."""
    return text.ljust(_SEP, "\0") + ",".ljust(_WIDTH - _SEP, "\0")


# 10**min(q, 22) for each q = 16 - P, with their splits: the largest exact
# power of ten, and so a first factor of any larger 10**q
_POW10 = np.array([float(10 ** min(q, _Q_EXACT)) for q in range(_P_MAX - _P_MIN + 1)])
_POW10_HI, _POW10_LO = _split(_POW10)
# the digits of 0..9999: as 32-bit words of four ASCII digits (columns 8-23
# of a slot), and their trailing zeros; and a first digit's word (column 7)
_TH, _HU, _TE, _ON = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_DIGITS4 = (np.stack([_TH, _HU, _TE, _ON], axis=1) + np.uint8(ord("0"))).view(np.uint32).ravel()
_ZEROS4 = (_ON == 0) * (1 + (_TE == 0) * (1 + (_HU == 0) * (1 + (_TH == 0)))).astype(np.uint8)
_FIRST = np.zeros((10, 4), np.uint8)
_FIRST[:, 3] = np.arange(10) + ord("0")
_FIRST = _FIRST.view(np.uint32).ravel()
# one slot per class (P - _P_MIN) * 17 + nd - 1, then NaN's, inf's and an
# empty one for the values formatted apart; as four 64-bit words each
_SLOTS = np.frombuffer("".join(
    [_pattern(p, nd) for p in range(_P_MIN, _P_MAX + 1) for nd in range(1, 18)]
    + [_constant("\0" * 7 + "nan"), _constant("\0" * 7 + "inf"), _constant("")]
).encode("ascii"), np.uint8).reshape(-1, _WIDTH)
_NAN, _INF, _APART = range(len(_SLOTS) - 3, len(_SLOTS))
_MASK_A, _MASK_B = (np.where(_SLOTS == ord(c), 0xFF, 0).astype(np.uint8).view(np.uint64)
                    for c in "AB")
_CONST = np.where((_SLOTS == ord("A")) | (_SLOTS == ord("B")), 0, _SLOTS).astype(np.uint8)
_CONST = _CONST.view(np.uint64)


def _times_pow10(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product of ``a`` and ``10**min(q, 22)``: ``prod + err``,
    equal to it exactly, one rounding per ufunc."""
    s_hi, s_lo = np.take(_POW10_HI, q), np.take(_POW10_LO, q)
    prod = a * np.take(_POW10, q)
    a_hi, a_lo = _split(a)
    return prod, a_hi * s_hi - prod + a_hi * s_lo + a_lo * s_hi + a_lo * s_lo


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """``a * 10**(16 - p)`` rounded half to even to an integer D, as int64;
    whether ``p`` is too high (the product is below ``10**16``) or too low
    (D is ``10**17`` or more); and the indices of the values whose D is too
    close to a tie to call."""
    q = 16 - p
    prod, err = _times_pow10(a, q)
    stretched = deep = np.flatnonzero(q > _Q_EXACT)
    while deep.size:  # 10**q in exact factors: apply the next to both parts
        q[deep] -= _Q_EXACT
        f = q[deep]
        prod[deep], e1 = _times_pow10(prod[deep], f)
        e2, e3 = _times_pow10(err[deep], f)
        err[deep] = e1 + e2 + e3
        deep = deep[f > _Q_EXACT]
    # the sum may exceed half an ulp of prod: move its whole part into prod
    # (Fast2Sum, exact), so that prod and the sign of err place it against 10**16
    top = prod[stretched]
    prod[stretched] = top + err[stretched]
    rest = err[stretched] - (prod[stretched] - top)
    err[stretched] = rest
    unsure = stretched[np.abs(rest - np.floor(rest) - 0.5) < _TIE_MARGIN]
    d = prod.astype(np.int64) + np.rint(err).astype(np.int64)
    low = (prod < 1e16) | ((prod == 1e16) & (err < 0))
    return d, low, d >= 10 ** 17, unsure


def rows(block: np.ndarray) -> str:
    """The CSV lines of the rows of the 2-D float64 array ``block``: each
    value as ``"%.17g" % v``, separated by commas, each row ending in a
    newline."""
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 10.0 ** _P_MIN) & (a < 10.0 ** (_P_MAX + 1))
    a = np.where(ok, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.intp)
    np.clip(p, _P_MIN, _P_MAX, out=p)
    d, low, high, unsure = _scaled(a, p)
    ok[unsure] = False
    off = np.flatnonzero(low | high)
    if off.size:  # log10 was one off: make the digits again with the exact exponent
        p[off] += high[off].astype(np.intp) - low[off]
        inside = (p[off] >= _P_MIN) & (p[off] <= _P_MAX)
        ok[off[~inside]] = False
        off = off[inside]
        d[off], low, high, unsure = _scaled(a[off], p[off])
        ok[off[low | high]] = False
        ok[off[unsure]] = False
    ok |= zero
    d[~ok | zero] = 0  # zero, made 1.0 above, has exponent 0 and digits 0

    # the 17 digits: a first one and four groups of four, from 32-bit parts
    hi = d // 10 ** 8
    lo = (d - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    c1, c3 = hi // 10 ** 4, lo // 10 ** 4
    c2, c4 = hi - c1 * 10 ** 4, lo - c3 * 10 ** 4
    # trailing zeros of the last 16 digits (zero has 16 and one digit, 0):
    # four at a time from the right, past the last four only where all zero
    tz = np.take(_ZEROS4, c4)
    more = np.flatnonzero(c4 == 0)
    for chunk in (c3, c2, c1):
        tz[more] += np.take(_ZEROS4, chunk[more])
        more = more[chunk[more] == 0]
    cls = (p - _P_MIN) * 17 + (16 - tz)
    apart = np.flatnonzero(~ok)
    left = x[apart]
    nan, finite = np.isnan(left), np.isfinite(left)
    cls[apart] = np.where(nan, _NAN, np.where(finite, _APART, _INF))

    m = len(x)
    canvas = np.zeros((m, _WIDTH // 4), np.uint32)
    canvas[:, 1] = np.take(_FIRST, d0)
    for col, chunk in enumerate((c1, c2, c3, c4), start=2):
        canvas[:, col] = np.take(_DIGITS4, chunk)
    moved = np.empty(m * _WIDTH, np.uint8)  # the canvas one column right
    moved[0] = 0
    moved[1:] = canvas.view(np.uint8).ravel()[:-1]
    text = canvas.view(np.uint64)
    text &= np.take(_MASK_A, cls, axis=0)
    text |= moved.view(np.uint64).reshape(m, -1) & np.take(_MASK_B, cls, axis=0)
    text |= np.take(_CONST, cls, axis=0)
    slots = text.view(np.uint8)
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    slots[apart[nan], 0] = 0  # "%.17g" writes no sign for NaN
    apart = apart[finite]
    if apart.size:
        texts = np.array(["%.17g" % v for v in left[finite].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        slots[apart, :_FALLBACK_WIDTH] = texts.view(np.uint8).reshape(-1, _FALLBACK_WIDTH)
    slots.reshape(block.shape[0], -1)[:, _SEP - _WIDTH] = ord("\n")
    return slots.tobytes().translate(None, b"\0").decode("ascii")
