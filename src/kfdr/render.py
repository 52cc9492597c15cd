"""CSV rows of float64, bool and empty cells, rendered in numpy.

``rows_text(first, columns)`` gives the rows ``{index},{cell},...\\n`` for
the indices ``first, first + 1, ...``: a float64 cell printed as its
``repr``, a bool cell as ``true`` or ``false``, a ``None`` column as an
empty cell. The bytes are those of the f-strings, for the columns that
``check_columns`` accepts: floats in [0, 1], -0.0 included.

``_shortest`` finds each float's digits. It is Giulietti's Schubfach ("The
Schubfach way to render doubles", the algorithm of Java 19's
``Double.toString``; compare Ryu, Adams, PLDI 2018), one numpy operation
per step over a whole array. Java prints at least two digits; ``repr``
prints the shortest decimal that reads back as the same float, so the
shorter candidate is tried at every length. The 128-bit products are built
from 32-bit limbs, and every operand is an explicit ``uint64`` or
``int64``, so numpy 1's and numpy 2's promotion rules give the same bits.

Each row is then laid out in a fixed-width ``uint8`` matrix, with NUL in
every column a row does not use: the index right-aligned, and per float a
prefix (a comma, the sign, ``0.`` and leading zeros, or the first digit
and a point), up to 16 more digits and an exponent suffix. The NULs are
then dropped from the whole matrix in one ``bytes.translate``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .numerics import in_unit_interval

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)

# Rows laid out in one matrix: enough to spread numpy's per-call cost, few
# enough that the temporaries stay small.
_ROWS_PER_MATRIX = 4096
# A float field: the prefix (right-aligned: a comma, the sign, '0.' and
# leading zeros, or the first digit and a point), 16 more digits
# (left-aligned) and the suffix ('e-' and the exponent, right-aligned).
_PREFIX, _DIGITS, _SUFFIX = 8, 16, 5
_FIELD = _PREFIX + _DIGITS + _SUFFIX
# The prefix by form: 1.0, a point 0 to 3 places left of the first digit D,
# or an exponent after one digit or more.
_PREFIX_FORMS = (",D.0", ",0.D", ",0.0D", ",0.00D", ",0.000D", ",D", ",D.")
# Offsets into _QUADS.
_NO_TRAILING, _NO_LEADING = 10000, 20000


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Schubfach's constants by 2 * biased exponent + (significand bits all
    zero): the scale k, the shift h, and the four 32-bit limbs, lowest
    first, of g(-k) = floor(10^-k 2^(127 - floor(-k log2 10))) + 1, an
    integer in (2^127, 2^128), from exact Python ints, for the biased
    exponents of [0, 1]."""
    biased, empty = np.divmod(np.arange(2 * 1024, dtype=np.int64), 2)
    q = np.maximum(biased, 1) - 1075
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) where the lower neighbour
    # of a power of two is closer: c = 2^52 above the subnormals.
    k = (q * 1262611 - (empty & (biased > 1)) * 524031) >> 22
    h = q + ((-k * 1741647) >> 19) + 1
    g = []
    for big in range(-k.max(), -k.min() + 1):
        shift = 127 - ((big * 1741647) >> 19)
        numerator = 10 ** max(big, 0) << max(shift, 0)
        g.append(numerator // (10 ** max(-big, 0) << max(-shift, 0)) + 1)
    rows = k.max() - k
    limbs = [np.array([(v >> s) & 0xFFFFFFFF for v in g], np.uint64)[rows] for s in (0, 32, 64, 96)]
    return (k, h.astype(np.uint64), *limbs)


def _mul_hi(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), for 32-bit limbs
    and b1 < 2^31, so that a0 b1 plus two 32-bit numbers cannot overflow."""
    m1 = a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (m1 & _MASK32) + a0 * b1
    return a1 * b1 + (m1 >> _U64(32)) + (mid >> _U64(32))


def _round_to_odd(g: Sequence[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128), with its lowest bit set where bits 64-127 of the
    192-bit product are not all zero (Schubfach's ``rop``). Bits 0-63 are
    left out: g is one above its exact value, so where g cp / 2^128 would
    be an integer, only those bits see the difference."""
    b0, b1 = cp & _MASK32, cp >> _U64(32)
    middle = ((g[3] << _U64(32)) | g[2]) * cp
    bits = middle + _mul_hi(g[0], g[1], b0, b1)
    return (_mul_hi(g[2], g[3], b0, b1) + (bits < middle)) | (bits != _U64(0))


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For positive finite float64 ``x``, integer arrays d (uint64) and e
    (int64) with d 10^e the shortest decimal that reads back as ``x``, the
    closest one where there are several, and the one with even last digit
    on a tie. d may end in zeros.

    As Schubfach's ``ToDecimal``: the rounding interval of x is narrower
    than 10^(k+1) (``_scaled``), so it holds at most one multiple of
    10^(k+1); where it holds one, that is the answer. Else the answer is
    s 10^k or (s + 1) 10^k, s = floor(x / 10^k): the one inside the
    interval, or the closer where both are.
    """
    k, vb, vbl, vbr = _scaled(x)
    s = vb >> _U64(2)
    shorter = s // _U64(10)
    one_up = (vbl <= shorter * _U64(40)) != (shorter * _U64(40) + _U64(40) <= vbr)
    u_in = vbl <= s << _U64(2)
    w_in = (s << _U64(2)) + _U64(4) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    closer_w = (vb > mid) | ((vb == mid) & (s & _U64(1)).astype(np.bool_))
    d = s + ((u_in != w_in) & w_in | (u_in == w_in) & closer_w)
    # Where the interval holds a multiple of 10^(k+1), it is shorter + 1
    # exactly where shorter 10^(k+1) lies below the interval.
    d += (shorter + (vbl > shorter * _U64(40)) - d) * one_up
    return d, k + one_up


def _scaled(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """k, and vb, vbl and vbr: for x = c 2^q, 4 x and its lower and upper
    rounding bounds in units of 10^k, each rounded to odd, with the bounds
    moved in by one where c is odd, so that they exclude the midpoints to
    the neighbouring floats there."""
    bits = x.view(np.uint64)
    biased = bits >> _U64(52)
    c = bits & _U64(2**52 - 1)
    empty = c == _U64(0)
    code = ((biased << _U64(1)) + empty).astype(np.int64)
    # The lower neighbour is half as far where c = 2^52 above the smallest
    # exponent.
    lower = _U64(2) - (empty & (biased > _U64(1))).astype(np.uint64)
    c |= (biased != _U64(0)).astype(np.uint64) << _U64(52)
    g = [limb[code] for limb in _G_TABLE]
    h = _H_TABLE[code]
    odd = c & _U64(1)
    cb = c << _U64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - lower) << h) + odd
    vbr = _round_to_odd(g, (cb + _U64(2)) << h) - odd
    return _K_TABLE[code], vb, vbl, vbr


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout's byte patterns:

    - quads: the four ASCII digits of q = 0..9999 as a uint32 at q, with
      the trailing zeros NUL at _NO_TRAILING + q, and with the leading
      zeros NUL at _NO_LEADING + q;
    - prefixes: a prefix's 8 bytes by (form * 2 + sign) * 10 + first digit;
    - suffixes: by 1 - point, 'e-' and the exponent in the first 5 of 8
      bytes, or NUL where there is no exponent.
    """
    q = np.arange(10000, dtype=np.int16)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8)
    zero = digits == 0
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    digits += ord("0")
    quads = np.concatenate([digits, digits * ~trailing, digits * ~leading])
    prefixes = [
        form.replace(",", ",-" if sign else ",").replace("D", str(lead))
        for form in _PREFIX_FORMS for sign in (0, 1) for lead in range(10)
    ]
    suffixes = [f"e-{e:02d}" if e >= 5 else "" for e in range(325)]
    return (
        quads.view(np.uint32).ravel(),
        np.array([p.rjust(8, "\0").encode() for p in prefixes], "S8").view(np.uint64),
        np.array([s.rjust(_SUFFIX, "\0").encode() for s in suffixes], "S8").view(np.uint64),
    )


# Built once, at import: ``cli`` imports this module before it forks its
# writers, so they inherit the tables instead of each building them.
_K_TABLE, _H_TABLE, *_G_TABLE = _exponent_tables()
_QUADS, _PREFIXES, _SUFFIXES = _layout_tables()


def check_columns(columns: Sequence[np.ndarray | None]) -> None:
    """Raise RuntimeError unless ``columns`` are what ``rows_text`` prints:
    one-dimensional arrays of one length, at least one, and the columns in
    this order: any ``None``, float64 arrays with every entry in [0, 1],
    at most one bool array."""
    kinds = [0 if c is None else {"float64": 1, "bool": 2}.get(c.dtype.name, 3) for c in columns]
    shapes = {c.shape for c in columns if c is not None}
    if kinds != sorted(kinds) or kinds.count(2) > 1 or 3 in kinds or len(shapes) != 1:
        raise RuntimeError("table columns must be None, then float64, then at most one bool")
    if len(shapes.pop()) != 1:
        raise RuntimeError("table columns must be one-dimensional")
    if not all(in_unit_interval(c) for c, kind in zip(columns, kinds) if kind == 1):
        raise RuntimeError("a float to print lies outside [0, 1]")


def rows_text(first: int, columns: Sequence[np.ndarray | None]) -> str:
    """The CSV rows of ``columns``, which pass ``check_columns``, indexed
    from ``first``, laid out ``_ROWS_PER_MATRIX`` rows at a time."""
    rows = next(c.size for c in columns if c is not None)
    step = _ROWS_PER_MATRIX
    return "".join(
        _matrix_text(first + start, [c if c is None else c[start : start + step] for c in columns])
        for start in range(0, rows, step)
    )


def _matrix_text(first: int, columns: Sequence[np.ndarray | None]) -> str:
    """``rows_text`` of one matrix of rows."""
    empty = sum(c is None for c in columns)
    floats = [c for c in columns if c is not None and c.dtype == np.float64]
    flags = [c for c in columns if c is not None and c.dtype == np.bool_]
    rows = (floats or flags)[0].size
    groups = -(-len(str(first + rows - 1)) // 4)
    start = 4 * groups + empty
    stop = start + _FIELD * len(floats)
    text = np.zeros((rows, stop + 6 * len(flags) + 1), np.uint8)
    text[:, 4 * groups : start] = ord(",")
    text[:, -1] = ord("\n")

    # The index, four digits at a time, with its leading zeros NUL.
    index = np.arange(first, first + rows, dtype=np.int64)
    leading = np.full(rows, _NO_LEADING)
    for group in range(groups):
        quad = index // 10 ** (4 * (groups - 1 - group)) % 10000
        text[:, 4 * group : 4 * group + 4] = _QUADS[leading + quad, None].view(np.uint8)
        leading *= quad == 0
    if floats:
        fields = text[:, start:stop].reshape(rows, len(floats), _FIELD)
        _float_fields(np.stack(floats, axis=1), fields)
    if flags:
        booleans = np.frombuffer(b",false\0\0,true\0\0\0", np.uint64)
        text[:, stop : stop + 6] = booleans[flags[0].view(np.uint8), None].view(np.uint8)[:, :6]
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _float_fields(values: np.ndarray, text: np.ndarray) -> None:
    """Write the ``repr`` of each entry of ``values``, shape [rows,
    fields], into ``text``, shape [rows, fields, _FIELD], with NUL in every
    column the number does not use."""
    positive = values > 0.0
    d, e = _shortest(np.where(positive, values, 1.0))
    # Zero prints as 0.0: one digit 0, with the point just before it.
    d *= positive
    n = np.searchsorted(_POW10[1:], d, side="right") + 1
    point = (e + n) * positive
    # d moved left to 17 digits: the first digit, then 16 more.
    d *= _POW10[17 - n]
    lead = d // _POW10[16]
    rest = (d - lead * _POW10[16]).astype(np.int64)
    # Python's repr takes the exponent form where the point is 4 or more
    # places left of the first digit.
    exponent = 1 - point
    form = np.minimum(exponent, 5) + ((exponent > 4) & (rest != 0))
    code = (form * 2 + np.signbit(values)) * 10 + lead.astype(np.int64)
    text[..., :_PREFIX] = _PREFIXES[code, None].view(np.uint8)

    high = rest // 10**8
    low = rest - high * 10**8
    digits = np.empty((*values.shape, 4), np.int64)
    digits[..., 0] = high // 10000
    digits[..., 1] = high - digits[..., 0] * 10000
    digits[..., 2] = low // 10000
    digits[..., 3] = low - digits[..., 2] * 10000
    # Where the digits after a quad are all zero, its trailing zeros and
    # theirs are NUL.
    digits[..., 3] += _NO_TRAILING
    digits[..., 2] += _NO_TRAILING * (digits[..., 3] == _NO_TRAILING)
    digits[..., 1] += _NO_TRAILING * (low == 0)
    digits[..., 0] += _NO_TRAILING * ((low == 0) & (digits[..., 1] == _NO_TRAILING))
    text[..., _PREFIX : _PREFIX + _DIGITS] = _QUADS[digits].view(np.uint8)
    text[..., _PREFIX + _DIGITS :] = _SUFFIXES[exponent, None].view(np.uint8)[..., :_SUFFIX]
