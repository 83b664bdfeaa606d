"""CSV rows of numpy columns, laid out in bulk: floats byte for byte as ``float.__repr__``, ints as ``str``.

``float.__repr__`` writes the shortest decimal string that reads back as the
same double, and of those the nearest to it.  ``format_rows`` finds that
string for a whole column at once, with numpy:

1. Scale each |x| by 10^k so that the product P lies in [1e16, 1e17).  k
   comes from ``log10`` and is corrected once against P.  P is formed as a
   double-double product of x's mantissa and a (hi, lo) pair of 10^k built
   from Python ints (Dekker, *Numer. Math.* 18, 1971), so it is exact to
   about 1e-14 of its last unit.
2. Round P to the nearest integer (17 digits), and to 16 and to 15 digits
   with P's fraction carried along, so every rounding is exact.
3. Keep the shortest of these that lies inside x's rounding interval,
   P +- half an ulp of x scaled by 10^k.  For a normal double at most one
   15-digit decimal fits in that interval, so a shorter repr is the 15-digit
   rounding without its trailing zeros; among several 16- or 17-digit
   decimals inside, the nearest rounding is the one repr keeps (the
   shortest-then-nearest rule of Adams, "Ryu", PLDI 2018).
4. Lay the digits out as repr does: positional for 1e-4 <= |x| < 1e16,
   with ``.0`` on integral values, otherwise ``d.ddde+XX``.

Zeros and the normal powers of two (whose rounding interval is not
symmetric) take their digits from their reprs, each made once.
Every other value this cannot decide with margin is handed to
``float.__repr__``: nan, infinities and subnormals, and values that lie
within ``_MARGIN`` units of P's last digit of a rounding tie or of the
interval's edge.  Ints from 0 to 9999 are laid out by one lookup in a table
of their cells.

Cells are laid out in uint64 words of eight ASCII bytes, byte j of a cell
in bits 8*(j % 8) of word j // 8, beside a word mask whose bytes are 1
where the cell has a character.  A row is the cells' words side by side,
stored little-endian whatever the host, and the bytes under the mask are
the row's text.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

#: Decisions closer than this (in units of P's last digit) to a tie or to the interval's edge fall back.
_MARGIN = 1e-6

#: Decimal exponents e of the fast path: every normal double, and one more each way for log10's slip.
_E_MIN, _E_MAX = -309, 309

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_SMALLEST_NORMAL, _LARGEST = 2.2250738585072014e-308, 1.7976931348623157e308

_U = np.uint64
_LITTLE = np.dtype("<u8")  # words whose bytes are the text in order
_BYTE_ONES, _DOTS = _U(0x0101010101010101), _U(0x2E2E2E2E2E2E2E2E)


def _normalized(num: int, den: int) -> Tuple[float, float, int]:
    """(hi, lo, f) with hi in [1, 2) and (hi + lo) * 2**f = num / den to about 2**-106."""
    f = num.bit_length() - den.bit_length()
    if (num << max(-f, 0)) < (den << max(f, 0)):
        f -= 1
    a, b = num << max(-f, 0), den << max(f, 0)  # a / b in [1, 2)
    hi = a / b  # int true division rounds correctly
    lo = (a * 2**52 - int(hi * 2**52) * b) / (b * 2**52)
    return hi, lo, f


#: The key ``_exact_digits`` takes for zero: no ``np.frexp`` exponent of a double.
_ZERO = 2**11


@lru_cache(maxsize=None)
def _exact_digits(exponent: int) -> Tuple[int, int]:
    """``_shortest``'s 17 digits and decimal exponent of ``2**(exponent - 1)`` (its repr's), or of zero (``_ZERO``)."""
    if exponent == _ZERO:
        return 0, 0
    mantissa, _, power = repr(2.0 ** (exponent - 1)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    leading = len(whole + fraction) - len(digits)  # zeros before the first digit, as in "0.0005"
    return int(digits) * 10 ** (17 - len(digits)), int(power or 0) + len(whole) - 1 - leading


def _words(texts: Sequence[str], width: int) -> np.ndarray:
    """``(len(texts), width // 8)`` words holding ``texts``, each NUL-padded to ``width`` bytes."""
    data = "".join(text.ljust(width, "\0") for text in texts).encode()
    return np.frombuffer(data, dtype=_LITTLE).reshape(len(texts), width // 8).astype(np.uint64)


_TABLES: Dict[str, np.ndarray] = {}


def _tables() -> Dict[str, np.ndarray]:
    """Lookup tables, built on first use so that importing the package stays cheap."""
    if not _TABLES:
        k = range(16 - _E_MAX, 16 - _E_MIN + 1)  # row _E_MAX - e scales by 10**(16 - e)
        hi, lo, shift = zip(*(_normalized(10**j, 1) if j >= 0 else _normalized(1, 10**-j) for j in k))
        hi = np.array(hi)
        split = hi * _SPLITTER
        high = split - (split - hi)
        value = np.arange(10000)
        digits = [value // 1000, value // 100 % 10, value // 10 % 10, value % 10]
        exponents = [f"e{e:+03d}" for e in range(_E_MIN, _E_MAX + 1)]
        # [w, c]: the bytes of word w that lie below byte c of a three-word cell
        below = [[8 * min(max(c - 8 * w, 0), 8) for c in range(25)] for w in range(3)]
        low = np.array([[(1 << bits) - 1 for bits in row] for row in below], dtype=np.uint64)
        _TABLES.update(
            powers=np.array([hi, high, hi - high, np.array(lo), np.array(shift)]),
            quads=sum(((d + 0x30) << (8 * j)).astype(np.uint32) for j, d in enumerate(digits)),  # "dddd"
            quad_zeros=sum((value % 10**j == 0).astype(np.uint8) for j in range(1, 5)),  # trailing zeros of "dddd"
            exponent_chars=_words(exponents, 8)[:, 0],
            exponent_valid=_words(["\1" * len(text) for text in exponents], 8)[:, 0],
            fills=_words(["-" + "0" * t for t in range(5)], 8)[:, 0],  # the sign, then t zeros
            low=low,
            low_ones=low & _BYTE_ONES,
        )
        _TABLES["small_ints"] = _digit_cells(value)  # the cells of 0 to 9999
    return _TABLES


def _scaled(mantissa: np.ndarray, exponent: np.ndarray, e: np.ndarray):
    """P = x * 10**(16 - e) for x = mantissa * 2**exponent: its nearest integer, fraction and half ulp of x."""
    hi, hi_high, hi_low, lo, shift = _tables()["powers"].take(_E_MAX - e, axis=1)
    m_high = mantissa * _SPLITTER
    m_high -= m_high - mantissa
    m_low = mantissa - m_high
    product = mantissa * hi
    error = m_high * hi_high  # error = (((m_high*hi_high - product) + m_high*hi_low) + m_low*hi_high) + ...
    error -= product
    error += m_high * hi_low
    error += m_low * hi_high
    error += m_low * hi_low  # ... the product's exact rounding error, then its share of lo
    error += mantissa * lo
    scale = shift.astype(np.int32)
    scale += exponent
    nearest = np.ldexp(product, scale, out=product).astype(np.int64)  # an integer once P >= 1e16 > 2**53
    fraction = np.ldexp(error, scale, out=error)
    carry = np.rint(fraction)
    fraction -= carry
    nearest += carry.astype(np.int64)
    scale -= 54
    return nearest, fraction, np.ldexp(hi, scale, out=carry)


def _shortest(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of normal, positive ``a`` that is no power of two.

    Returns the 17 digits (an int64 in [1e16, 1e17) whose trailing zeros are
    not part of the repr), the decimal exponent and a mask of the values
    that must fall back to ``float.__repr__``.
    """
    mantissa, exponent = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int32)
    nearest, fraction, half_ulp = _scaled(mantissa, exponent, e)
    redo = np.flatnonzero((nearest >= 10**17) | (nearest < 10**16))  # log10 was one off
    if redo.size:
        e[redo] += np.where(nearest[redo] >= 10**17, 1, -1).astype(np.int32)
        nearest[redo], fraction[redo], half_ulp[redo] = _scaled(mantissa[redo], exponent[redo], e[redo])
    last2 = nearest - nearest // 100 * 100  # the digits a 15-digit rounding drops
    r15 = last2.astype(np.float64)
    r16 = np.floor(r15 / 10)
    r16 *= -10
    r16 += r15  # the digit a 16-digit rounding drops
    last1 = r16.astype(np.int64)
    r15 += fraction  # P less its 15-digit truncation, in [-0.5, 99.5]
    r16 += fraction  # P less its 16-digit truncation, in [-0.5, 9.5]
    up15, up16 = r15 > 50, r16 > 5
    d15 = np.abs(r15 - 100 * up15, out=r15)  # |P - its 15-digit rounding|
    d16 = np.abs(r16 - 10 * up16, out=r16)
    # undecided near the interval's edge or near a tie (a 15-digit tie, 50 away, is never inside)
    margin = np.abs(d15 - half_ulp)
    np.minimum(margin, np.abs(d16 - half_ulp), out=margin)
    np.minimum(margin, 5 - d16, out=margin)
    np.minimum(margin, 0.5 - np.abs(fraction), out=margin)
    undecided = margin < _MARGIN
    undecided |= nearest < 10**16
    undecided |= nearest > 10**17
    # the shortest: 15 digits if inside, else 16 if inside, else 17
    last1 -= 10 * up16
    last1 *= d16 < half_ulp
    last2 -= 100 * up15
    in15 = d15 < half_ulp
    nearest -= np.where(in15, last2, last1)
    carried = nearest == 10**17  # rounded up to the next power of ten
    nearest[carried] = 10**16
    e += carried
    return nearest, e, undecided


def _float_cells(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(chars, valid)`` words, 3 or 4 per value: the bytes of ``float.__repr__(x[i])``, the last byte free.

    Byte 0 is the sign and the body follows; the exponent ``e+XX`` fills a
    fourth word when any value needs one.
    """
    t = _tables()
    a = np.abs(x)
    mantissa, exponent = np.frexp(a)
    fast = (a >= _SMALLEST_NORMAL) & (a <= _LARGEST)
    power = fast & (mantissa == 0.5)
    zero = a == 0.0
    digits, e, undecided = _shortest(np.where(fast & ~power, a, 3.0))  # 3.0: any normal non-power of two
    fast |= zero
    fast &= ~undecided
    exact = np.flatnonzero(power | zero)  # their digits from their reprs, one per distinct value of |x|
    if exact.size:
        keys, key_of = np.unique(np.where(zero[exact], _ZERO, exponent[exact]), return_inverse=True)
        digits[exact], e[exact] = np.array([_exact_digits(int(key)) for key in keys]).T[:, key_of]
    del mantissa, exponent, power, zero
    positional = (e >= -4) & (e <= 15)
    scientific = fast & ~positional
    slow = np.flatnonzero(~fast)
    texts = [float.__repr__(value) for value in x[slow].tolist()]
    words = max(3 + bool(scientific.any()), 1 + max(map(len, texts), default=0) // 8)
    # d0 and four groups of four digits, split in doubles, which hold 9 digits exactly
    head = digits // 10**8
    low = (digits - head * 10**8).astype(np.float64)
    high = head.astype(np.float64)
    lead = np.floor(high / 1e8)  # a correctly rounded quotient never reaches the next integer
    high -= lead * 1e8
    groups = []
    for part in (high, low):
        top = np.floor(part / 1e4)
        groups += [top.astype(np.intp), (part - top * 1e4).astype(np.intp)]
    quads = [t["quads"].take(group) for group in groups]
    trailing = t["quad_zeros"].take(groups[0])
    for group in groups[1:]:
        trailing *= group == 0
        trailing += t["quad_zeros"].take(group)
    # byte 0 for the sign (filled below), then the 17 digits "d dddd dddd dddd dddd", over three words
    cell = np.empty((3, x.size), dtype=np.uint64)
    cell[0] = lead.astype(np.uint64)
    cell[0] += _U(0x30)
    cell[0] <<= _U(8)
    cell[0] |= quads[0] << _U(16)
    cell[0] |= quads[1] << _U(48)
    np.right_shift(quads[1], _U(16), out=cell[1])
    cell[1] |= quads[2] << _U(16)
    cell[1] |= quads[3] << _U(48)
    np.right_shift(quads[3], _U(16), out=cell[2])
    del head, low, high, lead, groups, quads
    # below 1: "0" then t - 1 zeros before the digits, as the digits of "0.000ddd" with t = -e zeros
    zeros = np.where(positional & (e < 0), -e, 0)
    if zeros.any():
        bits = (8 * zeros).astype(np.uint64)
        carry = cell[:-1] >> (_U(64) - bits)  # a shift by 64 gives 0
        cell <<= bits
        cell[1:] |= carry
    cell[0] |= t["fills"].take(zeros)
    # the point after e + 1 digits (after 1 when below 1 or in scientific form): byte e + 2 or 2
    point = np.where(positional, np.maximum(e, 0), 0) + 2
    # the body is the digits up to the point, the point, then the digits one byte on
    chars = np.zeros((words, x.size), dtype=np.uint64)
    body = np.left_shift(cell, _U(8), out=chars[:3])
    body[1:] |= cell[:-1] >> _U(56)
    through = t["low"].take(point + 1, axis=1)
    dot = np.bitwise_xor(body, _DOTS)
    dot &= through
    body ^= dot  # the point and beyond: the point, then the digits one byte on
    before = t["low"].take(point, axis=1, out=through)
    np.bitwise_xor(body, cell, out=dot)
    dot &= before
    body ^= dot  # before the point: the digits
    del cell, dot, before, through
    significant = 17 - trailing
    length = np.where(positional, np.maximum(significant + zeros + 1, point + 1), significant + (significant > 1))
    valid = np.zeros(chars.shape, dtype=np.uint64)
    t["low_ones"].take(length + 1, axis=1, out=valid[:3])
    valid[0] ^= ~np.signbit(x)  # the sign byte: always under the mask so far
    if scientific.any():
        index = np.clip(e, _E_MIN, _E_MAX) - _E_MIN
        chars[3] = t["exponent_chars"].take(index)
        valid[3] = t["exponent_valid"].take(index) * scientific
    if texts:
        chars[:, slow] = _words(texts, 8 * words).T
        valid[:, slow] = _words(["\1" * len(text) for text in texts], 8 * words).T
    return chars, valid


def _int_cells(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(chars, valid)`` words, one to three per value: the bytes of ``str(v[i])``, the last byte free.

    Byte 0 is the sign; the digits end just before the last byte.  Values
    from 0 to 9999, one word each, are looked up in a table of their cells.
    """
    if v.size and v.min() >= 0 and v.max() < 10**4:
        chars, valid = _tables()["small_ints"]
        return chars.take(v, axis=1), valid.take(v, axis=1)
    return _digit_cells(v)


def _digit_cells(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``_int_cells`` of any values, laid out digit group by digit group."""
    t = _tables()  # mid-build too: the digit tables are in by the time it lays out the small ints
    negative = v < 0
    magnitude = v.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # exact, even for the int64 minimum
    width = len(str(int(magnitude.max(initial=0))))  # digits of the widest value
    count = np.ones(v.size, dtype=np.intp)  # digits of each value
    for j in range(1, width):
        count += magnitude >= _U(10**j)
    groups = -(-width // 4)
    words = (2 + 4 * groups + 7) // 8
    end = 8 * words - 1  # the free byte
    chars = np.zeros((words, v.size), dtype=np.uint64)
    for j in range(groups):  # the last group of four digits first
        magnitude, group = np.divmod(magnitude, _U(10000))
        word, byte = divmod(end - 4 * (j + 1), 8)
        quad = t["quads"].take(group.astype(np.intp))
        chars[word] |= quad << _U(8 * byte)
        if byte > 4:  # the group runs into the next word
            chars[word + 1] |= quad >> _U(64 - 8 * byte)
    chars[0] |= _U(ord("-"))
    valid = t["low_ones"][:words, end, None] & ~t["low"][:words].take(end - count, axis=1)
    valid[0] |= negative
    return chars, valid


def format_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The CSV rows of equal-length numpy ``columns`` as one uint8 array of ASCII bytes.

    Float columns are written as ``float.__repr__`` writes each value and
    integer columns as ``str`` does; cells are joined by ``,`` and each row
    ends with a newline.  A dtype that does not cast safely to float64 or
    int64 raises ``TypeError``.  The float columns are laid out together,
    and so are the int columns.
    """
    columns = [np.asarray(column) for column in columns]
    if any(column.dtype.kind not in "fiu" for column in columns):
        raise TypeError(f"a CSV column must hold ints or floats, got dtypes {[c.dtype.str for c in columns]}")
    floats = [column.dtype.kind == "f" for column in columns]
    laid_out = {}  # per kind, an iterator over its columns' (chars, valid) words, in column order
    for kind, cells, dtype in ((True, _float_cells, np.float64), (False, _int_cells, np.int64)):
        group = [column for column, is_float in zip(columns, floats) if is_float == kind]
        if group:
            chars, valid = cells(np.concatenate(group, dtype=dtype, casting="safe"))
            chars[-1] |= _U(ord(",")) << _U(56)  # each cell's free last byte
            valid[-1] |= _U(1) << _U(56)
            laid_out[kind] = zip(np.split(chars, len(group), axis=1), np.split(valid, len(group), axis=1))
    pieces = [next(laid_out[is_float]) for is_float in floats]
    rows = columns[0].size if columns else 0
    widths = [len(chars) for chars, _ in pieces]
    chars = np.empty((rows, sum(widths)), dtype=_LITTLE)
    valid = np.empty(chars.shape, dtype=_LITTLE)
    end = 0
    for (cell_chars, cell_valid), width in zip(pieces, widths):
        chars[:, end : end + width] = cell_chars.T
        valid[:, end : end + width] = cell_valid.T
        end += width
    if rows:
        chars[:, -1] ^= _U(ord(",") ^ ord("\n")) << _U(56)
    return chars.view(np.uint8)[valid.view(bool)]
