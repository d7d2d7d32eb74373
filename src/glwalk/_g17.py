"""'%.17g' text of a float64 table, byte for byte, with numpy array steps.

g17_rows(block) returns the rows of a finite 2-D float64 array as CSV lines:
the values of a row joined by ',' and each row ended by a newline, every
value spelled exactly as Python's '%.17g' % value spells it. It takes three
steps per value.

Digits. The 17-digit significand D in [1e16, 1e17) and the decimal exponent
E, x = +-D * 10**(E - 16) rounded to nearest, come from the double-double
product |x| * 10**(16 - E) with E estimated as floor(ln|x| / ln 10): a Dekker
split gives |x| * hi exactly as two doubles, plus |x| * lo, where hi + lo is
10**(16 - E) to about 106 bits (fixed-precision conversion as in Adams,
"Ryu revisited: printf floating point conversion", OOPSLA 2019, here in
double-double arithmetic). The product is off by less than 1e-14, so
rounding it to an integer is exact unless its fractional part lies within
TIE_MARGIN of one half. Such near-ties, an estimate of E that is off by one
near a power of ten (D then falls outside [1e16, 1e17)), and |x| outside
[MIN_ABS, MAX_ABS) (subnormals included) take D and E from Python's own
'%.16e' % x for that one value. Zero is D = 0 at E = 0. D, up to 57 bits,
travels as two float64 whole numbers, its digits above and below the eighth.

ASCII. D is cut into a leading digit and four 4-digit chunks, and each
chunk is looked up in a table of the 10000 chunk spellings.

Layout. %g writes fixed notation for -4 <= E < 17 and d.ddde+XX otherwise
(at least two exponent digits), and drops trailing zeros and a bare '.'.
Each value gets a source row of its 17 digits, its 3-digit exponent, the
constant bytes and its separator; one gather through a layout table indexed
by (sign, E class, significant digit count) places those bytes in a row of
WIDTH, padded where the spelling is shorter, and one compaction through the
matching mask table drops the padding.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: |x| range the double-double product covers; outside it D and E come from '%.16e'
MIN_ABS = 1e-250
MAX_ABS = 1e250
#: products whose fractional part is this close to 1/2 take the '%.16e' path;
#: the product's error is below 1e-14
TIE_MARGIN = 1e-9

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for 53-bit doubles
# powers 16 - E for MIN_ABS <= |x| < MAX_ABS, one spare on each side for
# an estimate of E rounded across an integer
_P_MIN = 16 - 250
_P_MAX = 16 + 251

# source row of one value: 17 digits at 0..16, 3 exponent digits, constants, separator
_EXP, _MINUS, _POINT, _ZERO, _E, _PLUS, _PAD, _SEP = 17, 20, 21, 22, 23, 24, 25, 26
_CONSTANTS = b"-.0e+\0"
_SOURCE = 27
#: longest spelling, -d.dddddddddddddddde-ddd, plus its separator
WIDTH = 25
#: E classes: fixed notation for E = -4..16, then e+XX, e+XXX, e-XX, e-XXX
_FIXED = 21
_CLASSES = _FIXED + 4


def _spelling(negative: bool, eclass: int) -> tuple[list[int], int]:
    """Source positions of a 17-digit spelling of one sign and E class, padded to
    WIDTH, and the first digit after its point (17 when it has none)."""
    out = [_MINUS] if negative else []
    if eclass < _FIXED:
        e = eclass - 4
        if e < 0:
            out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + [*range(17)]
        else:
            out += [*range(e + 1)] + ([_POINT, *range(e + 1, 17)] if e < 16 else [])
        fraction = max(e + 1, 0)
    else:
        negative_exp, three = divmod(eclass - _FIXED, 2)
        out += [0, _POINT, *range(1, 17), _E, _MINUS if negative_exp else _PLUS]
        out += [*range(_EXP + 1 - three, _EXP + 3)]
        fraction = 1
    return out + [_PAD] * (WIDTH - 1 - len(out)) + [_SEP], fraction


class _Tables(NamedTuple):
    """Row p - _P_MIN of powers holds hi, the Dekker halves of hi, and lo: hi is
    10**p rounded to a double and lo the remainder 10**p - hi rounded to a
    double. Word c spells the chunk c in 4 bytes and zeros[c] counts its
    trailing zeros (4 for c = 0). Entry E + 324 of exponents spells |E|, and
    of offsets is the layout row of E's class for a positive value, less one.
    Layout row (sign * _CLASSES + E class) * 17 + nd - 1 is the 17-digit
    spelling with the digits from max(nd, first digit after the point) on
    padded, and then a point no digit follows; masks marks its bytes that
    are not padding."""

    powers: np.ndarray
    words: np.ndarray
    zeros: np.ndarray
    exponents: np.ndarray
    offsets: np.ndarray
    layouts: np.ndarray
    masks: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use: powers from Python integers, whose true
    division rounds correctly, and the rest in float64, whose numpy loops
    glwalk's numeric layers have already paged in."""
    powers = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den
        a, b = hi.as_integer_ratio()
        powers.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(powers).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.column_stack([hi, hi_hi, hi - hi_hi, lo])

    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    spellings = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1)
    words = spellings.reshape(10000, 4).view(np.uint32).ravel()
    zeros = np.zeros(10000)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1.0
    exponents = np.concatenate([words[324:0:-1], words[:309]])
    offsets = np.array(
        [17 * (e + 4 if -4 <= e < 17 else _FIXED + 2 * (e < 0) + (abs(e) >= 100)) - 1 for e in range(-324, 309)],
        dtype=np.float64,
    )

    full, fraction = zip(*(_spelling(negative, eclass) for negative in (False, True) for eclass in range(_CLASSES)))
    layouts = np.repeat(np.array(full, dtype=np.float64), 17, axis=0)
    kept = np.array([max(nd, first) for first in fraction for nd in range(1, 18)], dtype=np.float64)
    cut = (layouts < _EXP) & (layouts >= kept[:, None])
    cut[:, :-1] |= (layouts[:, :-1] == _POINT) & cut[:, 1:]
    layouts[cut] = _PAD
    masks = layouts != _PAD
    layouts = layouts.astype(np.uint8)
    return _Tables(
        powers, words, zeros, exponents, offsets, layouts.view(f"V{WIDTH}").ravel(), masks.view(f"V{WIDTH}").ravel()
    )


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(high, low, E) per value, whole numbers in float64 with high < 1e9 and
    low < 1e8: |x| = D * 10**(E - 16) rounded to 17 digits, D = high * 1e8 + low."""
    powers = _tables().powers
    a = np.abs(x)
    covered = (a >= MIN_ABS) & (a < MAX_ABS)
    a = np.where(covered, a, 0.0)
    e = np.floor(np.log(np.where(covered, a, 1.0)) / np.log(10.0)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = powers.take((16 - _P_MIN) - e, axis=0).T
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    product = a * hi
    error = ((a_hi * hi_hi - product) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    tail = error + a * lo
    head = product + tail
    tail -= head - product
    whole = np.floor(tail)
    tail -= whole
    rounded = np.where(tail > 0.5, whole + 1.0, whole)
    # D = head + rounded, head a whole number from 2**53 on; E is right when
    # head + whole >= 1e16 (a product a hair below 1e16 that rounds up to it
    # takes the '%.16e' path). Near the bounds head - 1e16 and head - 1e17
    # are exact, and elsewhere their sign decides.
    exact = covered & (np.abs(tail - 0.5) > TIE_MARGIN)
    exact &= ((head - 1e16) + whole >= 0) & ((head - 1e17) + rounded < 0)
    # D's 8-digit halves in float64: head * 1e-8 is within 3e-7 of head / 1e8,
    # so high is off by at most one, which the carry puts right; high * 1e8 and
    # head - high * 1e8 are exact
    high = np.floor(head * 1e-8)
    low = (head - high * 1e8) + rounded
    carry = np.floor(low * 1e-8)
    high += carry
    low -= carry * 1e8
    for i in np.flatnonzero(~exact & (x != 0)).tolist():
        significand, _, exponent = ("%.16e" % x[i]).partition("e")
        high[i], low[i] = divmod(int(significand.replace(".", "").lstrip("-")), 10**8)
        e[i] = int(exponent)
    return high, low, e


def _ascii(high: np.ndarray, low: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Write D's 17 digits into source rows; D's significant digit count.

    Each floor below is exact: its argument, a whole number below 1e9 times
    1e-8 or below 1e8 times 1e-4, is off by far less than its distance to
    the next whole number.
    """
    tables = _tables()
    lead = np.floor(high * 1e-8)
    high = high - lead * 1e8
    chunks = np.empty((len(high), 4))
    chunks[:, 0] = np.floor(high * 1e-4)
    chunks[:, 1] = high - chunks[:, 0] * 1e4
    chunks[:, 2] = np.floor(low * 1e-4)
    chunks[:, 3] = low - chunks[:, 2] * 1e4
    chunks = chunks.astype(np.intp)
    source[:, 0] = lead + ord("0")
    source[:, 1:_EXP] = tables.words.take(chunks).view(np.uint8)
    # trailing zeros of D: those of the last chunk, and while a chunk is 0 the next one's
    tz = tables.zeros.take(chunks)
    trailing = tz[:, 0]
    for j in (1, 2, 3):
        trailing = np.where(tz[:, j] == 4, trailing + 4, tz[:, j])
    return 17 - trailing


def g17_rows(block: np.ndarray) -> str:
    """CSV lines of a finite 2-D float64 array: '%.17g' values, ',' and newline.

    Past the tables, the steps are float64 arithmetic, takes and byte copies
    of the kinds glwalk's numeric layers already run, and one uint8-to-intp
    conversion: each other kind of numpy loop would page in more of numpy's
    code, 64 KB at a time.
    """
    tables = _tables()
    rows, cols = block.shape
    x = block.ravel()
    high, low, e = _decimal(x)
    source = np.empty((rows, cols, _SOURCE), dtype=np.uint8)
    source[:, :, _MINUS:_SEP] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    source[:, :, _SEP] = np.frombuffer(b"," * (cols - 1) + b"\n", dtype=np.uint8)
    source = source.reshape(-1, _SOURCE)
    nd = _ascii(high, low, source)
    k = e + 324
    source[:, _EXP:_MINUS] = tables.exponents.take(k).view(np.uint8).reshape(-1, 4)[:, 1:]
    layout = (tables.offsets.take(k) + np.where(np.signbit(x), 17.0 * _CLASSES, 0.0) + nd).astype(np.intp)
    index = tables.layouts.take(layout).view(np.uint8).reshape(-1, WIDTH).astype(np.intp)
    index += np.arange(0, source.size, _SOURCE)[:, None]
    text = source.ravel().take(index)
    return text[tables.masks.take(layout).view(np.bool_).reshape(-1, WIDTH)].tobytes().decode("ascii")
