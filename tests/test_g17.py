"""The vectorized '%.17g' CSV writer against Python's own %, value by value."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import glwalk.cli
from glwalk._g17 import g17_rows


def reference(table: np.ndarray) -> str:
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


def assert_matches(values) -> None:
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    got, want = g17_rows(column).splitlines(), reference(column).splitlines()
    assert len(got) == len(want)
    wrong = [(x.hex(), g, w) for x, g, w in zip(column.ravel().tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


def test_random_bit_patterns_every_exponent_and_sign() -> None:
    rng = np.random.default_rng(1717)
    # every biased exponent from 0 (zero and subnormals) to 2046, both signs, 8 mantissas each
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 16)
    signs = np.tile(np.repeat(np.array([0, 1], dtype=np.uint64), 8), 2047)
    mantissas = rng.integers(0, 2**52, size=exponents.size, dtype=np.uint64)
    bits = (signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas
    assert_matches(bits.view(np.float64))
    patterns = rng.integers(0, 2**64, size=50000, dtype=np.uint64).view(np.float64)
    assert_matches(patterns[np.isfinite(patterns)])
    assert_matches([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


def test_powers_of_ten_and_their_neighbours() -> None:
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    # log10 of this value rounds to -7, one above its decimal exponent
    values.append(9.9999999999999995e-08)
    assert "%.17g" % 9.9999999999999995e-08 == "9.9999999999999995e-08"
    assert_matches(values + [-v for v in values])


def test_exact_ties_at_18_digits() -> None:
    # for odd m, x = m / 2**(17 - E) = (m * 5**(17 - E)) * 10**(E - 17) ends in the digit 5,
    # so m * 5**(16 - E) in [2e16, 2e17) makes x * 10**(16 - E) = (m * 5**(16 - E)) / 2
    # an 18-digit tie D.5 at exponent E
    rng = np.random.default_rng(18)
    ties = []
    for e in range(-8, 16):
        scale = 5 ** (16 - e)
        low, high = -(-2 * 10**16 // scale), 2 * 10**17 // scale
        for m in rng.integers(low, high, size=40).tolist():
            m |= 1
            if m < high and m < 2**53:
                x = m / 2 ** (17 - e)
                exponent = math.floor(math.log10(x))
                assert (Fraction(x) * Fraction(10) ** (16 - exponent)).denominator == 2, x
                ties += [x, -x]
    assert len(ties) > 1000
    assert_matches(ties)


def test_significands_near_a_multiple_of_1e8() -> None:
    # D's halves are split in float64, where head * 1e-8 can land on the wrong side
    # of a whole number when D's last 8 digits are near 0 or near 1e8
    rng = np.random.default_rng(8)
    values = []
    for prefix in rng.integers(10**8, 10**9, size=60).tolist():
        for last in [*range(0, 40), *range(10**8 - 40, 10**8)]:
            e = int(rng.integers(-30, 30))
            values.append(float(f"{prefix}{last:08d}e{e - 16}"))
    assert_matches(values + [-v for v in values])


def decimal_class(x: float) -> tuple[int, int]:
    """(E, significant digit count) of x rounded to 17 digits."""
    significand, _, exponent = ("%.16e" % abs(x)).partition("e")
    return int(exponent), len(significand.replace(".", "").rstrip("0"))


#: exponents of each layout's E class: fixed notation at E = -4..16, then 2- and
#: 3-digit exponents of either sign, inside and outside the double-double range
#: [1e-250, 1e250)
LAYOUT_EXPONENTS = [[e] for e in range(-4, 17)] + [
    range(17, 100),
    range(100, 250),
    range(251, 308),
    range(-99, -4),
    range(-249, -99),
    range(-307, -251),
]


def test_every_layout_class() -> None:
    # a value of each sign at every significant digit count 1..17 in every E class; the
    # 17-digit spelling of a short decimal's double often shows the double's error
    # (0.1 is 0.10000000000000001), so search until one keeps its digit count
    rng = np.random.default_rng(25)
    values = [0.0, -0.0, 5e-324, 1e-320, 1.2e-310]
    for exponents in LAYOUT_EXPONENTS:
        for nd in range(1, 18):
            for _ in range(1000):
                e = int(rng.choice(exponents))
                digits = "".join(str(d) for d in rng.integers(1, 10, size=nd))
                x = float(f"{digits[0]}.{digits[1:]}e{e}")
                if decimal_class(x) == (e, nd):
                    break
            else:
                pytest.fail(f"no value with {nd} significant digits at exponents {exponents}")
            values += [x, -x]
    assert_matches(values)


def test_blocks_of_several_columns() -> None:
    rng = np.random.default_rng(3)
    for rows, cols in ((1, 1), (7, 2), (300, 3), (1024, 2)):
        table = rng.normal(scale=10.0 ** rng.integers(-30, 30, size=(rows, cols)))
        assert g17_rows(table) == reference(table)


def per_row(columns, table) -> str:
    return ",".join(columns) + "\n" + reference(np.asarray(table))


@pytest.mark.parametrize("columns", [("t", "probability"), ("k", "fidelity", "t_star")])
def test_small_tables_and_non_finite_tables_take_the_percent_path(monkeypatch, columns) -> None:
    calls = []

    def counted(block):
        calls.append(block.shape)
        return g17_rows(block)

    monkeypatch.setattr(glwalk.cli, "g17_rows", counted)
    rng = np.random.default_rng(7)
    crossover = -(-glwalk.cli.CSV_KERNEL_MIN_VALUES // len(columns))
    for rows, kernel in ((1, False), (crossover - 1, False), (crossover, True), (crossover + 1, True)):
        table = rng.random((rows, len(columns)))
        calls.clear()
        assert glwalk.cli._csv(columns, *table.T) == per_row(columns, table)
        assert bool(calls) == kernel, rows
    for bad in (math.nan, math.inf, -math.inf):
        table = rng.random((3 * glwalk.cli.CSV_BLOCK_ROWS, len(columns)))
        table[len(table) // 2, -1] = bad
        calls.clear()
        text = glwalk.cli._csv(columns, *table.T)
        assert text == per_row(columns, table)
        assert "%.17g" % bad in text
        assert not calls
