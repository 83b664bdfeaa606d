"""The bulk CSV formatter against its oracles: ``float.__repr__`` for floats, ``str`` for ints.

``_numfmt.format_rows`` decides most floats with numpy and hands the rest
to ``float.__repr__``; these tests hold every byte to the per-value
oracle, over generated values and over the values where the fast path is
most likely to slip: powers of two and of ten and their neighbours, the
edges of the positional layout, and the ends of the double range.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otfspectrum import _numfmt
from otfspectrum._numfmt import format_rows


def _floats_text(values):
    return format_rows([np.asarray(values, dtype=np.float64)]).tobytes().decode()


def _oracle(values):
    return "".join(f"{float(value)!r}\n" for value in values)


@settings(max_examples=150)
@given(st.lists(st.floats(), max_size=300))
def test_floats_are_written_as_float_repr_writes_them(values):
    """Any double: nan, +-inf, +-0.0 and subnormals among them."""
    assert _floats_text(values) == _oracle(values)


#: The bits of any double, or of one with an all-zero mantissa: +-0, +-inf or a power of two.
_BITS = st.integers(0, 2**64 - 1) | st.integers(0, 2**12 - 1).map(lambda top: top << 52)


@settings(max_examples=150)
@given(st.lists(_BITS, max_size=300))
def test_floats_from_any_bit_pattern_are_written_as_float_repr_writes_them(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _floats_text(values) == _oracle(values)


#: Signed zeros and powers of two, normal and subnormal, whose digits the formatter takes from a table or from repr.
_EXACT = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)
)


@settings(max_examples=150)
@given(st.lists(_EXACT | st.floats(), max_size=200))
def test_zeros_and_powers_of_two_among_any_doubles_are_written_as_float_repr_writes_them(values):
    assert _floats_text(values) == _oracle(values)


def test_zeros_and_normal_powers_of_two_are_laid_out_without_float_repr():
    """Only a value that falls back is written by ``float.__repr__``, through ``_words``; subnormals still do."""
    values = [0.0, -0.0] + [sign * 2.0**k for k in range(-1022, 1024) for sign in (1.0, -1.0)]
    _floats_text([1.0])  # the tables, whose making lays out texts of its own
    with mock.patch.object(_numfmt, "_words", side_effect=AssertionError("fell back to float.__repr__")):
        assert _floats_text(values) == _oracle(values)
        with pytest.raises(AssertionError, match="fell back"):
            _floats_text([2.0**-1074])


def test_random_doubles_match_float_repr():
    """Bit patterns and values in the ranges the artifacts hold: unit-scale, PSD levels, frequencies."""
    rng = np.random.default_rng(20240617)
    values = np.concatenate(
        [
            rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True).view(np.float64),
            rng.standard_normal(50_000) * 0.1,
            rng.random(50_000) * 10.0 ** rng.integers(-30, -4, 50_000),
            np.round(rng.uniform(-15.36e6, 15.36e6, 50_000) * 100) / 100,
        ]
    )
    assert _floats_text(values) == _oracle(values)


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.finfo(np.float64).max)])
    return np.concatenate([values, -values])


def test_powers_of_two_and_their_neighbours():
    """Their rounding interval is lopsided: the gap below is half the gap above."""
    values = _with_neighbours([2.0**k for k in range(-1074, 1024)])
    assert _floats_text(values) == _oracle(values)


def test_powers_of_ten_and_their_neighbours():
    values = _with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
    assert _floats_text(values) == _oracle(values)


@pytest.mark.parametrize(
    "value",
    [1e-4, 1e-5, 1.5e-4, 9.99e-5, 1e15, 1e16, 1.5e15, 9.5e15, 1e15 + 0.5, 9999999999999998.0,
     5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308, 1e23, 0.1, 123.0],
)
def test_layout_edges_and_range_ends(value):
    """Positional for 1e-4 <= |x| < 1e16 with ``.0`` on integral values, ``d.ddde+XX`` beyond."""
    values = _with_neighbours([value])
    assert _floats_text(values) == _oracle(values)


@settings(max_examples=100)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300))
def test_ints_are_written_as_str_writes_them(values):
    text = format_rows([np.array(values, dtype=np.int64)]).tobytes().decode()
    assert text == "".join(f"{value}\n" for value in values)


#: Ints on both sides of the small-int table's ends (0 and 9999), negatives, and the int64 minimum.
_TABLE_EDGE_INTS = st.one_of(
    st.integers(-3, 3), st.integers(9990, 10010), st.integers(-(2**63), -(2**63) + 3), st.integers(-(2**63), 2**63 - 1)
)


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 9999), max_size=300)
    | st.lists(st.integers(9990, 10010), max_size=20)
    | st.lists(_TABLE_EDGE_INTS, max_size=60)
)
@example([10000])
@example([0, 9999])
def test_ints_at_the_small_table_s_ends_are_written_as_str_writes_them(values):
    """Blocks wholly inside 0..9999 take the table; a block holding any other value is laid out digit by digit."""
    text = format_rows([np.array(values, dtype=np.int64)]).tobytes().decode()
    assert text == "".join(f"{value}\n" for value in values)


def test_int_extremes_and_digit_counts():
    values = [-(2**63), 2**63 - 1, 0, -1, 1, -9, 9, 10, -10] + [10**k + d for k in range(19) for d in (-1, 0)]
    text = format_rows([np.array(values, dtype=np.int64)]).tobytes().decode()
    assert text == "".join(f"{value}\n" for value in values)


def test_rows_join_int_and_float_columns_in_order():
    ints = np.array([0, 511, -3])
    floats = np.array([0.125, -0.0, 1e-17])
    text = format_rows([ints, floats, ints[::-1], floats[::-1]]).tobytes().decode()
    assert text == "0,0.125,-3,1e-17\n511,-0.0,511,-0.0\n-3,1e-17,0,0.125\n"


def test_no_rows_and_other_dtypes():
    assert format_rows([np.array([], dtype=np.int64), np.array([])]).tobytes() == b""
    with pytest.raises(TypeError, match="ints or floats"):
        format_rows([np.array(["a"])])
