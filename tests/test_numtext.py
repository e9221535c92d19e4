"""Exactness of the numpy text kernels against "%".

g12_text must write the bytes of "%.12g" % v and of format_number(v),
and f2_text those of "%.2f" % v, for every float64 v: the cells the
kernels write themselves and the ones they hand back to "%" alike.  A
derandomized hypothesis property draws lists of any float64, NaN,
infinities, zeros and subnormals included, so that one call holds
values of mixed sizes and notations; an edge list adds the carry and tie
cases, the notation boundaries, the neighbours of every power of ten,
and "%.2f"'s exact ties and near-ties.  The kernels run under this
repository's filterwarnings = error, so a warning fails the test.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowsound.numtext import f2_text, g12_text
from slowsound.output import format_number

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308]


def cells(kernel, values):
    """The kernel's text of each value, one call for all of them."""
    values = np.array(values, dtype=np.float64)
    return kernel(values, ord("\n"))[1:].split("\n") if len(values) else []


def check_g12(values):
    assert cells(g12_text, values) == ["%.12g" % v for v in values]
    assert cells(g12_text, values) == [format_number(v) for v in values]


def check_f2(values):
    assert cells(f2_text, values) == ["%.2f" % v for v in values]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=24))
@example(SPECIAL)
@example([2.2250738585072014e-308, 1e-280, 1e280, 9.999999999999999e279, 1.0000000000000001e-280])
def test_g12_text_matches_percent_on_any_float(values):
    check_g12(values)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1e4, exclude_max=True), min_size=1, max_size=24))
@example([0.0, 0.005, 0.015, 0.125, 0.375, 9999.494999999999, 9999.495, 9999.5, 9999.994999999999])
def test_f2_text_matches_percent_on_pixel_range(values):
    check_f2(values)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=24))
@example(SPECIAL)
def test_f2_text_matches_percent_on_any_float(values):
    check_f2(values)


def around(values):
    """values with their neighbours one ulp below and above, and their negatives."""
    values = np.array(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near]).tolist()


def test_g12_text_edge_cases():
    # "%.12g" carries 999999999999.5 into 1e+12, and the others into the next
    # power of ten; 1e11 + 0.5 is an exact tie
    carries = [1e11 + 0.5, 999999999999.5, 99999999999.95, 9.999999999995, 0.99999999999995]
    carries += [9.99999999999996e20, 9.99999999999996e-10, 9.99999999999996e-300]
    # where "%.12g" turns from fixed to exponent notation
    notation = [1e-5, 1e-4, 1e11, 1e12]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    check_g12(around(carries + notation + powers) + SPECIAL)


def test_f2_text_edge_cases():
    # exact ties go to even; 0.005 and 0.015 lie just above and below their halves
    assert cells(f2_text, [0.125, 0.375, 0.005, 0.015, 2.675]) == ["0.12", "0.38", "0.01", "0.01", "2.67"]
    check_f2(around([0.125, 0.375, 0.005, 0.015, 9999.5, 1e15]) + SPECIAL)
    # every 0.005 step of [0, 1000): the ties and near-ties of the pixel range
    check_f2((np.arange(200_000) * 0.005).tolist())


def test_kernels_put_each_lead_byte_and_sign_in_place():
    values = np.array([[-1.5, 2.0, -0.0], [math.nan, -math.inf, 1e-300]])
    lead = [ord("\n"), ord(","), ord(";")]
    assert g12_text(values, lead) == "\n-1.5,2;-0\nnan,-inf;1e-300"
    assert f2_text(values, lead) == "\n-1.50,2.00;-0.00\nnan,-inf;0.00"
    assert g12_text(np.array([]), 0) == f2_text(np.array([]), 0) == ""
