import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicperiods import validate_conductor
from cubicperiods.cli import verify_report
from cubicperiods.report import format_poly, format_rational, render_json, render_report

# characters json escapes or passes through: quote, backslash, C0 controls,
# DEL, the line separators, non-ASCII, and astral characters, which become
# surrogate pairs
SPECIAL_CHARACTERS = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\uffff\U0001f600\U0010ffff'

strings = st.text(
    st.one_of(
        st.sampled_from(SPECIAL_CHARACTERS),
        st.characters(exclude_categories=()),  # lone surrogates too
    )
)
floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e16,
         float("nan"), float("inf"), float("-inf")]
    ),
)
leaves = st.one_of(
    strings,
    st.integers(),
    st.integers(-(10**1000), 10**1000),
    st.booleans(),
    st.none(),
    floats,
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.one_of(trees, st.dictionaries(strings, trees, max_size=6)))
def test_render_json_equals_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("f", [9, 819, 482391])
def test_render_json_of_a_report_equals_json_dumps(f):
    report = verify_report(validate_conductor(f))
    assert render_json(report) == json.dumps(report, indent=2) + "\n"


def test_render_json_refuses_what_json_refuses():
    for value in ({1, 2}, {"x": object()}, [b"bytes"]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            render_json(value)
    # json writes an int key as a string; a report has str keys only
    with pytest.raises(TypeError):
        render_json({1: 2})


def test_render_report_refuses_an_unknown_format():
    with pytest.raises(ValueError):
        render_report({"conductor": 7, "kind": "tame", "fields": []}, "xml")


@pytest.mark.parametrize(
    "numerator,denominator,text",
    [(-5, 5, "-1"), (6, 4, "3/2"), (0, 7, "0"), (-69, 25, "-69/25"), (7, 1, "7")],
)
def test_format_rational_writes_lowest_terms(numerator, denominator, text):
    assert format_rational(numerator, denominator) == text


def test_format_poly_divides_by_its_denominator():
    # n2*f_n for (n1, n2) = (18, 5), over 5: the shanks column of the table
    assert format_poly((5, -18, -33, -5), 5) == "X^3 - 18/5*X^2 - 33/5*X - 1"
    assert format_poly((1, 0, -273, 1729)) == "X^3 - 273*X + 1729"
    assert format_poly((0, 0, 0, 0), 3) == "0"
