"""Parsing and validation of transition matrices."""

import json
import sys

import pytest

from treeshift.matrix import (
    BadChar,
    NonSquare,
    ParseError,
    RowOrColumnZero,
    TransitionMatrix,
    parse_matrix,
)
from treeshift.reference import REFERENCE_ROWS


def test_row_string_basic():
    m = parse_matrix("11,10")
    assert m.d == 2
    assert m.rows == ((1, 1), (1, 0))
    assert m.symbols == ("1", "2")


def test_row_string_whitespace_tolerated():
    m = parse_matrix("  11 , 10 ")
    assert m.rows == ((1, 1), (1, 0))


def test_json_format():
    m = parse_matrix(json.dumps([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))
    assert m.d == 3
    assert m.rows == ((0, 1, 0), (0, 0, 1), (1, 1, 0))


def test_json_rejects_bool_entries():
    with pytest.raises(ParseError):
        parse_matrix("[[true, false], [true, true]]")


def test_json_rejects_out_of_range_entries():
    with pytest.raises(ParseError):
        parse_matrix("[[2, 0], [1, 1]]")


def test_json_integers_past_20_characters_are_refused_by_their_length():
    # such an entry is never converted, so the message is short and does
    # not depend on the interpreter's int digit limit
    for token, shown in [("1" + "0" * 19, "1" + "0" * 19), ("1" + "0" * 20, "<integer of 21 digits>"),
                         ("-" + "1" * 20, "<integer of 20 digits>")]:
        with pytest.raises(BadChar, match=rf"^entry {shown} is not 0 or 1 \(row 2, column 1\)$"):
            parse_matrix(f"[[1, 1], [{token}, 1]]")


def test_non_square_reports_shape():
    with pytest.raises(NonSquare):
        parse_matrix("110,10,01")
    with pytest.raises(NonSquare):
        parse_matrix("[[1,1],[1]]")


def test_bad_char_reports_position():
    with pytest.raises(BadChar) as info:
        parse_matrix("1x,10")
    msg = str(info.value)
    assert "x" in msg


def test_zero_row_rejected():
    with pytest.raises(RowOrColumnZero):
        parse_matrix("00,11")


def test_zero_column_rejected():
    with pytest.raises(RowOrColumnZero):
        parse_matrix("10,10")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_matrix("")


def test_direct_construction_needs_a_row():
    with pytest.raises(ParseError, match="^matrix needs at least one row$"):
        TransitionMatrix(())


def test_row_string_reports_a_bad_character_before_the_shape():
    with pytest.raises(BadChar, match=r"^character 'x' is not 0 or 1 \(row 1, column 2\)$"):
        parse_matrix("1x0,10")


def test_direct_construction_is_validated_like_parsed_text():
    with pytest.raises(NonSquare, match=r"^2 rows but 1 entries \(row 2\)$"):
        TransitionMatrix(((1, 1), (1,)))
    with pytest.raises(BadChar, match=r"^entry True is not 0 or 1 \(row 1, column 1\)$"):
        TransitionMatrix(((True, False), (True, True)))


@pytest.mark.parametrize("digit_limit", [None, 0])
def test_an_int_entry_past_the_digit_limit_is_named_by_its_size(digit_limit):
    # repr of 10^5000 raises where a digit limit is set (3.11 on); a limit
    # of 0 stands for an interpreter without one: both read alike
    expected = r"^entry <int of 16610 bits> is not 0 or 1 \(row 1, column 1\)$"
    if digit_limit is None:
        with pytest.raises(BadChar, match=expected):
            TransitionMatrix(((10**5000,),))
        return
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this interpreter has no int digit limit to lift")
    saved = sys.get_int_max_str_digits()
    set_limit(digit_limit)
    try:
        with pytest.raises(BadChar, match=expected):
            TransitionMatrix(((10**5000,),))
    finally:
        set_limit(saved)


def test_from_rows_validates():
    with pytest.raises(RowOrColumnZero):
        TransitionMatrix.from_rows([[0, 0], [1, 1]])
    assert TransitionMatrix.from_rows([[1, 1], [1, 0]]).rows == ((1, 1), (1, 0))
    for entry in (1.9, "1", True):
        with pytest.raises(BadChar):
            TransitionMatrix.from_rows([[entry, 0], [1, 1]])


def test_successor_table_and_row_sums():
    m = parse_matrix("010,001,110")
    assert m.successor_table() == ((1,), (2,), (0, 1))
    assert m.row_sums() == (1, 1, 2)


def test_round_trip_all_reference_rows():
    for row in REFERENCE_ROWS:
        m = row.parse()
        again = parse_matrix(m.to_row_string())
        assert again == m
        assert again.rows == m.rows


def test_matrices_hashable_and_equal():
    a = parse_matrix("11,10")
    b = parse_matrix("11,10")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_matrix("11,11")
