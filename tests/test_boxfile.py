import json

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sboxkit import (
    BoxFormat,
    NonBijectiveWarning,
    NotBijective,
    ParamOutOfRange,
    ParseError,
    format_grid,
    load_sbox,
    parse_grid,
    save_sbox,
)

BOX = np.roll(np.arange(256), 37).astype(np.uint8)


def test_decimal_grid_shape():
    text = format_grid(BOX)
    lines = text.splitlines()
    assert len(lines) == 16
    assert all(len(line.split()) == 16 for line in lines)
    assert text.endswith("\n")
    assert "  " not in text  # single spaces only


def test_round_trip_all_formats(tmp_path):
    for fmt in BoxFormat:
        path = tmp_path / f"box.{fmt.value}"
        save_sbox(path, BOX, fmt)
        back = load_sbox(path, fmt)
        assert np.array_equal(back, BOX)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 255), min_size=256, max_size=256),
       fmt=st.sampled_from(list(BoxFormat)))
def test_format_parse_round_trip(values, fmt):
    table = np.array(values, dtype=np.uint8)
    back = parse_grid(format_grid(table, fmt), fmt)
    assert back.dtype == np.uint8
    assert np.array_equal(back, table)


def test_hex_grid_lowercase_two_digits():
    text = format_grid(BOX, BoxFormat.HEX_GRID)
    cells = text.split()
    assert all(len(c) == 2 and c == c.lower() for c in cells)
    assert np.array_equal(parse_grid(text, BoxFormat.HEX_GRID), BOX)


def test_parse_accepts_flexible_whitespace():
    flat = " ".join(str(v) for v in BOX)
    assert np.array_equal(parse_grid(flat), BOX)


def test_parse_short_grid_reports_count():
    text = " ".join(str(v) for v in BOX[:255])
    with pytest.raises(ParseError, match="expected 256 values, got 255"):
        parse_grid(text)


def test_parse_long_grid_rejected():
    text = " ".join(str(v) for v in list(BOX) + [7])
    with pytest.raises(ParseError, match="expected 256"):
        parse_grid(text)


def test_parse_out_of_range_names_row_and_column():
    cells = [str(v) for v in BOX]
    cells[37] = "300"  # row 3 (1-based), column 6
    text = "\n".join(" ".join(cells[r * 16:(r + 1) * 16]) for r in range(16))
    with pytest.raises(ParseError, match="row 3.*column 6"):
        parse_grid(text)


def test_parse_bad_token_location():
    cells = [str(v) for v in BOX]
    cells[0] = "zz"
    text = "\n".join(" ".join(cells[r * 16:(r + 1) * 16]) for r in range(16))
    with pytest.raises(ParseError, match="row 1, column 1"):
        parse_grid(text)


def _grid_with(token, fmt, index=37):
    cells = format_grid(BOX, fmt).split()
    cells[index] = token  # index 37 is row 3 (1-based), column 6
    return "\n".join(" ".join(cells[r * 16:(r + 1) * 16]) for r in range(16))


@pytest.mark.parametrize("fmt", [BoxFormat.DECIMAL_GRID, BoxFormat.HEX_GRID],
                         ids=["dec", "hex"])
@pytest.mark.parametrize("token", ["+0", "-0", "0_0", "0x0", "+25", "2_5",
                                   "\u0662\u0665", "\uff12\uff15"],
                         ids=["+0", "-0", "0_0", "0x0", "+25", "2_5",
                              "arabic-indic-25", "fullwidth-25"])
def test_parse_rejects_signs_prefixes_underscores_and_non_ascii_digits(token, fmt):
    with pytest.raises(ParseError) as info:
        parse_grid(_grid_with(token, fmt), fmt)
    assert str(info.value) == f"invalid value {token!r} at row 3, column 6"


@pytest.mark.parametrize("fmt, token, value", [
    (BoxFormat.DECIMAL_GRID, "0037", 37),
    (BoxFormat.HEX_GRID, "025", 37),
    (BoxFormat.HEX_GRID, "2F", 47),
])
def test_parse_accepts_leading_zeros_and_upper_case_hex(fmt, token, value):
    assert parse_grid(_grid_with(token, fmt), fmt)[37] == value


STRAY_TOKENS = ["+5", "0x1f", "1_0", "\u0663", "7g"]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\n", "\r\n", "\n\n", " \n ", "\x0b", "\x0c",
              "\x1c", "\x85", "\u2028", "\u3000"]


@st.composite
def grid_texts(draw):
    """Grid text with 250-260 tokens in random whitespace, some out of range or stray."""
    fmt = draw(st.sampled_from([BoxFormat.DECIMAL_GRID, BoxFormat.HEX_GRID]))
    spec = draw(st.sampled_from(["d"] if fmt is BoxFormat.DECIMAL_GRID else ["02x", "x", "X"]))
    count = draw(st.one_of(st.just(256), st.integers(250, 260)))
    tokens = [format(v, spec) for v in
              draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))]
    bad = st.one_of(st.integers(256, 300).map(lambda v: format(v, spec)),
                    st.sampled_from(STRAY_TOKENS))
    for index, token in draw(st.lists(st.tuples(st.integers(0, count - 1), bad), max_size=3)):
        tokens[index] = token
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=count + 1, max_size=count + 1))
    return fmt, seps[0] + "".join(t + sep for t, sep in zip(tokens, seps[1:]))


@settings(max_examples=80, deadline=None)
@given(case=grid_texts())
@example(case=(BoxFormat.DECIMAL_GRID, format_grid(BOX)))
@example(case=(BoxFormat.HEX_GRID, format_grid(BOX, BoxFormat.HEX_GRID)))
@example(case=(BoxFormat.DECIMAL_GRID, format_grid(BOX).replace("37", "256", 1)))
@example(case=(BoxFormat.HEX_GRID, format_grid(BOX, BoxFormat.HEX_GRID).replace("25", "100", 1)))
@example(case=(BoxFormat.HEX_GRID, format_grid(BOX, BoxFormat.HEX_GRID) + "\u0663"))
def test_parse_matches_the_token_loop(case):
    fmt, text = case
    base = 16 if fmt is BoxFormat.HEX_GRID else 10
    try:
        want = oracles.parse_tokens_reference(text, base)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_grid(text, fmt)
        assert str(info.value) == str(exc)
    else:
        got = parse_grid(text, fmt)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_grid("{oops", BoxFormat.JSON)
    with pytest.raises(ParseError, match="256"):
        parse_grid("[1, 2, 3]", BoxFormat.JSON)
    with pytest.raises(ParseError, match="index 2"):
        parse_grid("[" + ",".join(["1", "2", "999"] + ["0"] * 253) + "]",
                    BoxFormat.JSON)


def test_parse_json_rejects_booleans(tmp_path):
    cells = [int(v) for v in BOX]
    assert np.array_equal(parse_grid(json.dumps(cells), BoxFormat.JSON), BOX)
    assert parse_grid(json.dumps(list(range(256))), BoxFormat.JSON).tolist() == list(range(256))
    for flag in (False, True):
        data = list(cells)
        data[5] = flag
        with pytest.raises(ParseError, match=f"value {flag} at index 5 is not an integer"):
            parse_grid(json.dumps(data), BoxFormat.JSON)
    path = tmp_path / "box.json"
    path.write_text(json.dumps([True] + cells[1:]))
    with pytest.raises(ParseError):
        load_sbox(path, BoxFormat.JSON)


def test_load_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        load_sbox("/nonexistent/box.txt")


def test_load_binary_file(tmp_path):
    path = tmp_path / "box.bin"
    path.write_bytes(bytes(range(256)))
    with pytest.raises(ParseError, match="not a text grid"):
        load_sbox(path)


def test_load_rejects_non_bijective(tmp_path):
    table = BOX.copy()
    table[0] = table[1]
    path = tmp_path / "dup.sbox"
    save_sbox(path, table)
    with pytest.raises(NotBijective):
        load_sbox(path)
    with pytest.warns(NonBijectiveWarning):
        back = load_sbox(path, allow_non_bijective=True)
    assert np.array_equal(back, table)


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.sbox", tmp_path / "b.sbox"
    save_sbox(p1, BOX)
    save_sbox(p2, BOX)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fmt", ["hex", "dec", "json", None])
def test_format_must_be_a_box_format(tmp_path, fmt):
    # a string is not its BoxFormat: it once fell through to the decimal grid
    with pytest.raises(ParamOutOfRange, match="format must be a BoxFormat"):
        format_grid(BOX, fmt)
    with pytest.raises(ParamOutOfRange, match="format must be a BoxFormat"):
        parse_grid(format_grid(BOX, BoxFormat.HEX_GRID), fmt)
    path = tmp_path / "box.sbox"
    with pytest.raises(ParamOutOfRange, match="format must be a BoxFormat"):
        save_sbox(path, BOX, fmt)
    assert not path.exists()
