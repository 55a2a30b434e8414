"""Reading and writing S-box grid files.

The canonical on-disk layout mirrors a printed 16x16 table: 16 lines of 16
base-10 integers separated by single spaces, row-major (index = 16*row + col),
with a trailing newline.  A hex variant uses two lowercase hex digits per
cell.  A JSON variant is a bare array of 256 integers.

Readers are lenient about whitespace layout (any arrangement of exactly 256
tokens parses) but strict about content: a token is one or more ASCII
decimal digits, or ASCII hex digits in a hex grid, with no sign, prefix or
underscore.  Writers always emit the canonical 16x16 layout byte-for-byte
deterministically.
"""

import enum
import json
import re
from pathlib import Path

import numpy as np

from .errors import ParseError, check_member
from .metrics import _table, as_sbox


class BoxFormat(enum.Enum):
    DECIMAL_GRID = "dec"
    HEX_GRID = "hex"
    JSON = "json"


def format_grid(box, fmt: BoxFormat = BoxFormat.DECIMAL_GRID) -> str:
    """Render a table of 256 bytes in the requested format (canonical bytes)."""
    check_member("format", fmt, BoxFormat)
    values = _table(box).tolist()
    if fmt is BoxFormat.JSON:
        return json.dumps(values) + "\n"
    cells = [format(v, "02x" if fmt is BoxFormat.HEX_GRID else "d") for v in values]
    rows = (" ".join(cells[r * 16 : (r + 1) * 16]) for r in range(16))
    return "\n".join(rows) + "\n"


def save_sbox(path, box, fmt: BoxFormat = BoxFormat.DECIMAL_GRID) -> None:
    Path(path).write_text(format_grid(box, fmt), encoding="ascii")


_DIGITS = {10: "0123456789", 16: "0123456789abcdefABCDEF"}
# A character that is neither a digit of the base nor whitespace (as split()
# sees it): only then can a token be invalid.
_STRAY = {base: re.compile(rf"[^{digits}\s]") for base, digits in _DIGITS.items()}


def _parse_tokens(text: str, base: int) -> np.ndarray:
    digits = _DIGITS[base] if _STRAY[base].search(text) else None
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        room = 256 - len(values)
        for col_no, token in enumerate(tokens[:room], start=1):
            if digits and token.strip(digits):  # holds a character that is not a digit
                raise ParseError(f"invalid value {token!r} at row {line_no}, column {col_no}")
            v = int(token, base)  # never negative: a token has no sign
            if v > 255:
                raise ParseError(
                    f"value {v} out of range [0, 255] at row {line_no}, column {col_no}"
                )
            values.append(v)
        if len(tokens) > room:
            raise ParseError(f"expected 256 values, found more (line {line_no})")
    if len(values) != 256:
        raise ParseError(f"expected 256 values, got {len(values)}")
    return np.array(values, dtype=np.uint8)


def parse_grid(text: str, fmt: BoxFormat = BoxFormat.DECIMAL_GRID) -> np.ndarray:
    """Parse grid text into a raw table (no bijectivity check)."""
    check_member("format", fmt, BoxFormat)
    if fmt is BoxFormat.JSON:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        if not isinstance(data, list) or len(data) != 256:
            raise ParseError(
                f"expected a JSON array of 256 integers, got "
                f"{type(data).__name__} of length "
                f"{len(data) if isinstance(data, list) else 'n/a'}"
            )
        for idx, v in enumerate(data):
            if isinstance(v, bool):  # bool is an int subclass, not a byte
                raise ParseError(f"value {v!r} at index {idx} is not an integer")
            if not isinstance(v, int) or not 0 <= v <= 255:
                raise ParseError(f"value {v!r} out of range [0, 255] at index {idx}")
        return np.array(data, dtype=np.uint8)
    return _parse_tokens(text, 16 if fmt is BoxFormat.HEX_GRID else 10)


def load_sbox(path, fmt: BoxFormat = BoxFormat.DECIMAL_GRID,
              allow_non_bijective: bool = False) -> np.ndarray:
    """Load a table from disk and validate bijectivity (unless overridden)."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not a text grid file") from None
    table = parse_grid(text, fmt)
    return as_sbox(table, allow_non_bijective)
