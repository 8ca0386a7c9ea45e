"""Low-level helpers for the line-oriented SKJF/SKSF text formats.

Rational values serialize as ``<numerator>/<denominator>``; scalars with
irrational cyclotomic coordinates serialize as the comma-joined coordinate
vector (one rational per power-basis coordinate, length = ring order).
Parse failures carry 1-based line numbers.

:func:`parse_table` is the one parser and :func:`write_table` the one
writer behind SKJF and SKSF.  Their values repeat heavily (an index-1
Jacobi form has c(n, r) = C(4n - r^2); a lift's A(n, r, m) depends only on
4nm - r^2 and gcd(n, r, m)), so each distinct value text is parsed once
per call and its immutable :class:`Scalar` is shared by every cell that
carries it, and each distinct value object is written once per call.

A table identical to what the writer emits is read in one pass: its rows
are compared, a block at a time, with the rows the writer writes for the
cells of the region walk and the value texts the table carries.  Any
other table is read row by row, with the same result and the same errors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter

from .characters import parse_character
from .numtheory import Scalar, read_int, read_rational

__all__ = ["ParseError", "rational_to_text", "scalar_to_text", "scalar_from_text",
           "parse_int", "parse_header", "parse_table", "write_table"]


class ParseError(ValueError):
    """A malformed line in a text format; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def rational_to_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def scalar_to_text(value: Scalar) -> str:
    nums, den = value.nums, value.den
    if not any(nums[1:]):
        return f"{nums[0]}/{den}"
    texts = []
    for x in nums:
        g = gcd(x, den)
        texts.append(f"{x // g}/{den // g}")
    return ",".join(texts + ["0/1"] * (value.order - len(nums)))


def _value_text(value: Scalar, cell: tuple[int, ...], label: str = "") -> str:
    """:func:`scalar_to_text`, naming ``label`` and ``cell`` in the error for
    an integer past the int-string digit limit, which ``str()`` refuses."""
    try:
        return scalar_to_text(value)
    except ValueError as exc:
        raise ValueError(f"cannot write the value at {label}{_cell_text(cell)}: {exc}") from None


def _rational_from_text(text: str, line_no: int) -> tuple[int, int]:
    """(numerator, denominator) of a ``num/den`` text."""
    if (value := read_rational(text)) is None:
        raise ParseError(line_no, f"bad rational {text!r} (expected num/den)")
    if value[1] == 0:
        raise ParseError(line_no, "zero denominator")
    return value


def scalar_from_text(text: str, line_no: int) -> Scalar:
    """The value ``num/den``, or, for comma-joined ``num/den`` texts, the
    element of Q(zeta_M) with those M power-basis coordinates."""
    parts = [_rational_from_text(part, line_no) for part in text.split(",")]
    den = lcm(*(d for _, d in parts))
    return Scalar.from_integers(len(parts), [x * (den // d) for x, d in parts], den)


def parse_int(text: str, line_no: int, what: str) -> int:
    """An integer field of the form -?[0-9]+."""
    if (value := read_int(text)) is None:
        raise ParseError(line_no, f"bad {what} {text!r}")
    return value


def parse_header(line: str, keys: tuple[str, ...], line_no: int) -> dict[str, str]:
    """Parse ``k1=v1 k2=v2 ...`` requiring exactly the given keys in order."""
    tokens = line.split()
    if len(tokens) != len(keys):
        raise ParseError(line_no, f"expected fields {' '.join(keys)}")
    out = {}
    for token, key in zip(tokens, keys):
        prefix = key + "="
        if not token.startswith(prefix):
            raise ParseError(line_no, f"expected field {key}=..., got {token!r}")
        out[key] = token[len(prefix):]
    return out


def parse_table(text: str, magic: str, header: tuple[tuple[str, str | None], ...],
                cell_names: tuple[str, ...], check_cell, region, build):
    """Parse a coefficient table: the ``magic`` line, one metadata line,
    then one ``<cell> <value>`` row per in-region cell.

    ``header`` lists the metadata keys in order, each with the name its
    integer value goes by in error messages, or None for the character
    ``chi`` and the cusp flag ``cusp``.  The level ``N`` must be >= 1 and
    every other integer except the weight ``k`` >= 0.  The metadata reach
    the callbacks as a dict of those integers plus ``chi`` (the parsed
    character) and ``cusp`` (a bool): ``check_cell(cell, meta)`` is the
    format's constructor rule with the cusp flag off, which returns the
    constructor's message for a row outside the region, or None (``build``
    refuses a nonzero boundary cell of a cusp-flagged table);
    ``region(meta)`` yields every cell that must be present, in the order
    in which the first missing one is named; ``build(meta, coeffs)`` makes
    the object, and a ValueError from it is reported at the metadata line.

    A table identical to :func:`write_table` output is read in one pass:
    each row must be the writer's row of the cell the region walk yields
    next, the walk must end with the rows, and each distinct value text
    must parse.  Any other table (a row that differs, a blank, extra or
    missing row, a value that does not parse) is read by the row loop,
    which gives the same result and is the only code that reports an error.

    The row loop reads every integer field as -?[0-9]+ (see
    :func:`parse_int`), naming the first bad one, and parses each distinct
    value text once, so a bad value is reported at the first row that
    carries it.  It then walks the region up to the first cell no row
    holds, which it reports at the line past the end.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != magic:
        raise ParseError(1, f"expected header {magic!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing metadata line")
    fields = parse_header(lines[1], tuple(key for key, _ in header), 2)
    meta: dict = {key: parse_int(fields[key], 2, what) for key, what in header if what}
    if fields["cusp"] not in ("0", "1"):
        raise ParseError(2, f"bad cusp flag {fields['cusp']!r}")
    bounded = [(key, what) for key, what in header if what and key != "k"]
    if any(meta[key] < (1 if key == "N" else 0) for key, _ in bounded):
        raise ParseError(2, "/".join(what for _, what in bounded) + " out of range")
    try:
        meta["chi"] = parse_character(fields["chi"], meta["N"])
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None
    meta["cusp"] = fields["cusp"] == "1"
    body = lines[2:]
    coeffs = _writer_coeffs(body, region(meta), len(cell_names))
    if coeffs is None:
        coeffs = _read_rows(body, meta, cell_names, check_cell)
        for cell in region(meta):
            if cell not in coeffs:
                raise ParseError(len(lines) + 1,
                                 f"missing in-region coefficient {_cell_text(cell)}")
    try:
        return build(meta, coeffs)
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None


def _writer_coeffs(body: list[str], walk, width: int) -> dict | None:
    """{cell: value} when the rows ``body`` are exactly what
    :func:`write_table` writes for the cells of ``walk``, one row per cell
    in order, each distinct value text parsed once; None for any other
    rows, for rows that end before the walk does, or when a value text
    does not parse, so that the row loop reads them and names the error.

    Block by block, the rows are split into words, every ``width + 1``-th
    word is taken as a value text, and the writer's rows of the block's
    cells with those texts are compared with the rows as given."""
    coeffs: dict[tuple[int, ...], Scalar] = {}
    values: dict[str, Scalar] = {}  # value text -> its (immutable, shared) Scalar
    for start in range(0, len(body), _BLOCK):
        rows = "\n".join(body[start:start + _BLOCK]) + "\n"
        words = rows.split()
        cells = list(islice(walk, _BLOCK))
        if len(words) != len(cells) * (width + 1):
            return None
        texts = words[width::width + 1]
        if _rows_text(cells, texts) != rows:
            return None
        for text in texts:
            if text not in values:
                try:
                    values[text] = scalar_from_text(text, 0)
                except ValueError:
                    return None
        coeffs.update(zip(cells, map(values.__getitem__, texts)))
    if next(walk, None) is not None:
        return None
    return coeffs


def _read_rows(body: list[str], meta: dict, cell_names: tuple[str, ...], check_cell) -> dict:
    """{cell: value} of the rows ``body`` (lines 3, 4, ...), read row by
    row: blank rows are skipped and the first bad row is named by its line."""
    usage = " ".join(f"<{name}>" for name in cell_names + ("value",))
    columns = len(cell_names) + 1
    coeffs: dict[tuple[int, ...], Scalar] = {}
    values: dict[str, Scalar] = {}  # value text -> its (immutable, shared) Scalar
    for line_no, raw in enumerate(body, start=3):
        parts = raw.split()
        if len(parts) != columns:
            if not parts:
                continue
            raise ParseError(line_no, f"expected '{usage}'")
        value_text = parts.pop()
        cell = tuple(parse_int(part, line_no, name) for part, name in zip(parts, cell_names))
        error = check_cell(cell, meta)
        if error is not None:
            raise ParseError(line_no, error)
        if cell in coeffs:
            raise ParseError(line_no, f"duplicate coefficient {_cell_text(cell)}")
        value = values.get(value_text)
        if value is None:
            value = values[value_text] = scalar_from_text(value_text, line_no)
        coeffs[cell] = value
    return coeffs


def _cell_text(cell: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, cell)) + ")"


# rows per block of the one-pass read and of the writer: enough to spread
# the cost of a call, few enough that the block's words stay small
_BLOCK = 256


def _rows_text(cells: list[tuple[int, ...]], texts: list[str]) -> str:
    """The table rows the writer writes, each ended by a newline: the
    fields of each cell in ``cells`` and its value text in ``texts``,
    separated by single spaces."""
    width = len(cells[0]) if cells else 0
    fields: list = [None] * (len(cells) * (width + 1))
    for i in range(width):
        fields[i::width + 1] = map(itemgetter(i), cells)
    fields[width::width + 1] = texts
    return ("%d " * width + "%s\n") * len(cells) % tuple(fields)


def write_table(magic: str, meta: str, cells, coeffs) -> str:
    """The text :func:`parse_table` reads: the ``magic`` line, the metadata
    line ``meta``, then one ``<cell> <value>`` row for each of ``cells`` in
    order, its value read from the dict ``coeffs`` and zero where absent.

    Each distinct value object is turned into text once, by a memo keyed by
    id that lives for the call; ``coeffs`` and the one zero hold every
    keyed object for the whole call, so an id is never reused under the
    memo and a miss only costs a recomputation.
    """
    zero = Scalar.zero()
    memo: dict[int, str] = {}  # id of a value in coeffs (or of zero) -> its text
    blocks = [f"{magic}\n{meta}\n"]
    walk = iter(cells)
    while block := list(islice(walk, _BLOCK)):
        texts = []
        for cell in block:
            value = coeffs.get(cell, zero)
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = _value_text(value, cell)
            texts.append(text)
        blocks.append(_rows_text(block, texts))
    return "".join(blocks)
