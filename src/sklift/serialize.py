"""Low-level helpers for the line-oriented SKJF/SKSF text formats.

Rational values serialize as ``<numerator>/<denominator>``; scalars with
irrational cyclotomic coordinates serialize as the comma-joined coordinate
vector (one rational per power-basis coordinate, length = ring order).
Every value text is read by :func:`scalar_from_text`, which reads each of
its parts with :func:`~sklift.numtheory.read_rational`.  Parse failures
carry 1-based line numbers.

:func:`parse_table` is the one parser and :func:`write_table` the one
writer behind SKJF and SKSF.  Their values repeat heavily (an index-1
Jacobi form has c(n, r) = C(4n - r^2); a lift's A(n, r, m) depends only on
4nm - r^2 and gcd(n, r, m)), so each distinct value text is parsed once
per call and its immutable :class:`Scalar` is shared by every cell that
carries it, and each distinct value object is written once per call.

A table whose first two lines are the writer's, each ended by a newline,
and whose rows are exactly what the writer emits is read in one pass: a
chunk of whole rows at a time, its rows are compared with the rows the
writer writes for the next cells of the region walk and the value texts
the chunk carries.  Any other table is read row by row, with the same
result and the same errors.  Either way a zero value leaves no cell in
the dict the expansion is built from: the reader knows which distinct
value texts are zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, filterfalse, islice
from math import gcd, lcm
from operator import itemgetter

from .characters import parse_character
from .numtheory import Scalar, _from_integers, read_int, read_rational

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
    element of Q(zeta_M) with those M power-basis coordinates; each part
    is read by :func:`~sklift.numtheory.read_rational`."""
    parts = [_rational_from_text(part, line_no) for part in text.split(",")]
    den = lcm(*[d for _, d in parts])
    return _from_integers(len(parts), [x * (den // d) for x, d in parts], den)


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
    the object from the nonzero cells, and a ValueError from it is
    reported at the metadata line.

    A table that starts with the ``magic`` line and a metadata line, each
    ended by a newline, is first read in one pass (:func:`_writer_coeffs`):
    each row must be the writer's row of the cell the region walk yields
    next, the walk must end with the rows, and :func:`scalar_from_text`
    must read each distinct value text.  Any other table (another line
    ending, a row that differs, a blank, extra or missing row, a value
    that does not parse) is read by the row loop, :func:`_read_rows`,
    which gives the same result and is the only code that reports an
    error in the rows.
    """
    first = text.find("\n")
    second = text.find("\n", first + 1) if first >= 0 else -1
    meta = coeffs = None
    if second >= 0 and text[:first] == magic and text[first + 1:second].isprintable():
        # the lines splitlines() gives, as no line break is left in either
        meta = _read_meta(text[first + 1:second], header)
        coeffs = _writer_coeffs(text, second + 1, region(meta), len(cell_names))
    if coeffs is None:
        lines = text.splitlines()
        if meta is None:
            if not lines or lines[0].strip() != magic:
                raise ParseError(1, f"expected header {magic!r}")
            if len(lines) < 2:
                raise ParseError(2, "missing metadata line")
            meta = _read_meta(lines[1], header)
        coeffs = _read_rows(lines[2:], meta, cell_names, check_cell, region)
    try:
        return build(meta, coeffs)
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None


def _read_meta(line: str, header: tuple[tuple[str, str | None], ...]) -> dict:
    """The metadata dict of :func:`parse_table` from its line 2."""
    fields = parse_header(line, tuple(key for key, _ in header), 2)
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
    return meta


# characters per chunk of the one-pass read: enough to spread the cost of a
# call, few enough that the chunk's words stay small
_CHUNK = 8192


def _writer_coeffs(text: str, start: int, walk, width: int) -> dict | None:
    """{cell: value} of the nonzero values when the rows of ``text`` from
    ``start`` on are exactly what :func:`write_table` writes for the cells
    of ``walk``, one row per cell in order, each ended by a newline; None
    for any other rows, for rows that end before the walk does, or when
    :func:`scalar_from_text` refuses a value text, so that the row loop
    reads them and names the error.

    Chunk by chunk of whole rows, the rows are split into words, every
    ``width + 1``-th word is taken as a value text, and the writer's rows
    of the next cells of the walk with those texts are compared with the
    rows as given; the walk goes no further than the rows do, plus one
    cell.  Each distinct text is read by :func:`scalar_from_text` when it
    is first seen, and the cells of the texts that read as zero are taken
    out again as each chunk is added."""
    coeffs: dict[tuple[int, ...], Scalar] = {}
    values: dict[str, Scalar] = {}  # value text -> its (immutable, shared) Scalar
    zeros: set[str] = set()  # the value texts that read as zero
    int_texts = _IntTexts()
    end = len(text)
    while start < end:
        stop = text.rfind("\n", start, start + _CHUNK) + 1 or text.find("\n", start) + 1
        if not stop:  # the last row has no newline
            return None
        rows, start = text[start:stop], stop
        words = rows.split()
        cells = list(islice(walk, len(words) // (width + 1)))
        texts = words[width::width + 1]
        if len(words) != len(cells) * (width + 1) or _rows_text(cells, texts, int_texts) != rows:
            return None
        for new in filterfalse(values.__contains__, texts):  # each text once
            try:
                value = values[new] = scalar_from_text(new, 0)
            except ParseError:
                return None
            if not value:
                zeros.add(new)
        coeffs.update(zip(cells, map(values.__getitem__, texts)))
        if zeros:
            for cell in compress(cells, map(zeros.__contains__, texts)):
                del coeffs[cell]
    if next(walk, None) is not None:
        return None
    return coeffs


def _read_rows(body: list[str], meta: dict, cell_names: tuple[str, ...], check_cell,
               region) -> dict:
    """{cell: value} of the nonzero values of the rows ``body`` (lines 3,
    4, ...), read row by row: blank rows are skipped, every integer field
    is read as -?[0-9]+ (see :func:`parse_int`), and the first bad row is
    named by its line; each distinct value text is parsed once, so a bad
    value is named at the first row that carries it.  The region is then
    walked up to the first cell no row holds, which is named at the line
    past the end."""
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
    for cell in region(meta):
        if cell not in coeffs:
            raise ParseError(len(body) + 3, f"missing in-region coefficient {_cell_text(cell)}")
    return {cell: value for cell, value in coeffs.items() if value}


def _cell_text(cell: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, cell)) + ")"


# rows per block of the writer: enough to spread the cost of a call, few
# enough that the block's texts stay small
_BLOCK = 256


class _IntTexts(dict):
    """str(i) for each int i asked for, kept: a call's memo of the texts of
    its cell fields."""

    def __missing__(self, i: int) -> str:
        text = self[i] = str(i)
        return text


def _rows_text(cells: list[tuple[int, ...]], texts: list[str], int_texts: _IntTexts) -> str:
    """The table rows the writer writes, each ended by a newline: the
    fields of each cell in ``cells`` (their texts from the memo
    ``int_texts``) and its value text in ``texts``, separated by single
    spaces."""
    width = len(cells[0]) if cells else 0
    step = 2 * width + 2  # the words and separators of a row
    pieces = [" "] * (len(cells) * step)
    for i in range(width):
        pieces[2 * i::step] = map(int_texts.__getitem__, map(itemgetter(i), cells))
    pieces[2 * width::step] = texts
    pieces[step - 1::step] = ["\n"] * len(cells)
    return "".join(pieces)


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
    int_texts = _IntTexts()
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
        blocks.append(_rows_text(block, texts, int_texts))
    return "".join(blocks)
