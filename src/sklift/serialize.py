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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .characters import parse_character
from .numtheory import _INT_RE, _RATIONAL_RE, Scalar

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


def _rational_from_text(text: str, line_no: int) -> tuple[int, int]:
    """(numerator, denominator) of a ``num/den`` text."""
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise ParseError(line_no, f"bad rational {text!r} (expected num/den)")
    den = int(m.group(2))
    if den == 0:
        raise ParseError(line_no, "zero denominator")
    return int(m.group(1)), den


def scalar_from_text(text: str, line_no: int) -> Scalar:
    """The value ``num/den``, or, for comma-joined ``num/den`` texts, the
    element of Q(zeta_M) with those M power-basis coordinates."""
    parts = [_rational_from_text(part, line_no) for part in text.split(",")]
    den = lcm(*(d for _, d in parts))
    return Scalar.from_integers(len(parts), [x * (den // d) for x, d in parts], den)


def parse_int(text: str, line_no: int, what: str) -> int:
    """An integer field of the form -?[0-9]+."""
    if _INT_RE.fullmatch(text) is None:
        raise ParseError(line_no, f"bad {what} {text!r}")
    return int(text)


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


class _IntMemo(dict):
    """Field text -> int, admitting only the texts that read -?[0-9]+; a
    miss on any other text raises KeyError."""

    def __missing__(self, text: str) -> int:
        if _INT_RE.fullmatch(text) is None:
            raise KeyError(text)
        value = self[text] = int(text)
        return value


def parse_table(text: str, magic: str, header: tuple[tuple[str, str | None], ...],
                cell_names: tuple[str, ...], check_cell, region, region_sizes, build):
    """Parse a coefficient table: the ``magic`` line, one metadata line,
    then one ``<cell> <value>`` row per in-region cell.

    ``header`` lists the metadata keys in order, each with the name its
    integer value goes by in error messages, or None for the character
    ``chi`` and the cusp flag ``cusp``.  The level ``N`` must be >= 1 and
    every other integer except the weight ``k`` >= 0.  The metadata reach
    the callbacks as a dict of those integers plus ``chi`` (the parsed
    character) and ``cusp`` (a bool): ``check_cell(cell, meta)`` returns
    an error message for a row outside the format's region, or None;
    ``region(meta)`` yields every cell that must be present, in the order
    in which the first missing one is named, and ``region_sizes(meta)``
    the cell counts of disjoint blocks that cover it, in any order, all
    but finitely many nonzero; ``build(meta, coeffs)`` makes the object,
    and a ValueError from it is reported at the metadata line.

    Every integer field must read -?[0-9]+ (see :func:`parse_int`).  The
    cell fields are read through a memo from field text to int that admits
    only such texts, so a repeated text is matched once; a row with a field
    the memo refuses is read again field by field, which names the first
    bad one.  Each distinct value text is parsed once, so a bad value is
    reported at the first row that carries it.

    Every accepted row is an in-region cell and no cell repeats, so the
    table is complete exactly when it holds as many cells as the region.
    The block sizes are summed only until they pass the row count, and the
    region is walked, to name the first missing cell, only when they do.
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
    usage = " ".join(f"<{name}>" for name in cell_names + ("value",))
    columns = len(cell_names) + 1
    ints = _IntMemo()
    coeffs: dict[tuple[int, ...], Scalar] = {}
    values: dict[str, Scalar] = {}  # value text -> its (immutable, shared) Scalar
    field = ints.__getitem__
    for line_no, raw in enumerate(lines[2:], start=3):
        parts = raw.split()
        if len(parts) != columns:
            if not parts:
                continue
            raise ParseError(line_no, f"expected '{usage}'")
        value_text = parts.pop()
        try:
            cell = tuple(map(field, parts))
        except KeyError:  # a field the memo refuses, so parse_int refuses it too
            cell = None
        if cell is None:  # strict, naming the first bad field
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
    if any(total > len(coeffs) for total in accumulate(region_sizes(meta))):
        for cell in region(meta):
            if cell not in coeffs:
                raise ParseError(len(lines) + 1,
                                 f"missing in-region coefficient {_cell_text(cell)}")
    try:
        return build(meta, coeffs)
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None


def _cell_text(cell: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, cell)) + ")"


def write_table(magic: str, meta: str, cells, coeffs) -> str:
    """The text :func:`parse_table` reads: the ``magic`` line, the metadata
    line ``meta``, then one ``<cell> <value>`` row for each of ``cells`` in
    order, its value read from the dict ``coeffs`` and zero where absent.

    Each distinct value object is turned into text once, by a memo keyed by
    id that lives for the call; ``coeffs`` and the one zero hold every
    keyed object for the whole call, so an id is never reused under the
    memo and a miss only costs a recomputation.
    """
    lines = [magic, meta]
    zero = Scalar.zero()
    texts: dict[int, str] = {}  # id of a value in coeffs (or of zero) -> its text
    for cell in cells:
        value = coeffs.get(cell, zero)
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = scalar_to_text(value)
        lines.append("%d " * len(cell) % cell + text)
    return "\n".join(lines) + "\n"
