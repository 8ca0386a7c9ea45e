"""The shared table parser behind SKJF and SKSF: one error table, both
formats, and a row-by-row oracle for the parsed values."""

import random

import pytest

from sklift.characters import DirichletCharacter
from sklift.jacobi import builtin_form, parse_skjf, write_skjf
from sklift.numtheory import Scalar
from sklift.serialize import ParseError, scalar_from_text
from sklift.siegel import lift, parse_sksf, write_sksf

from synth import order4_table_character_mod5, random_jacobi

PHI = builtin_form("phi10_1", 4)  # SKJF: 27 rows on lines 3..29
FORMATS = {
    "skjf": (write_skjf(PHI), parse_skjf),
    "sksf": (write_sksf(lift(PHI, 2)), parse_sksf),  # box 2x2: 28 rows on lines 3..30
}


def _replace_line(at, new):
    def edit(lines):
        return lines[:at - 1] + [new] + lines[at:]
    return edit


def _edit_header(old, new):
    def edit(lines):
        return [lines[0], lines[1].replace(old, new)] + lines[2:]
    return edit


def _append(row):
    return lambda lines: lines + [row]


def _replace_values(value, *at):
    """Set the value field of each given line to ``value``."""
    def edit(lines):
        lines = list(lines)
        for line_no in at:
            lines[line_no - 1] = lines[line_no - 1].rsplit(" ", 1)[0] + " " + value
        return lines
    return edit


# (format, case, edit of the good file's lines, line number, message)
CASES = [
    ("skjf", "bad magic", _replace_line(1, "SKJF 2"), 1, "expected header 'SKJF 1'"),
    ("sksf", "bad magic", _replace_line(1, "SKSF 2"), 1, "expected header 'SKSF 1'"),
    ("skjf", "missing metadata", lambda lines: lines[:1], 2, "missing metadata line"),
    ("sksf", "missing metadata", lambda lines: lines[:1], 2, "missing metadata line"),
    ("skjf", "bad cusp flag", _edit_header("cusp=1", "cusp=2"), 2, "bad cusp flag '2'"),
    ("sksf", "bad cusp flag", _edit_header("cusp=1", "cusp=yes"), 2, "bad cusp flag 'yes'"),
    ("skjf", "column count", _append("1 0 1/1 1/1"), 30, "expected '<n> <r> <value>'"),
    ("sksf", "column count", _append("1 0 1/1"), 31, "expected '<n> <r> <m> <value>'"),
    ("skjf", "beyond nmax", _append("5 0 1/1"), 30, "n=5 exceeds nmax=4"),
    ("sksf", "outside the box", _append("1 0 3 1/1"), 31, "(1,0,3) outside the box"),
    ("skjf", "duplicate cell", _append("2 -1 7/1"), 30, "duplicate coefficient (2,-1)"),
    ("sksf", "duplicate cell", _append("2 1 1 7/1"), 31, "duplicate coefficient (2,1,1)"),
    ("skjf", "missing cell", lambda lines: lines[:-1], 29,
     "missing in-region coefficient (4,4)"),
    ("sksf", "missing cell", lambda lines: lines[:-1], 30,
     "missing in-region coefficient (2,4,2)"),
    ("skjf", "bad n", _append("x 0 1/1"), 30, "bad n 'x'"),
    ("sksf", "bad n", _append("x 0 1 1/1"), 31, "bad n 'x'"),
    ("skjf", "bad r", _append("1 1.5 1/1"), 30, "bad r '1.5'"),
    ("sksf", "bad r", _append("1 y 1 1/1"), 31, "bad r 'y'"),
    ("sksf", "bad m", _append("1 0 z 1/1"), 31, "bad m 'z'"),
    ("skjf", "first bad field", _append("a b 1/1"), 30, "bad n 'a'"),
    ("sksf", "first bad field", _append("1 b c 1/1"), 31, "bad r 'b'"),
    ("skjf", "bad rational", _replace_values("1/x", 5), 5,
     "bad rational '1/x' (expected num/den)"),
    ("sksf", "bad rational", _replace_values("1/x", 7), 7,
     "bad rational '1/x' (expected num/den)"),
    ("skjf", "bad coordinate", _replace_values("1/1,2", 6), 6,
     "bad rational '2' (expected num/den)"),
    ("skjf", "zero denominator", _replace_values("3/0", 8), 8, "zero denominator"),
    ("sksf", "zero denominator", _replace_values("1/1,3/0", 9), 9, "zero denominator"),
    ("skjf", "same bad value twice", _replace_values("7/x", 11, 4), 4,
     "bad rational '7/x' (expected num/den)"),
    ("sksf", "same bad value twice", _replace_values("0/0", 12, 6), 6, "zero denominator"),
    # integer fields read -?[0-9]+ only: no '+', no '_', no non-ASCII digits
    ("skjf", "plus in header", _edit_header("nmax=4", "nmax=+4"), 2, "bad nmax '+4'"),
    ("sksf", "underscore in header", _edit_header("mmax=2", "mmax=0_2"), 2, "bad mmax '0_2'"),
    ("skjf", "plus in chi", _edit_header("chi=trivial", "chi=kronecker:+1"), 2,
     "bad kronecker discriminant '+1'"),
    ("skjf", "underscore cell", _append("0_0 -2 0/1"), 30, "bad n '0_0'"),
    ("sksf", "underscore cell", _append("1 0_0 1 0/1"), 31, "bad r '0_0'"),
    ("skjf", "plus cell", _replace_line(4, "1 +1 1/1"), 4, "bad r '+1'"),
    ("sksf", "plus cell", _replace_line(30, "2 4 +2 0/1"), 30, "bad m '+2'"),
    ("skjf", "non-ASCII digit value", _replace_values("\u0661/1", 5), 5,
     "bad rational '\u0661/1' (expected num/den)"),
    ("skjf", "non-ASCII digit cell", _append("4 \u0660 1/1"), 30, "bad r '\u0660'"),
    ("sksf", "non-ASCII digit cell", _append("\u0661 0 1 1/1"), 31, "bad n '\u0661'"),
    ("sksf", "non-ASCII digit value", _replace_values("1/\u0661", 7), 7,
     "bad rational '1/\u0661' (expected num/den)"),
]


@pytest.mark.parametrize("fmt,case,edit,line_no,message", CASES,
                         ids=[f"{fmt}-{case}" for fmt, case, *_ in CASES])
def test_parse_error_table(fmt, case, edit, line_no, message):
    good, parse = FORMATS[fmt]
    text = "\n".join(edit(good.splitlines())) + "\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


# ---------------------------------------------------------------------------
# oracle: scalar_from_text on every row, no value shared between rows
# ---------------------------------------------------------------------------

def rows_oracle(text):
    """{cell: value} of a table's rows, each value parsed on its own."""
    coeffs = {}
    for line_no, raw in enumerate(text.splitlines()[2:], start=3):
        parts = raw.split()
        if parts:
            coeffs[tuple(map(int, parts[:-1]))] = scalar_from_text(parts[-1], line_no)
    return coeffs


def _oracle_tables():
    """(SKJF or SKSF text, parser, lookup) for orbit-constant inputs and
    their lifts under kronecker:-3 (rational values) and the order-4 mod-5
    table character (values in Q(zeta_4))."""
    rng = random.Random(90)
    for chi, factor in ((DirichletCharacter.kronecker(-3), 1),
                        (order4_table_character_mod5(), Scalar.zeta(4, 1) + 2)):
        phi = random_jacobi(9, chi.modulus, chi, 30, rng) * factor
        yield write_skjf(phi), parse_skjf, lambda form, cell: form.coeff(*cell)
        for m_max in (2, 5):
            yield write_sksf(lift(phi, m_max)), parse_sksf, lambda form, cell: form.a(*cell)


def test_parsers_match_the_row_by_row_oracle():
    for text, parse, lookup in _oracle_tables():
        parsed, oracle = parse(text), rows_oracle(text)
        # orbit-constant data repeats values, which the parser shares
        assert len({scalar.coords for scalar in oracle.values()}) < len(oracle) // 4
        for cell, value in oracle.items():
            got = lookup(parsed, cell)
            assert (got.order, got.coords) == (value.order, value.coords), cell
        assert len(parsed.nonzero_items()) == sum(1 for v in oracle.values() if v)
