"""The shared table parser behind SKJF and SKSF: one error table, both formats."""

import pytest

from sklift.jacobi import builtin_form, parse_skjf, write_skjf
from sklift.serialize import ParseError
from sklift.siegel import lift, parse_sksf, write_sksf

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

