"""One reader for every integer in the text formats: SKJF/SKSF headers,
cells and values, reports, character specs, the H cache and command lines
all read -?[0-9]+ through ``numtheory.read_int`` (and num/den through
``read_rational``), so an integer past Python's int-string digit limit gets
its site's own line-numbered message; a value the writers cannot write for
the same limit is named by its cell."""

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sklift.characters import DirichletCharacter
from sklift.cli import main
from sklift.jacobi import builtin_form, parse_skjf, write_skjf
from sklift.numtheory import Scalar, read_int, read_rational
from sklift.serialize import ParseError
from sklift.siegel import (RelationReport, SiegelExpansion, Violation, lift, parse_report,
                           parse_sksf, report_to_text, write_sksf)

# 0 where there is no limit (before Python 3.10.7, or when it is switched off)
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(LIMIT == 0, reason="no int-string digit limit")
BIG = "9" * (LIMIT + 1)

PHI = builtin_form("phi10_1", 4)
SKJF = write_skjf(PHI)  # 27 rows on lines 3..29; line 5 is '1 -1 1/1'
SKSF = write_sksf(lift(PHI, 2))  # line 7 is '1 -1 1 1/1'


def _replace_line(text, line_no, new):
    lines = text.splitlines()
    lines[line_no - 1] = new
    return "\n".join(lines) + "\n"


@given(st.text(alphabet="-0123456789/+_ x\u0661\u00b2", max_size=8))
def test_readers_read_exactly_the_writers_grammar(text):
    int_match = re.fullmatch(r"-?[0-9]+", text)
    assert read_int(text) == (int(text) if int_match else None)
    rational_match = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", text)
    assert read_rational(text) == (tuple(map(int, rational_match.groups()))
                                   if rational_match else None)


@needs_limit
def test_an_integer_of_the_limits_length_is_read():
    digits = "9" * LIMIT
    assert read_int("-" + digits) == -int(digits)
    assert read_rational(f"-{digits}/{digits}") == (-int(digits), int(digits))
    assert read_int(BIG) is None and read_int("-" + BIG) is None
    assert read_rational(f"{BIG}/1") is None and read_rational(f"1/{BIG}") is None
    phi = parse_skjf(_replace_line(SKJF, 5, f"1 -1 {digits}/1"))
    assert phi.coeff(1, -1) == int(digits)


_VIOLATION = "REL=classical T=(1,0,1) l=0 L=1/1 R=0/1"

# (site, text, parser, line number, message)
OVERSIZED = [
    ("skjf-header-nmax", SKJF.replace("nmax=4", f"nmax={BIG}"), parse_skjf, 2,
     f"bad nmax {BIG!r}"),
    ("skjf-cell-n", SKJF + f"{BIG} 0 1/1\n", parse_skjf, 30, f"bad n {BIG!r}"),
    ("skjf-value", _replace_line(SKJF, 5, f"1 -1 {BIG}/1"), parse_skjf, 5,
     f"bad rational {BIG + '/1'!r} (expected num/den)"),
    ("sksf-value", _replace_line(SKSF, 7, f"1 -1 1 1/{BIG}"), parse_sksf, 7,
     f"bad rational {'1/' + BIG!r} (expected num/den)"),
    ("report-skipped", f"VERDICT=PASS\n\nSKIPPED={BIG}\n", parse_report, 3,
     f"bad skip count {BIG!r}"),
    ("report-t", f"VERDICT=FAIL\n{_VIOLATION.replace('T=(1,', f'T=({BIG},')}\nSKIPPED=0\n",
     parse_report, 2,
     f"malformed violation line: {_VIOLATION.replace('T=(1,', f'T=({BIG},')!r}"),
    ("report-l", f"VERDICT=FAIL\n{_VIOLATION.replace('L=1/1', f'L={BIG}/1')}\nSKIPPED=0\n",
     parse_report, 2, f"bad rational {BIG + '/1'!r} (expected num/den)"),
    ("chi-kronecker", SKJF.replace("chi=trivial", f"chi=kronecker:{BIG}"), parse_skjf, 2,
     f"bad kronecker discriminant {BIG!r}"),
    ("chi-table", SKJF.replace("chi=trivial", f"chi=table:zeta^{BIG}/2"), parse_skjf, 2,
     f"bad table value {'zeta^' + BIG + '/2'!r}"),
]


@needs_limit
@pytest.mark.parametrize("site,text,parse,line_no,message", OVERSIZED,
                         ids=[site for site, *_ in OVERSIZED])
def test_an_integer_past_the_limit_gets_its_sites_message(site, text, parse, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


@needs_limit
def test_an_h_cache_record_past_the_limit_names_its_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cohen_h.txt"
    record = f"H 1 {BIG} 1/3"
    path.write_text(f"{record}\nH 1 3 1/3\n")
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path))
    assert main(["cohen", "--r=1", "--nmax=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} line 1: malformed cache record {record!r}\n"


@needs_limit
def test_a_flag_past_the_limit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--form=phi10_1", f"--nmax={BIG}"])
    assert exc.value.code == 2
    assert "argument --nmax: invalid int value" in capsys.readouterr().err


@needs_limit
def test_a_value_past_the_limit_is_named_by_its_cell_when_written():
    big = Scalar.coerce(10 ** LIMIT)  # LIMIT + 1 digits
    F = SiegelExpansion(10, 1, DirichletCharacter.trivial(), 2, 1,
                        {(1, 1, 1): Scalar.one(), (2, -1, 1): big / 3})
    message = rf"Exceeds the limit \({LIMIT} digits\)"
    with pytest.raises(ValueError, match=rf"^cannot write the value at \(2,-1,1\): {message}"):
        write_sksf(F)
    report = RelationReport([Violation("classical", 1, 0, 1, 0, Scalar.one(), Scalar.zero()),
                             Violation("plocal", 2, -1, 3, 2, Scalar.zero(), big)])
    with pytest.raises(ValueError, match=rf"^cannot write the value at T=\(2,-1,3\): {message}"):
        report_to_text(report)


@needs_limit
def test_a_lift_past_the_limit_names_the_cell_and_writes_no_file(tmp_path, capsys):
    # C(3) of LIMIT digits is read, but A(2, -2, 2) = C(12) + 2^9 C(3) has more
    phi = tmp_path / "phi.skjf"
    phi.write_text(_replace_line(write_skjf(builtin_form("phi10_1", 24)), 5,
                                 f"1 -1 {'9' * LIMIT}/1"))
    out = tmp_path / "phi.sksf"
    assert main(["lift", f"--in={phi}", "--mmax=4", f"--out={out}"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write the value at (2,-2,2): Exceeds the limit ({LIMIT} digits) ")
    assert not out.exists()
