"""The shared table parser behind SKJF and SKSF: one error table, both
formats, a row-by-row oracle for the parsed values, the row-by-row table
reader as an oracle on a corpus of mutated texts, the one-pass read of
writer output, the value-text reader and the one-pass read's memory."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sklift import jacobi, serialize, siegel
from sklift.characters import DirichletCharacter, parse_character
from sklift.jacobi import JacobiExpansion, builtin_form, index_shift, parse_skjf, write_skjf
from sklift.numtheory import Scalar, read_rational
from sklift.serialize import ParseError, _cell_text, parse_header, parse_int, scalar_from_text
from sklift.siegel import SiegelExpansion, lift, parse_sksf, write_sksf

from synth import order4_table_character_mod5, random_jacobi

PHI = builtin_form("phi10_1", 4)  # SKJF: 27 rows on lines 3..29
LIFT = lift(PHI, 2)  # SKSF: box 2x2, 28 rows on lines 3..30
FORMATS = {
    "skjf": (write_skjf(PHI), parse_skjf),
    "sksf": (write_sksf(LIFT), parse_sksf),
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
    ("skjf", "beyond nmax", _append("5 0 1/1"), 30, "coefficient (5,0) outside 0 <= n <= 4"),
    ("sksf", "outside the box", _append("1 0 3 1/1"), 31, "coefficient (1,0,3) outside the box"),
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
    ("skjf", "nmax out of range", _edit_header("nmax=4", "nmax=-1"), 2,
     "index/level/nmax out of range"),
    ("sksf", "underscore in header", _edit_header("mmax=2", "mmax=0_2"), 2, "bad mmax '0_2'"),
    ("skjf", "plus in chi", _edit_header("chi=trivial", "chi=kronecker:+1"), 2,
     "bad kronecker discriminant '+1'"),
    ("skjf", "root order above the modulus",
     _edit_header("N=1 chi=trivial", "N=2 chi=table:zeta^1/100003,0"), 2,
     "table value at 1 has root order 100003 > modulus 2"),
    ("skjf", "table entry N at a non-unit",
     _edit_header("N=1 chi=trivial", "N=4 chi=table:zeta^0/1,0,0,zeta^0/1"), 2,
     "table value at 4 must be zero"),
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
    # a cusp-flagged table with a nonzero boundary cell names the first one
    ("skjf", "nonzero boundary cell", _replace_values("5/1", 8), 2,
     "cusp flag set but boundary coefficient (1,2) is nonzero"),
    ("skjf", "two nonzero boundary cells", _replace_values("1/2", 8, 3), 2,
     "cusp flag set but boundary coefficient (0,0) is nonzero"),
    ("sksf", "nonzero singular cell", _replace_values("-1/1", 14), 2,
     "cusp flag set but singular coefficient (1,2,1) is nonzero"),
    ("sksf", "nonzero singular cell on m = 0", _replace_values("1/1,1/1,0/1", 9), 2,
     "cusp flag set but singular coefficient (1,0,0) is nonzero"),
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


# one message per bad cell: the public constructor's ValueError and the
# parser's ParseError for the same cell agree after "line <k>: "
BAD_CELLS = [
    ("skjf", "n < 0", PHI, (-1, 0)),
    ("skjf", "n > nmax", PHI, (5, 0)),
    ("skjf", "4nm - r^2 < 0", PHI, (1, 3)),
    ("skjf", "r != 0 at index 0", builtin_form("E4", 4), (1, 1)),
    ("sksf", "the zero matrix", LIFT, (0, 0, 0)),
    ("sksf", "outside the cone", LIFT, (1, 9, 1)),
    ("sksf", "outside the box", LIFT, (1, 0, 3)),
]


@pytest.mark.parametrize("fmt,case,form,cell", BAD_CELLS,
                         ids=[f"{fmt}-{case}" for fmt, case, *_ in BAD_CELLS])
def test_a_bad_cell_gets_the_constructors_message_from_a_file(fmt, case, form, cell):
    if fmt == "skjf":
        write, parse = write_skjf, parse_skjf
        build = JacobiExpansion
        fields = (form.weight, form.index, form.level, form.character, form.n_max)
    else:
        write, parse = write_sksf, parse_sksf
        build = SiegelExpansion
        fields = (form.weight, form.level, form.character, form.n_max, form.m_max)
    with pytest.raises(ValueError) as built:
        build(*fields, {cell: 1}, cusp=form.cusp)
    text = write(form) + " ".join(map(str, cell)) + " 1/1\n"
    with pytest.raises(ParseError) as parsed:
        parse(text)
    assert parsed.value.line_no == text.count("\n")
    assert str(parsed.value) == f"line {parsed.value.line_no}: {built.value}"


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


def _public_constructor(cls, coeffs, **fields):
    return cls(coeffs=coeffs, **fields)


def _parsed(parse, text):
    """The outcome of a parse: the error, or the written text and the
    (cell, order, coordinates) of every stored coefficient in order."""
    try:
        form = parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    written = (write_skjf if parse is parse_skjf else write_sksf)(form)
    return "ok", written, [(cell, c.order, c.coords) for cell, c in form.nonzero_items()]


def _matches_the_public_constructor(monkeypatch, texts):
    """Each text parses to the expansion the public constructor builds from
    the same rows (the same stored items in the same order), or fails with
    the same error."""
    got = [_parsed(parse, text) for text, parse in texts]
    with monkeypatch.context() as patch:
        patch.setattr(jacobi._Expansion, "_from_region", classmethod(_public_constructor))
        expected = [_parsed(parse, text) for text, parse in texts]
    for (text, _), a, b in zip(texts, got, expected):
        assert a == b, text
    return got


def _with_nonzero_boundary_cell(text):
    """The cusp-flagged table with 1 at its last cell where 4nm - r^2 = 0."""
    lines = text.splitlines()
    assert "cusp=1" in lines[1]
    index = int(lines[1].split(" m=")[1].split()[0]) if lines[0] == "SKJF 1" else None
    for at in range(len(lines) - 1, 1, -1):
        cell = tuple(map(int, lines[at].split()[:-1]))
        n, r, m = cell if index is None else cell + (index,)
        if 4 * n * m == r * r:
            lines[at] = " ".join(map(str, cell)) + " 1/1"
            return "\n".join(lines) + "\n"
    raise AssertionError("no boundary cell")


def test_parsed_tables_match_the_public_constructor(monkeypatch):
    texts = [(text, parse) for text, parse, _ in _oracle_tables()]
    got = _matches_the_public_constructor(monkeypatch, texts)
    assert all(outcome[0] == "ok" for outcome in got)
    bad = [(_with_nonzero_boundary_cell(text), parse) for text, parse in texts]
    got = _matches_the_public_constructor(monkeypatch, bad)
    for outcome in got:
        assert outcome[0] == "ParseError" and outcome[1].startswith("line 2: cusp flag set")


def test_parsers_match_the_row_by_row_oracle():
    for text, parse, lookup in _oracle_tables():
        parsed, oracle = parse(text), rows_oracle(text)
        # orbit-constant data repeats values, which the parser shares
        assert len({scalar.coords for scalar in oracle.values()}) < len(oracle) // 4
        for cell, value in oracle.items():
            got = lookup(parsed, cell)
            assert (got.order, got.coords) == (value.order, value.coords), cell
        assert len(parsed.nonzero_items()) == sum(1 for v in oracle.values() if v)


# ---------------------------------------------------------------------------
# oracle: the table reader that checks every row, scans the whole text for
# the int() path and walks the whole region for missing cells
# ---------------------------------------------------------------------------

def parse_table_oracle(text, magic, header, cell_names, check_cell, region, build):
    """A table reader with no one-pass read; it has the arguments of
    :func:`sklift.serialize.parse_table`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != magic:
        raise ParseError(1, f"expected header {magic!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing metadata line")
    fields = parse_header(lines[1], tuple(key for key, _ in header), 2)
    meta = {key: parse_int(fields[key], 2, what) for key, what in header if what}
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
    plain = text.isascii() and "_" not in text and "+" not in text
    coeffs = {}
    values = {}
    for line_no, raw in enumerate(lines[2:], start=3):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != columns:
            raise ParseError(line_no, f"expected '{usage}'")
        try:
            cell = tuple(map(int, parts[:-1])) if plain else None
        except ValueError:
            cell = None
        if cell is None:
            cell = tuple(parse_int(part, line_no, name) for part, name in zip(parts, cell_names))
        error = check_cell(cell, meta)
        if error is not None:
            raise ParseError(line_no, error)
        if cell in coeffs:
            raise ParseError(line_no, f"duplicate coefficient {_cell_text(cell)}")
        value = values.get(parts[-1])
        if value is None:
            value = values[parts[-1]] = scalar_from_text(parts[-1], line_no)
        coeffs[cell] = value
    for cell in region(meta):
        if cell not in coeffs:
            raise ParseError(len(lines) + 1, f"missing in-region coefficient {_cell_text(cell)}")
    try:
        return build(meta, coeffs)
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None


_TOKENS = ("+4", "0_0", "\u0663", "-0", "007", "1/0")


def _mutate(lines, rng):
    """One random edit of a table's lines."""
    lines = list(lines)
    at = rng.randrange(len(lines))
    kind = rng.randrange(8)
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, lines[at])
    elif kind == 2:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 3:
        lines.insert(at, rng.choice(("", "  ", "\t")))
    elif kind == 4:
        lines[at] = lines[at].replace(" ", "\t", rng.randint(1, 3))
    elif kind == 5:
        lines[at] = rng.choice((" ", "\t", "  ")) + lines[at] + rng.choice(("", " ", "\t "))
    elif kind == 6:
        lines[at] = lines[at] + rng.choice((" 0", " 1/1", " x"))
    else:  # a token in a cell, value or header field
        at = rng.randrange(1, len(lines))
        fields = lines[at].split(" ")
        i = rng.randrange(len(fields))
        token = rng.choice(_TOKENS)
        if at == 1 and "=" in fields[i]:
            fields[i] = fields[i].split("=")[0] + "=" + token
        else:
            fields[i] = token
        lines[at] = " ".join(fields)
    return lines


def _corpus_bases():
    """Small SKJF and SKSF texts under the trivial, kronecker:-3 and order-4
    mod-5 characters, with index 0, 1 and 2 among the SKJF ones."""
    rng = random.Random(10)
    phi = builtin_form("phi10_1", 6)
    yield write_skjf(phi), parse_skjf
    yield write_skjf(builtin_form("E4", 6)), parse_skjf
    yield write_sksf(lift(phi, 2)), parse_sksf
    for chi, factor in ((DirichletCharacter.kronecker(-3), 1),
                        (order4_table_character_mod5(), Scalar.zeta(4, 1) + 2)):
        phi = random_jacobi(9, chi.modulus, chi, 6, rng) * factor
        yield write_skjf(phi), parse_skjf
        yield write_skjf(index_shift(phi, 2)), parse_skjf
        yield write_sksf(lift(phi, 2)), parse_sksf


def _outcome(parse, text):
    try:
        form = parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return "ok", (write_skjf if parse is parse_skjf else write_sksf)(form)


def _mutated_corpus():
    """(text, parser) for 300 random edits of each corpus base."""
    rng = random.Random(2000)
    corpus = []
    for good, parse in _corpus_bases():
        lines = good.splitlines()
        for _ in range(300):
            edited = _mutate(lines, rng)
            if rng.random() < 0.3:
                edited = _mutate(edited, rng)
            corpus.append(("\n".join(edited) + "\n", parse))
    return corpus


def test_parsers_match_the_row_by_row_reader_on_mutated_texts(monkeypatch):
    corpus = _mutated_corpus()
    assert len(corpus) >= 2000
    got = [_outcome(parse, text) for text, parse in corpus]
    monkeypatch.setattr(jacobi, "parse_table", parse_table_oracle)
    monkeypatch.setattr(siegel, "parse_table", parse_table_oracle)
    expected = [_outcome(parse, text) for text, parse in corpus]
    for (text, _), a, b in zip(corpus, got, expected):
        assert a == b, text
    # the corpus reaches both outcomes and many different errors
    assert sum(kind == "ok" for kind, _ in got) >= 200
    messages = {text.split(": ", 1)[1].split("'")[0] for kind, text in got if kind != "ok"}
    assert len(messages) >= 20, sorted(messages)


@pytest.mark.parametrize("text,message", [
    ("SKSF 1\nk=10 N=1 chi=trivial nmax=1000000000 mmax=1000000000 cusp=1\n",
     "line 3: missing in-region coefficient (0,0,1)"),
    ("SKJF 1\nk=10 m=1000000000 N=1 chi=trivial nmax=1000000000000 cusp=1\n0 0 0/1\n",
     "line 4: missing in-region coefficient (1,-63245)"),
], ids=["sksf", "skjf"])
def test_short_table_with_a_huge_region_fails_at_once(text, message):
    # the region is walked only up to its first missing cell
    parse = parse_sksf if text.startswith("SKSF") else parse_skjf
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("write,message", [
    (write_skjf, "line 259: missing in-region coefficient (21,-2)"),
    (lambda phi: write_sksf(lift(phi, 4)), "line 259: missing in-region coefficient (6,3,2)"),
], ids=["skjf", "sksf"])
def test_writer_table_cut_at_a_block_boundary_is_incomplete(write, message):
    # every row left is the writer's, so only the region walk, which goes
    # on past the rows, shows the table is short
    lines = write(builtin_form("phi10_1", 40)).splitlines()
    assert len(lines) - 2 > 256
    cut = "\n".join(lines[:2 + 256]) + "\n"
    parse = parse_skjf if cut.startswith("SKJF") else parse_sksf
    with pytest.raises(ParseError) as exc:
        parse(cut)
    assert str(exc.value) == message


def test_mutated_texts_parse_as_the_public_constructor_builds(monkeypatch):
    got = _matches_the_public_constructor(monkeypatch, _mutated_corpus())
    assert sum(outcome[0] == "ok" for outcome in got) >= 200


# ---------------------------------------------------------------------------
# the one-pass read of writer output, and the row loop for every other text
# ---------------------------------------------------------------------------

def _refusing_row_loop(text, magic, header, cell_names, check_cell, *rest):
    """parse_table with a check_cell that fails on the first row the row
    loop reads."""
    def refuse(cell, meta):
        raise AssertionError(f"the row loop read {cell}")
    return serialize.parse_table(text, magic, header, cell_names, refuse, *rest)


def test_writer_output_is_read_in_one_pass(monkeypatch):
    texts = [(text, parse) for text, parse, _ in _oracle_tables()] + list(_corpus_bases())
    expected = [_outcome(parse, text) for text, parse in texts]
    monkeypatch.setattr(jacobi, "parse_table", _refusing_row_loop)
    monkeypatch.setattr(siegel, "parse_table", _refusing_row_loop)
    for (text, parse), outcome in zip(texts, expected):
        assert outcome[0] == "ok"
        assert _outcome(parse, text) == outcome


@pytest.mark.parametrize("chunk", [1, 40, 1000])
def test_writer_output_is_read_in_one_pass_at_any_chunk_size(monkeypatch, chunk):
    # a chunk shorter than a row holds that one row; a longer one ends at
    # the last newline it holds
    texts = list(_corpus_bases())
    expected = [_outcome(parse, text) for text, parse in texts]
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    monkeypatch.setattr(jacobi, "parse_table", _refusing_row_loop)
    monkeypatch.setattr(siegel, "parse_table", _refusing_row_loop)
    for (text, parse), outcome in zip(texts, expected):
        assert _outcome(parse, text) == outcome


def test_a_table_without_its_last_newline_goes_to_the_row_loop(monkeypatch):
    # the one-pass read meets a last row with no newline and hands the
    # table to the row loop, which reads it as the table with the newline
    read_rows = serialize._read_rows
    reads = []

    def counted(body, *args):
        reads.append(len(body))
        return read_rows(body, *args)

    monkeypatch.setattr(serialize, "_read_rows", counted)
    for good, parse in _corpus_bases():
        assert good.endswith("\n") and not good.endswith("\n\n")
        expected = _outcome(parse, good)
        assert expected[0] == "ok" and not reads
        assert _outcome(parse, good[:-1]) == expected
        assert reads == [len(good.splitlines()) - 2]
        reads.clear()


# a writer row -> the same row with one value edit
_VALUE_EDITS = {
    "trailing tab": lambda row: row + "\t",
    "doubled space": lambda row: row.rsplit(" ", 1)[0] + "  " + row.rsplit(" ", 1)[1],
    "empty value": lambda row: row.rsplit(" ", 1)[0] + " ",
    "arabic-indic digit": lambda row: row.rsplit(" ", 1)[0] + " \u0661/1",
    "zero denominator": lambda row: row.rsplit(" ", 1)[0] + " 1/0",
    "plus sign": lambda row: row.rsplit(" ", 1)[0] + " +4/1",
    "extra field": lambda row: row.rsplit(" ", 1)[0] + " 1/1 x",
}


@pytest.mark.parametrize("edit", list(_VALUE_EDITS.values()), ids=list(_VALUE_EDITS))
def test_texts_off_writer_output_in_a_value_go_to_the_row_loop(monkeypatch, edit):
    cases = []
    bases = list(_corpus_bases()) + [(text, parse) for text, parse, _ in _oracle_tables()]
    for good, parse in bases:  # the oracle tables span more than one block
        lines = good.splitlines()
        for at in (2, len(lines) // 2, len(lines) - 1):
            edited = lines[:at] + [edit(lines[at])] + lines[at + 1:]
            cases.append(("\n".join(edited) + "\n", parse))
    read_rows = serialize._read_rows
    reads = []

    def counted(body, *args):
        reads.append(len(body))
        return read_rows(body, *args)

    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_read_rows", counted)
        got = [_outcome(parse, text) for text, parse in cases]
    assert len(reads) == len(cases)
    monkeypatch.setattr(jacobi, "parse_table", parse_table_oracle)
    monkeypatch.setattr(siegel, "parse_table", parse_table_oracle)
    for (text, parse), outcome in zip(cases, got):
        assert outcome == _outcome(parse, text), text


# ---------------------------------------------------------------------------
# a value text read part by part by read_rational, in and out of a table
# ---------------------------------------------------------------------------

@given(st.text(alphabet="-0123456789/,+_ x١²", max_size=12))
@example("١/1")
@example("1/2,-3/١")
@example("+4/1")
@example("1_0/1")
@example(" 1/2")
@example("1/-2")
@example("1/-0")
@example("-0/007,1/2")
@example("1/2/3,4")
@example("1/2,,3/4")
@example("1/0,1/2")
def test_a_value_text_is_read_as_read_rational_reads_its_parts(text):
    parts = [read_rational(part) for part in text.split(",")]
    bad = next((i for i, part in enumerate(parts) if part is None or part[1] == 0), None)
    if bad is None:
        value = scalar_from_text(text, 7)
        expected = Scalar(len(parts), [Fraction(num, den) for num, den in parts])
        assert (value.order, value.coords) == (expected.order, expected.coords)
        return
    part = text.split(",")[bad]
    message = "zero denominator" if parts[bad] else f"bad rational {part!r} (expected num/den)"
    with pytest.raises(ParseError) as exc:
        scalar_from_text(text, 7)
    assert str(exc.value) == f"line 7: {message}"


_PHI10_ROWS = write_skjf(builtin_form("phi10_1", 6)).splitlines()


@given(st.text(alphabet="-0123456789/,+_ x١²", max_size=12))
@example("١/1")
@example("1/2,-3/١")
@example("+4/1")
@example("1_0/1")
@example(" 1/2")
@example("1/-2")
@example("1/-0")
@example("-0/007,1/2")
@example("1/2/3,4")
@example("1/2,,3/4")
@example("1/0,1/2")
def test_a_value_text_in_a_writer_table_is_read_as_the_row_loop_reads_it(text):
    # the text as the value of a mid-table row of writer output: the one-pass
    # read takes it or hands the table to the row loop, which names the line
    lines = list(_PHI10_ROWS)
    at = len(lines) // 2
    lines[at] = lines[at].rsplit(" ", 1)[0] + " " + text
    table = "\n".join(lines) + "\n"
    got = _outcome(parse_skjf, table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jacobi, "parse_table", parse_table_oracle)
        assert got == _outcome(parse_skjf, table)


# ---------------------------------------------------------------------------
# memory: the one-pass read holds a chunk of rows at a time
# ---------------------------------------------------------------------------

def test_reading_a_table_peaks_below_three_times_what_the_result_keeps():
    phi = builtin_form("phi10_1", 300)
    for text, parse in ((write_skjf(phi), parse_skjf), (write_sksf(lift(phi, 20)), parse_sksf)):
        tracemalloc.start()
        try:
            form = parse(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(form.nonzero_items()) > 9000
        assert peak <= 3 * kept, (text[:6], peak, kept)
