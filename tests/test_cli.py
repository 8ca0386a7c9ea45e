"""The command-line surface: verbs, exit codes, determinism."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sklift
from sklift import cli
from sklift.characters import DirichletCharacter
from sklift.cli import build_parser, main
from sklift.jacobi import JacobiExpansion, builtin_form, parse_skjf, write_skjf
from sklift.numtheory import Scalar, primes_up_to
from sklift.siegel import (
    RelationReport,
    SiegelExpansion,
    check_classical,
    check_p_relations,
    check_singular_law,
    check_symmetric,
    is_maass,
    lift,
    parse_report,
    parse_sksf,
    report_to_text,
    write_sksf,
)

from synth import legendre_table_spec, order4_table_character_mod5, random_jacobi, siegel_product


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_phi10(tmp_path, capsys):
    out = tmp_path / "phi10.skjf"
    code, _, _ = run(["gen", "--form=phi10_1", "--nmax=8", f"--out={out}"], capsys)
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[2] == "0 0 0/1"  # cusp form: zero constant term
    assert parse_skjf(text).cusp


def test_gen_e41_normalization(capsys):
    code, out, _ = run(["gen", "--form=E4_1", "--nmax=2"], capsys)
    assert code == 0
    assert out.splitlines()[2] == "0 0 1/1"


def test_gen_delta(capsys):
    code, out, _ = run(["gen", "--form=Delta", "--nmax=5"], capsys)
    assert code == 0
    assert "1 0 1/1" in out.splitlines()


def test_gen_unknown_form_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--form=E8", "--nmax=4"])
    assert exc.value.code != 0


def test_lift_and_verify_roundtrip(tmp_path, capsys):
    skjf = tmp_path / "in.skjf"
    sksf = tmp_path / "out.sksf"
    assert run(["gen", "--form=phi10_1", "--nmax=20", f"--out={skjf}"], capsys)[0] == 0
    assert run(["lift", f"--in={skjf}", "--mmax=4", f"--out={sksf}"], capsys)[0] == 0
    F = parse_sksf(sksf.read_text())
    assert fj_slice_equal(F, skjf.read_text())
    code, out, _ = run(["verify", f"--in={sksf}", "--mode=all"], capsys)
    assert code == 0
    assert out.startswith("VERDICT=PASS")


def fj_slice_equal(F, skjf_text):
    phi = parse_skjf(skjf_text)
    from sklift.siegel import fj_coefficient
    return fj_coefficient(F, 1) == phi.truncate(F.n_max)


def test_lift_rejects_eisenstein_part(tmp_path, capsys):
    skjf = tmp_path / "e41.skjf"
    run(["gen", "--form=E4_1", "--nmax=8", f"--out={skjf}"], capsys)
    code, _, err = run(["lift", f"--in={skjf}", "--mmax=2"], capsys)
    assert code == 2
    assert "constant term" in err


def test_lift_with_mmax_zero_is_a_data_error(tmp_path, capsys):
    skjf = tmp_path / "phi10.skjf"
    assert run(["gen", "--form=phi10_1", "--nmax=8", f"--out={skjf}"], capsys)[0] == 0
    out = tmp_path / "never.sksf"
    assert run(["lift", f"--in={skjf}", "--mmax=0", f"--out={out}"], capsys) == \
        (2, "", "error: m_max must be >= 1\n")
    assert not out.exists()


def test_lift_deterministic_output(tmp_path, capsys):
    skjf = tmp_path / "in.skjf"
    run(["gen", "--form=phi12_1", "--nmax=12", f"--out={skjf}"], capsys)
    a = tmp_path / "a.sksf"
    b = tmp_path / "b.sksf"
    run(["lift", f"--in={skjf}", "--mmax=3", f"--out={a}"], capsys)
    run(["lift", f"--in={skjf}", "--mmax=3", f"--out={b}"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_verify_modes_and_exit_codes(tmp_path, capsys):
    skjf = tmp_path / "in.skjf"
    sksf = tmp_path / "lift.sksf"
    run(["gen", "--form=phi10_1", "--nmax=16", f"--out={skjf}"], capsys)
    run(["lift", f"--in={skjf}", "--mmax=4", f"--out={sksf}"], capsys)
    for mode in ("classical", "symmetric", "plocal", "all"):
        code, out, _ = run(["verify", f"--in={sksf}", f"--mode={mode}"], capsys)
        assert code == 0, mode
        report = parse_report(out)
        assert report.verdict

    # break one coefficient: A(4,1,1) += 1
    text = sksf.read_text().splitlines()
    for i, line in enumerate(text):
        if line.startswith("4 1 1 "):
            num, den = line.split()[3].split("/")
            text[i] = f"4 1 1 {int(num) + int(den)}/{den}"
            break
    broken = tmp_path / "broken.sksf"
    broken.write_text("\n".join(text) + "\n")
    code, out, _ = run(["verify", f"--in={broken}", "--mode=all"], capsys)
    assert code == 1
    assert out.startswith("VERDICT=FAIL")
    assert "T=(2,1,2)" in out


def test_verify_single_shift_flags(tmp_path, capsys):
    skjf = tmp_path / "in.skjf"
    sksf = tmp_path / "lift.sksf"
    run(["gen", "--form=phi10_1", "--nmax=12", f"--out={skjf}"], capsys)
    run(["lift", f"--in={skjf}", "--mmax=2", f"--out={sksf}"], capsys)
    assert run(["verify", f"--in={sksf}", "--mode=symmetric", "--l=2"], capsys)[0] == 0
    assert run(["verify", f"--in={sksf}", "--mode=plocal", "--p=2"], capsys)[0] == 0


@pytest.mark.parametrize("mode,flag", [
    ("plocal", "--l=3"), ("classical", "--l=2"), ("all", "--l=2"),
    ("symmetric", "--p=2"), ("classical", "--p=3"), ("all", "--p=2"),
])
def test_verify_rejects_shift_flag_of_another_mode(capsys, mode, flag):
    # a usage error, raised before the input file is read
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in=missing.sksf", f"--mode={mode}", flag])
    assert exc.value.code == 2
    wanted = "--mode=symmetric" if flag.startswith("--l") else "--mode=plocal"
    assert f"verify {flag.split('=')[0]} requires {wanted}" in capsys.readouterr().err


def test_verify_plocal_degenerate_level(tmp_path, capsys):
    # p | N: the checker enforces A(2n, r, m) = A(n, r, 2m)
    import random

    from sklift.siegel import write_sksf
    from synth import degenerate_level2_siegel

    rng = random.Random(5)
    F = degenerate_level2_siegel(4, 6, 6, rng)
    good = tmp_path / "degenerate.sksf"
    good.write_text(write_sksf(F))
    report_path = tmp_path / "report.txt"
    code, _, _ = run(
        ["verify", f"--in={good}", "--mode=plocal", "--p=2", f"--out={report_path}"],
        capsys,
    )
    assert code == 0
    assert report_path.read_text().startswith("VERDICT=PASS")

    bad = tmp_path / "broken.sksf"
    bad.write_text(write_sksf(F.perturbed(2, 1, 1)))
    code, out, _ = run(["verify", f"--in={bad}", "--mode=plocal", "--p=2"], capsys)
    assert code == 1
    assert "REL=plocal T=(1,1,1) l=2" in out


def test_single_family_reports_list_violations_in_cell_order(tmp_path, capsys):
    # a non-lift with violations in two families; one family's report, like
    # a merged one, lists them in (n, r, m) order
    F = lift(builtin_form("phi10_1", 24), 4)
    square = siegel_product(F, F)
    path = tmp_path / "square.sksf"
    path.write_text(write_sksf(square))
    code, out, _ = run(["verify", f"--in={path}", "--mode=classical"], capsys)
    assert code == 1
    reports = {"classical": check_classical(square), "symmetric": check_symmetric(square, 2),
               "cli": parse_report(out)}
    assert out == report_to_text(reports["classical"])
    counts = {}
    for name, report in reports.items():
        cells = [(v.n, v.r, v.m) for v in report.violations]
        assert cells == sorted(cells), name
        counts[name] = len(cells)
    assert counts == {"classical": 19, "symmetric": 26, "cli": 19}


def verify_all_oracle(F):
    """`verify --mode=all` as the composition of the public checkers:
    classical, is_maass at the box primes, then p-local at each of them."""
    box_primes = primes_up_to(max(F.n_max, F.m_max))
    report = check_classical(F).merged_with(is_maass(F, box_primes))
    for p in box_primes:
        report = report.merged_with(check_p_relations(F, p))
    return report


def verify_oracle(F, mode, shift):
    """`verify --mode=<mode>`, with --l or --p = shift when it is given, as
    the composition of the public checkers, merged one report at a time."""
    box_primes = primes_up_to(max(F.n_max, F.m_max))
    if mode == "classical":
        return check_classical(F)
    if mode == "symmetric" and shift is not None:
        return check_symmetric(F, shift)
    if mode == "plocal" and shift is not None:
        return check_p_relations(F, shift)
    if mode == "all":
        return verify_all_oracle(F)
    report = check_singular_law(F) if mode == "symmetric" else RelationReport([])
    check = check_symmetric if mode == "symmetric" else check_p_relations
    for p in box_primes:
        report = report.merged_with(check(F, p))
    return report


# (mode, its shift flag): every mode, and symmetric and plocal also at one shift
VERIFY_MODES_AND_SHIFTS = [("classical", None), ("symmetric", None), ("symmetric", "--l=2"),
                           ("plocal", None), ("plocal", "--p=3"), ("all", None)]


def test_verify_all_matches_oracle(tmp_path, capsys):
    import random

    rng = random.Random(41)
    lifts = {
        "trivial": lift(builtin_form("phi10_1", 30), 3),
        "order4-mod5": lift(random_jacobi(9, 5, order4_table_character_mod5(), 24, rng), 4),
        "kronecker-3": lift(random_jacobi(9, 3, DirichletCharacter.kronecker(-3), 24, rng), 2),
    }
    both_labels = 0
    failed = {mode: 0 for mode, _ in VERIFY_MODES_AND_SHIFTS}
    for name, F in lifts.items():
        # single-cell +1 at the shapes (2j, r, 1) and (j, r, 2), and at a
        # singular cell (l, 0, 0) that only the singular law sees
        cells = [(2, 0, 1), (2, 1, 1), (4, 2, 1), (1, 1, 2), (2, 2, 2), (3, -1, 2), (2, 0, 0)]
        for cell in [None, *cells]:
            G = F if cell is None else F.perturbed(*cell)
            path = tmp_path / f"{name}.sksf"
            path.write_text(write_sksf(G))
            for mode, flag in VERIFY_MODES_AND_SHIFTS:
                argv = ["verify", f"--in={path}", f"--mode={mode}", *([flag] if flag else [])]
                code, out, _ = run(argv, capsys)
                shift = int(flag.partition("=")[2]) if flag else None
                oracle = verify_oracle(G, mode, shift)
                assert out == report_to_text(oracle), (name, cell, mode, flag)
                assert code == (0 if oracle.verdict else 1), (name, cell, mode, flag)
                failed[mode] += code
            assert code == (0 if cell is None else 1), (name, cell)  # the all mode
            both_labels += "REL=symmetric" in out and "REL=plocal" in out
    assert both_labels > 0
    assert all(failed.values()), failed


def _shared_and_copies(coeffs):
    """The coefficients twice: every equal value one shared Scalar, and
    every cell holding its own copy."""
    canonical = {}
    shared = {cell: canonical.setdefault((c.order, c.coords), c) for cell, c in coeffs}
    copies = {cell: Scalar(c.order, c.coords) for cell, c in coeffs}
    return shared, copies


@pytest.mark.parametrize("chi", [DirichletCharacter.trivial(1), DirichletCharacter.kronecker(-3),
                                 order4_table_character_mod5()],
                         ids=["trivial", "kronecker-3", "order4-mod5"])
def test_lift_and_verify_do_not_depend_on_value_sharing(tmp_path, capsys, chi):
    # lift and the verifier memoize per distinct value object; one input
    # with its equal values shared or all copied must give the same bytes
    import random

    rng = random.Random(43)
    weight = 9 if chi.modulus > 1 else 10
    factor = Scalar.zeta(4) + 2 if chi.order == 4 else Scalar.one()
    # C(D) in {0, 1, 2} times factor on a 12 x 12 box: equal term lists
    # recur, also with a term absent, under different twists
    base = random_jacobi(weight, chi.modulus, chi, 144, rng)
    coeffs = [(cell, factor * (c.as_rational() % 3)) for cell, c in base.nonzero_items()]
    path = tmp_path / "in.skjf"
    texts = set()
    for form in _shared_and_copies(coeffs):
        phi = JacobiExpansion(weight, 1, chi.modulus, chi, 144, form, cusp=True)
        path.write_text(write_skjf(phi))
        texts.add(write_sksf(lift(phi, 12)))
    code, out, _ = run(["lift", f"--in={path}", "--mmax=12"], capsys)
    texts.add(out)
    assert code == 0 and len(texts) == 1
    F = parse_sksf(out)
    for delta in (0, factor):
        G = F.perturbed(2, 1, 1, delta=delta)
        path = tmp_path / "in.sksf"
        path.write_text(write_sksf(G))
        code, out, _ = run(["verify", f"--in={path}", "--mode=all"], capsys)
        assert code == (1 if delta else 0), (chi, delta)  # the perturbation is seen
        for form in _shared_and_copies(list(G.nonzero_items())):
            H = SiegelExpansion(weight, chi.modulus, chi, G.n_max, G.m_max, form)
            assert report_to_text(verify_all_oracle(H)) == out, (chi, delta)


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.sksf"
    bad.write_text("SKSF 1\nk=10 N=1 chi=trivial nmax=1 mmax=1 cusp=0\n0 0 1 oops\n")
    code, _, err = run(["verify", f"--in={bad}", "--mode=classical"], capsys)
    assert code == 2
    assert "line 3" in err


def _zeta_text(order, power):
    """zeta_order^power written with its order power-basis coordinates."""
    return ",".join("1/1" if j == power else "0/1" for j in range(order))


@pytest.mark.parametrize("rows, code", [
    # the value 1 written with 55 440 coordinates, read modulo Phi_55440
    (["k=10 N=1 chi=trivial nmax=0 mmax=1 cusp=0", "0 0 1 " + _zeta_text(55440, 0)], 0),
    # zeta_997 and zeta_991, which the relations lift to order 988 027
    (["k=10 N=1 chi=trivial nmax=2 mmax=0 cusp=0",
      "1 0 0 " + _zeta_text(997, 1), "2 0 0 " + _zeta_text(991, 1)], 1),
    # a conductor whose factorization trial division would not finish
    (["k=9 N=1000000000000000003 chi=kronecker:-1000000000000000003 nmax=0 mmax=0 cusp=0"], 2),
    # a table: character mod 10 007, checked for multiplicativity
    (["k=9 N=10007 chi=" + legendre_table_spec(10007) + " nmax=0 mmax=0 cusp=0"], 0),
], ids=["one-in-55440-coordinates", "zeta-997-and-zeta-991", "kronecker-past-the-bound",
        "table-mod-10007"])
def test_hostile_value_texts_and_headers_end_in_a_fresh_process(tmp_path, rows, code):
    path = tmp_path / "hostile.sksf"
    path.write_text("\n".join(["SKSF 1", *rows]) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "sklift.cli", "verify", f"--in={path}", "--mode=all"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(sklift.__file__).parents[1])},
    )
    assert done.returncode == code
    if code == 2:
        assert done.stdout == ""
        assert done.stderr == ("error: line 2: factorization is done only below 10^14 "
                               "(trial division): 1000000000000000003\n")
    else:
        assert done.stdout.startswith(f"VERDICT={'FAIL' if code else 'PASS'}\n")


@pytest.mark.parametrize("verb", ["lift", "verify"])
@pytest.mark.parametrize("bad", ["\u0661".encode(), b"\xff"], ids=["arabic-indic-digit", "not-utf8"])
def test_non_ascii_input_bytes_get_a_line_numbered_error(tmp_path, capsys, verb, bad):
    phi = builtin_form("phi10_1", 4)
    text = write_skjf(phi) if verb == "lift" else write_sksf(lift(phi, 2))
    lines = text.encode().splitlines(keepends=True)
    lines[5] = lines[5].rstrip(b"\n") + bad + b"\n"
    path = tmp_path / "in.txt"
    path.write_bytes(b"".join(lines))
    extra = ["--mmax=2"] if verb == "lift" else ["--mode=all"]
    code, out, err = run([verb, f"--in={path}", *extra], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 6: bad rational "), err


def test_hecke_cosets(capsys):
    code, out, _ = run(["hecke", "--sub=cosets", "--level=1", "--l=2"], capsys)
    assert code == 0
    assert out.splitlines() == ["[1 0; 0 2]", "[1 1; 0 2]", "[2 0; 0 1]"]


def test_hecke_mul_degenerate(capsys):
    code, out, _ = run(["hecke", "--sub=mul", "--level=2", "--m=2", "--n=2"], capsys)
    assert code == 0
    assert out.strip() == "T(2) o T(2) = 1*T(1,4)"


def test_hecke_verify_identity(capsys):
    code, out, _ = run(
        ["hecke", "--sub=verify-identity", "--level=1", "--m=2", "--n=2"], capsys
    )
    assert code == 0
    assert out.strip() == "OK: T(2) o T(2) = 1*T(1,4) + 3*T(2,2)"


def test_hecke_missing_params(capsys):
    with pytest.raises(SystemExit):
        main(["hecke", "--sub=mul", "--level=1", "--m=2"])


@pytest.mark.parametrize("argv,flag,wanted", [
    (["--sub=cosets", "--l=2", "--m=5", "--n=7"], "--m", "--sub=mul or verify-identity"),
    (["--sub=cosets", "--l=2", "--n=7"], "--n", "--sub=mul or verify-identity"),
    (["--sub=mul", "--m=2", "--n=3", "--l=9"], "--l", "--sub=cosets"),
    (["--sub=verify-identity", "--m=2", "--n=2", "--l=4"], "--l", "--sub=cosets"),
])
def test_hecke_rejects_flags_of_another_sub(capsys, argv, flag, wanted):
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--level=1", *argv])
    assert exc.value.code == 2
    assert f"hecke {flag} requires {wanted}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--sub=cosets", "--level=0", "--l=2"], "level and determinant must be positive"),
    (["--sub=cosets", "--level=1", "--l=0"], "level and determinant must be positive"),
    (["--sub=mul", "--level=0", "--m=2", "--n=2"], "T(1,2) requires level N >= 1"),
    (["--sub=mul", "--level=1", "--m=0", "--n=2"], "determinant must be positive"),
    (["--sub=verify-identity", "--level=0", "--m=2", "--n=2"], "T(1,2) requires level N >= 1"),
    (["--sub=verify-identity", "--level=1", "--m=0", "--n=2"], "m and n must be positive"),
])
def test_hecke_bad_arguments_exit_2_with_one_error_line(capsys, argv, message):
    assert run(["hecke", *argv], capsys) == (2, "", f"error: {message}\n")


def test_parser_reuse_across_main_calls(tmp_path, capsys):
    skjf = tmp_path / "in.skjf"
    sksf = tmp_path / "lift.sksf"
    run(["gen", "--form=phi10_1", "--nmax=12", f"--out={skjf}"], capsys)
    run(["lift", f"--in={skjf}", "--mmax=3", f"--out={sksf}"], capsys)
    # each report equals a fresh interpreter's; --l from the call before
    # must not leak into the plocal run
    for argv in (["verify", f"--in={sksf}", "--mode=symmetric", "--l=3"],
                 ["verify", f"--in={sksf}", "--mode=plocal"]):
        code, out, _ = run(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "sklift.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(sklift.__file__).parents[1])},
        )
        assert code == fresh.returncode == 0
        assert out == fresh.stdout
        assert parse_report(out).verdict

    assert run(["hecke", "--sub=cosets", "--level=1", "--l=2"], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "--sub=mul", "--level=1", "--m=2"])
    assert exc.value.code == 2
    assert "hecke --sub=mul requires --n" in capsys.readouterr().err

    assert build_parser() is not build_parser()



def _exit(argv, capsys):
    """(exit code, stdout, stderr) of a main call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    # the four checks main makes after argparse
    ["hecke", "--sub=mul", "--level=1", "--m=2"],
    ["hecke", "--sub=cosets", "--level=1", "--l=2", "--m=5"],
    ["verify", "--in=x", "--mode=all", "--l=2"],
    ["verify", "--in=x", "--mode=symmetric", "--p=3"],
    # one argparse error per verb, and a verb not first or not known
    ["gen", "--form=E8", "--nmax=4"],
    ["lift", "--in=x"],
    ["verify", "--in=x", "--mode=bogus"],
    ["hecke", "--sub=mul", "--level=x"],
    ["cohen", "--r=1"],
    ["verify", "--in=x", "--mode=all", "gen"],
    ["--out=x", "gen"],
    ["bogus"],
    [],
    # help
    ["--help"], ["gen", "--help"], ["lift", "-h"], ["verify", "--help"], ["hecke", "--help"],
    ["cohen", "--help"],
])
def test_one_verb_parser_prints_what_the_full_parser_prints(capsys, argv):
    code, out, err = _exit(argv, capsys)
    assert code == (0 if "--help" in argv or "-h" in argv else 2)
    assert (out if code == 0 else err).startswith("usage: sklift")


@pytest.mark.parametrize("argv,flag", [
    (["gen", "--form=E4", "--nmax=2", "--out=--"], "--out"),
    (["lift", "--in=--", "--mmax=1"], "--in"),
])
def test_dashes_as_a_path_are_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    # argparse before Python 3.13 reads --flag=-- as [], and 3.13 as "--"
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit(argv, capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"sklift: error: argument {flag}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


def test_cohen_rejects_negative_nmax(capsys):
    code, out, err = run(["cohen", "--r=1", "--nmax=-5"], capsys)
    assert code == 2
    assert out == ""
    assert "error: n_max must be >= 0" in err


def test_cohen_lines(capsys):
    code, out, _ = run(["cohen", "--r=1", "--nmax=4"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "H 1 0 -1/12",
        "H 1 1 0/1",
        "H 1 2 0/1",
        "H 1 3 1/3",
        "H 1 4 1/2",
    ]


# -- the direct reader of --flag=value command lines, against argparse -------

# verb -> flag -> (kind, required), from the one option table
_FLAGS = {verb: {flag: (kind, required) for flag, _, kind, required, _ in flags}
          for verb, (_, flags) in cli._VERBS.items()}
_KINDS = {flag: kind for flags in _FLAGS.values() for flag, (kind, _) in flags.items()}
# texts int() reads or argparse refuses, none of the form -?[0-9]+
_BAD_INTS = ("+5", " 5", "5 ", "\u0663", "0x1", "1_0", "-", "--5")
_JUNK = ("-h", "--help", "--", "gen", "=3", "-x=1", "--out", "--=1")


def _value(kind):
    """The values the direct reader takes for a flag of ``kind``."""
    if kind is int:
        return st.integers(-30, 300).map(str)
    if kind is str:
        return st.text("ab./-=", min_size=1, max_size=4).filter(lambda v: v != "--")
    return st.sampled_from(kind)


@st.composite
def command_lines(draw):
    """A command line, and whether it has the shape the direct reader takes:
    a verb, then only that verb's flags, each in full and once, each as
    --flag=value with a value of its kind, the required ones all given.
    In a third of the lines one flag is written another way; in another
    third, repeated flags, flags of another verb or stray words join them."""
    verb = draw(st.one_of(st.sampled_from(list(cli._VERBS)),
                          st.sampled_from(("bogus", "-h", "--help", "--out=x", None))))
    own = _FLAGS.get(verb, {})
    pool = sorted(own or _KINDS)
    required = [flag for flag, (_, needed) in own.items() if needed]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    flags = list(dict.fromkeys(required + chosen)) if draw(st.integers(0, 5)) else chosen
    # (words, the flag of a well-formed word or None)
    items = [([f"{flag}={draw(_value(_KINDS[flag]))}"], flag) for flag in flags]
    hostile = draw(st.sampled_from(("no", "rewritten", "joined")))
    if hostile == "rewritten" and flags:
        i = draw(st.integers(0, len(flags) - 1))
        flag, value = flags[i], items[i][0][0].partition("=")[2]
        abbreviations = [flag[:k] for k in range(3, len(flag)) if flag[:k] not in own]
        ways = ["split", "empty", "dashes"]
        if _KINDS[flag] is int:
            ways.append("bad int")
        if abbreviations:
            ways.append("abbreviated")
        way = draw(st.sampled_from(ways))
        if way == "split":
            items[i] = ([flag, value], None)
        elif way == "empty":
            items[i] = ([f"{flag}="], None)
        elif way == "dashes":
            items[i] = ([f"{flag}=--"], None)
        elif way == "bad int":
            items[i] = ([f"{flag}={draw(st.sampled_from(_BAD_INTS))}"], None)
        else:
            items[i] = ([f"{draw(st.sampled_from(abbreviations))}={value}"], None)
    others = sorted(set(_KINDS) - set(own))
    for _ in range(draw(st.integers(1, 2)) if hostile == "joined" else 0):
        way = draw(st.sampled_from(("repeated", "other verb", "junk")))
        if way == "repeated" and flags:
            flag = draw(st.sampled_from(flags))
            items.append(([f"{flag}={draw(_value(_KINDS[flag]))}"], flag))
        elif way == "other verb" and others:
            other = draw(st.sampled_from(others))
            items.append(([f"{other}={draw(_value(_KINDS[other]))}"], None))
        else:
            items.append(([draw(st.sampled_from(_JUNK))], None))
    items = draw(st.permutations(items))
    argv = ([] if verb is None else [verb]) + [word for words, _ in items for word in words]
    named = [flag for _, flag in items]
    well_formed = (verb in _FLAGS and None not in named and len(set(named)) == len(named)
                   and set(required) <= set(named))
    return argv, well_formed


def _check_against_argparse(argv, well_formed):
    """The direct reader takes exactly the well-formed lines, and returns
    for each what argparse returns."""
    got = cli._read_argv(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:  # a usage error or help
        expected = None
    if expected is None:
        assert got is None
    assert got is None or vars(got) == expected
    assert (got is not None) == well_formed


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_direct_reader_returns_what_argparse_returns(line):
    _check_against_argparse(*line)


@pytest.mark.parametrize("argv,well_formed", [
    (["lift", "--in=a", "--mm=3"], False),
    (["hecke", "--sub=cosets", "--le=1", "--l=2"], False),
    (["lift", "--in", "x", "--mmax=3"], False),
    (["gen", "--form=E4", "--nmax=1", "--nmax=2"], False),
    (["gen", "--form=E4", "--nmax=1", "--mmax=2"], False),
    *((["gen", "--form=E4", f"--nmax={bad}"], False) for bad in _BAD_INTS),
    # more digits than int() reads at the default sys.get_int_max_str_digits()
    (["gen", "--form=E4", "--nmax=" + "9" * 5000], False),
    (["gen", "--form=E4", "--nmax=2", "--out="], False),
    (["gen", "--form=E4", "--nmax=2", "--out=--"], False),
    (["gen", "--form=E4", "--nmax=2", "--out=a=b"], True),
    (["lift", "--in=-x", "--mmax=-3"], True),
    (["gen", "--form=E4"], False),
    (["gen", "--form=E4", "--nmax=2", "-h"], False),
    (["gen", "--form=E4", "--nmax=2", "--help"], False),
    (["bogus", "--form=E4", "--nmax=2"], False),
    (["--out=x", "gen", "--form=E4", "--nmax=2"], False),
    ([], False),
])
def test_direct_reader_leaves_every_other_line_to_argparse(argv, well_formed):
    _check_against_argparse(argv, well_formed)
