"""The command-line surface: verbs, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sklift
from sklift.characters import DirichletCharacter
from sklift.cli import build_parser, main
from sklift.jacobi import JacobiExpansion, builtin_form, parse_skjf, write_skjf
from sklift.numtheory import Scalar, primes_up_to
from sklift.siegel import (
    SiegelExpansion,
    check_classical,
    check_p_relations,
    check_symmetric,
    is_maass,
    lift,
    parse_report,
    parse_sksf,
    report_to_text,
    write_sksf,
)

from synth import order4_table_character_mod5, random_jacobi, siegel_product


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


def test_verify_all_matches_oracle(tmp_path, capsys):
    import random

    rng = random.Random(41)
    lifts = {
        "trivial": lift(builtin_form("phi10_1", 30), 3),
        "order4-mod5": lift(random_jacobi(9, 5, order4_table_character_mod5(), 24, rng), 4),
        "kronecker-3": lift(random_jacobi(9, 3, DirichletCharacter.kronecker(-3), 24, rng), 2),
    }
    both_labels = 0
    for name, F in lifts.items():
        # single-cell +1 at the shapes (2j, r, 1) and (j, r, 2), and at a
        # singular cell (l, 0, 0) that only the singular law sees
        cells = [(2, 0, 1), (2, 1, 1), (4, 2, 1), (1, 1, 2), (2, 2, 2), (3, -1, 2), (2, 0, 0)]
        for cell in [None, *cells]:
            G = F if cell is None else F.perturbed(*cell)
            path = tmp_path / f"{name}.sksf"
            path.write_text(write_sksf(G))
            code, out, _ = run(["verify", f"--in={path}", "--mode=all"], capsys)
            assert out == report_to_text(verify_all_oracle(G)), (name, cell)
            assert code == (0 if cell is None else 1), (name, cell)
            both_labels += "REL=symmetric" in out and "REL=plocal" in out
    assert both_labels > 0


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
