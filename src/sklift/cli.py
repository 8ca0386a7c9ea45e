"""Command-line interface.

Verbs: gen, lift, verify, hecke, cohen.  Flags are long-form only.  Output
goes to standard output unless --out is given.  Exit codes: 0 on success
(and a true verdict for verify / hecke verify-identity), 1 for a false
verdict, 2 for usage or data errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

from .hecke import _identity_sides, coset_representatives, multiply, tl_element
from .jacobi import BUILTIN_FORMS, builtin_form, parse_skjf, write_skjf
from .numtheory import cohen_h, primes_up_to
from .serialize import rational_to_text
from .siegel import (
    RelationReport,
    check_classical,
    check_p_relations,
    check_singular_law,
    check_symmetric,
    is_maass,
    lift,
    parse_sksf,
    report_to_text,
    write_sksf,
)

VERIFY_MODES = ("classical", "symmetric", "plocal", "all")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _read(path: str) -> str:
    # undecodable bytes become U+FFFD, so the parser names their line
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def cmd_gen(args) -> int:
    phi = builtin_form(args.form, args.nmax)
    _emit(write_skjf(phi), args.out)
    return 0


def cmd_lift(args) -> int:
    phi = parse_skjf(_read(args.in_path))
    _emit(write_sksf(lift(phi, args.mmax)), args.out)
    return 0


def cmd_verify(args) -> int:
    F = parse_sksf(_read(args.in_path))
    box_primes = primes_up_to(max(F.n_max, F.m_max))
    report = RelationReport([], 0)
    if args.mode == "classical":
        report = check_classical(F)
    elif args.mode == "symmetric":
        if args.l is not None:
            report = check_symmetric(F, args.l)
        else:
            report = is_maass(F, box_primes)
    elif args.mode == "plocal":
        primes = [args.p] if args.p is not None else box_primes
        for p in primes:
            report = report.merged_with(check_p_relations(F, p))
    else:  # all
        # is_maass at the box primes, then p-local at each of them; p-local
        # at p is the symmetric relation at l = p, so each prime is
        # evaluated once and its report is taken under both labels
        report = check_classical(F).merged_with(check_singular_law(F))
        for p in box_primes:
            symmetric = check_symmetric(F, p)
            plocal = RelationReport(
                [replace(v, relation="plocal") for v in symmetric.violations],
                symmetric.skipped,
            )
            report = report.merged_with(symmetric).merged_with(plocal)
    _emit(report_to_text(report), args.out)
    return 0 if report.verdict else 1


def cmd_hecke(args) -> int:
    if args.sub == "cosets":
        lines = [
            f"[{r.a} {r.b}; 0 {r.d}]"
            for r in sorted(coset_representatives(args.level, args.l))
        ]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.sub == "mul":
        product = multiply(tl_element(args.level, args.m), tl_element(args.level, args.n))
        _emit(f"T({args.m}) o T({args.n}) = {product}\n", args.out)
        return 0
    # verify-identity
    product, right = _identity_sides(args.level, args.m, args.n)
    ok = product == right
    status = "OK" if ok else "FAIL"
    _emit(f"{status}: T({args.m}) o T({args.n}) = {product}\n", args.out)
    return 0 if ok else 1


def cmd_cohen(args) -> int:
    if args.nmax < 0:
        raise ValueError("n_max must be >= 0")
    lines = [
        f"H {args.r} {n} {rational_to_text(cohen_h(args.r, n))}"
        for n in range(args.nmax + 1)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sklift",
        description="Exact Saito-Kurokawa lifts and Maass-relation verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="write a built-in Jacobi form as an SKJF file")
    p.add_argument("--form", required=True, choices=BUILTIN_FORMS)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lift", help="lift an index-1 SKJF file to an SKSF file")
    p.add_argument("--in", required=True, dest="in_path")
    p.add_argument("--mmax", required=True, type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="check Maass relations on an SKSF file")
    p.add_argument("--in", required=True, dest="in_path")
    p.add_argument("--mode", required=True, choices=VERIFY_MODES)
    p.add_argument("--l", type=int, help="single shift for mode=symmetric")
    p.add_argument("--p", type=int, help="single prime for mode=plocal")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hecke", help="coset lists, products and the product identity")
    p.add_argument("--sub", required=True, choices=("cosets", "mul", "verify-identity"))
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--l", type=int, help="determinant for sub=cosets")
    p.add_argument("--m", type=int, help="left factor for sub=mul and verify-identity")
    p.add_argument("--n", type=int, help="right factor for sub=mul and verify-identity")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("cohen", help="print H(r, N) for N = 0..nmax")
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cohen)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and shared by later calls
    in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.verb == "hecke":
        needs = ("l",) if args.sub == "cosets" else ("m", "n")
        for name in needs:
            if getattr(args, name) is None:
                parser.error(f"hecke --sub={args.sub} requires --{name}")
        for name in ("l", "m", "n"):
            if name not in needs and getattr(args, name) is not None:
                wanted = "--sub=cosets" if name == "l" else "--sub=mul or verify-identity"
                parser.error(f"hecke --{name} requires {wanted}")
    if args.verb == "verify":
        for name, mode in (("l", "symmetric"), ("p", "plocal")):
            if getattr(args, name) is not None and args.mode != mode:
                parser.error(f"verify --{name} requires --mode={mode}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
