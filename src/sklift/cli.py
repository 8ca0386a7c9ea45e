"""Command-line interface.

Verbs: gen, lift, verify, hecke, cohen.  Flags are long-form only.  Output
goes to standard output unless --out is given.  Exit codes: 0 on success
(and a true verdict for verify / hecke verify-identity), 1 for a false
verdict, 2 for usage or data errors.

A command line of the verb and ``--flag=value`` words is read directly;
argparse, imported when first needed, reads every other one and prints
help and usage errors.

This is the only module that touches files, the environment or stderr,
among them the H(r, N) cache that only the ``cohen`` verb reads and writes.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .hecke import _identity_sides, coset_representatives, multiply, tl_element
from .jacobi import BUILTIN_FORMS, builtin_form, parse_skjf, write_skjf
from .numtheory import cohen_h, read_int, read_rational
from .serialize import rational_to_text
from .siegel import VERIFY_MODES, check_mode, lift, parse_sksf, report_to_text, write_sksf


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        data = text.encode("ascii")  # before open, so a text it refuses truncates no file
        with open(out_path, "wb") as fh:
            fh.write(data)


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
    report = check_mode(F, args.mode, args.l if args.mode == "symmetric" else args.p)
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


def _read_h_cache(path: str) -> dict[tuple[int, int], Fraction]:
    """The H(r, N) values of the cache file at ``path``, {} if there is none:
    one ``H <r> <N> <num>/<den>`` record per line, read by ``read_int`` and
    ``read_rational`` (den nonzero).  Repeated records must agree; an
    unterminated last record, left by an interrupted writer, is ignored, and
    any other bad record is an error naming its line."""
    values: dict[tuple[int, int], Fraction] = {}
    if not os.path.exists(path):
        return values
    records = _read(path).split("\n")
    # the last piece is empty, or a record cut off before its newline
    for line_no, raw in enumerate(records[:-1], start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 4 and parts[0] == "H":
            r, nval, value = read_int(parts[1]), read_int(parts[2]), read_rational(parts[3])
        else:
            r = nval = value = None
        if r is None or nval is None or value is None or not value[1]:
            raise ValueError(f"{path} line {line_no}: malformed cache record {line!r}")
        key, value = (r, nval), Fraction(*value)
        if values.setdefault(key, value) != value:
            raise ValueError(f"{path} line {line_no}: conflicting cache records for H{key}")
    return values


def _append_h_records(path: str, records: str) -> None:
    """Append newline-terminated ``records``, first cutting off a torn last one."""
    folder = os.path.dirname(path)
    if folder:  # empty for a path in the working directory (SK_CACHE_DIR set empty)
        os.makedirs(folder, exist_ok=True)
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(records.encode("ascii"))


def cmd_cohen(args) -> int:
    """Print H(r, N) for N <= nmax.  The cache ``$SK_CACHE_DIR/cohen_h.txt``
    (default ``.skcache``; set but empty, the working directory) is read
    once; only the values it lacks are computed, and their records are
    appended in one write, or a warning is printed if that fails."""
    if args.nmax < 0:
        raise ValueError("n_max must be >= 0")
    if args.r < 1:
        raise ValueError("cohen_h requires r >= 1")
    path = os.path.join(os.environ.get("SK_CACHE_DIR", ".skcache"), "cohen_h.txt")
    cached = _read_h_cache(path)
    lines, missing = [], []
    for n in range(args.nmax + 1):
        known = (args.r, n) in cached
        value = cached[args.r, n] if known else cohen_h(args.r, n)
        lines.append(f"H {args.r} {n} {rational_to_text(value)}\n")
        if not known:
            missing.append(lines[-1])
    if missing:
        try:
            _append_h_records(path, "".join(missing))
        except OSError as exc:
            print(f"warning: cannot write the H cache {path} ({exc}); "
                  "the values are printed but not cached", file=sys.stderr)
    _emit("".join(lines), args.out)
    return 0


_OUT = ("--out", "out", str, False, None)

# verb -> (its help, its flags), in the order of the usage line; a flag is
# (flag, dest, kind, required, help) with kind int, str or the tuple of its
# choices.  build_parser gives these to argparse and _read_argv checks a
# command line against them, so the two read the same flags.
_VERBS = {
    "gen": ("write a built-in Jacobi form as an SKJF file", (
        ("--form", "form", BUILTIN_FORMS, True, None),
        ("--nmax", "nmax", int, True, None),
        _OUT)),
    "lift": ("lift an index-1 SKJF file to an SKSF file", (
        ("--in", "in_path", str, True, None),
        ("--mmax", "mmax", int, True, None),
        _OUT)),
    "verify": ("check Maass relations on an SKSF file", (
        ("--in", "in_path", str, True, None),
        ("--mode", "mode", VERIFY_MODES, True, None),
        ("--l", "l", int, False, "single shift for mode=symmetric"),
        ("--p", "p", int, False, "single prime for mode=plocal"),
        _OUT)),
    "hecke": ("coset lists, products and the product identity", (
        ("--sub", "sub", ("cosets", "mul", "verify-identity"), True, None),
        ("--level", "level", int, True, None),
        ("--l", "l", int, False, "determinant for sub=cosets"),
        ("--m", "m", int, False, "left factor for sub=mul and verify-identity"),
        ("--n", "n", int, False, "right factor for sub=mul and verify-identity"),
        _OUT)),
    "cohen": ("print H(r, N) for N = 0..nmax", (
        ("--r", "r", int, True, None),
        ("--nmax", "nmax", int, True, None),
        _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb, from the option table: it reads
    the command lines :func:`_read_argv` leaves to it, and prints help and
    usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sklift",
        description="Exact Saito-Kurokawa lifts and Maass-relation verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (verb_help, flags) in _VERBS.items():
        p = sub.add_parser(name, help=verb_help)
        for flag, dest, kind, required, flag_help in flags:
            p.add_argument(flag, dest=dest, required=required, help=flag_help,
                           **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
    return parser


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for a
    command line of the verb followed only by ``--flag=value`` words: each
    flag one of the verb's, written in full and given once, each value
    non-empty and not ``--``, an int value matching -?[0-9]+, a choice one
    of its choices, and every required flag given.  None for any other
    command line: argparse reads those, and names the error in one that is
    wrong."""
    if not argv or argv[0] not in _VERBS:
        return None
    verb = argv[0]
    given = {}
    for word in argv[1:]:
        flag, _, value = word.partition("=")
        if not value or flag in given:
            return None
        given[flag] = value
    args = {"verb": verb}
    for flag, dest, kind, required, _ in _VERBS[verb][1]:
        value = given.pop(flag, None)
        if value is None:
            if required:
                return None
        elif kind is int:
            if (value := read_int(value)) is None:
                return None
        elif kind is str:
            if value == "--":  # argparse before Python 3.13 reads it as []
                return None
        elif value not in kind:
            return None
        args[dest] = value
    if given:  # a flag the verb does not have
        return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        for flag, dest, kind, _, _ in _VERBS[args.verb][1]:
            # argparse before Python 3.13 reads --flag=-- as [], and 3.13 as "--";
            # --flag= is an empty path
            if kind is str and getattr(args, dest) in ([], "--", ""):
                build_parser().error(f"argument {flag}: expected one argument")
    if args.verb == "hecke":
        needs = ("l",) if args.sub == "cosets" else ("m", "n")
        for name in needs:
            if getattr(args, name) is None:
                build_parser().error(f"hecke --sub={args.sub} requires --{name}")
        for name in ("l", "m", "n"):
            if name not in needs and getattr(args, name) is not None:
                wanted = "--sub=cosets" if name == "l" else "--sub=mul or verify-identity"
                build_parser().error(f"hecke --{name} requires {wanted}")
    if args.verb == "verify":
        for name, mode in (("l", "symmetric"), ("p", "plocal")):
            if getattr(args, name) is not None and args.mode != mode:
                build_parser().error(f"verify --{name} requires --mode={mode}")
    try:
        # looked up by name at the call, so that a rebinding of cmd_<verb> is seen
        return globals()[f"cmd_{args.verb}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
