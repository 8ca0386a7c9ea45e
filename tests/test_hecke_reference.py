"""The benchmark's Hecke outputs, byte for byte: ``hecke --sub=verify-identity``
for every level N and every m, n of the tiny (N <= 2, m, n <= 4) and full
(N <= 8, m, n <= 16) sizes, each run in-process with its stdout compared
against the SHA-256 digest recorded in perfbench/reference.txt."""

import hashlib
from pathlib import Path

import pytest

from sklift.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.txt"
SIZES = {"tiny": (2, 4), "full": (8, 16)}  # max level, max m and n


def _reference(size: str) -> dict[str, str]:
    pairs = (line.split() for line in REFERENCE.read_text(encoding="ascii").splitlines())
    prefix = f"{size}/hecke/"
    return {key[len(prefix):]: digest for key, digest in pairs if key.startswith(prefix)}


@pytest.mark.parametrize("size", SIZES)
def test_hecke_outputs_match_the_benchmark_reference(size, capsys):
    levels, top = SIZES[size]
    reference = _reference(size)
    assert len(reference) == levels * top * top
    for name, digest in reference.items():
        level, m, n = (int(part[1:]) for part in name.split("-"))
        argv = ["hecke", "--sub=verify-identity", f"--level={level}", f"--m={m}", f"--n={n}"]
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest, (name, out)
