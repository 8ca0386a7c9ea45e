"""The benchmark's pipeline outputs, byte for byte: gen -> lift -> verify
--mode=all for phi10_1 and phi12_1 and the Cohen H tables, at the tiny
(24/4) and full (120/10) sizes, against the SHA-256 digests recorded in
perfbench/reference.txt.  The outputs go to a temporary directory."""

import hashlib
from pathlib import Path

import pytest

from sklift.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.txt"
SIZES = {"tiny": (24, 4), "full": (120, 10)}  # input nmax, lift mmax


def _reference() -> dict[str, str]:
    pairs = (line.split() for line in REFERENCE.read_text(encoding="ascii").splitlines())
    return {key: digest for key, digest in pairs}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("size", SIZES)
def test_pipeline_outputs_match_the_benchmark_reference(size, tmp_path, capsys):
    nmax, mmax = SIZES[size]
    reference = _reference()
    outputs = {}
    for form in ("phi10_1", "phi12_1"):
        base = tmp_path / form
        steps = (
            ("skjf", ["gen", f"--form={form}", f"--nmax={nmax}"]),
            ("sksf", ["lift", f"--in={base}.skjf", f"--mmax={mmax}"]),
            ("report", ["verify", f"--in={base}.sksf", "--mode=all"]),
        )
        for ext, argv in steps:
            out = tmp_path / f"{form}.{ext}"
            assert main(argv + [f"--out={out}"]) == 0, (form, ext, capsys.readouterr().err)
            outputs[f"{form}.{ext}"] = out
    for r in (3, 5):
        out = tmp_path / f"cohen-r{r}"
        assert main(["cohen", f"--r={r}", f"--nmax={4 * nmax}", f"--out={out}"]) == 0
        outputs[f"cohen-r{r}"] = out
    assert len(outputs) == 8
    for name, path in outputs.items():
        assert _digest(path) == reference[f"{size}/pipeline/{name}"], name
