"""The package has no runtime dependencies: it imports only the standard
library, and not its slow-to-import parts."""

import ast
import subprocess
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "sklift"


def _imports():
    """(file name, top-level module) for each absolute import in the package."""
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            yield from ((path.name, module.split(".")[0]) for module in modules)


def test_package_imports_only_the_standard_library():
    assert [(name, module) for name, module in _imports()
            if module not in sys.stdlib_module_names] == []


def test_only_the_cli_imports_os_sys_or_threading():
    # files, the environment and stderr belong to the command line; the
    # arithmetic and the formats below it do no I/O of their own
    assert {name for name, module in _imports()
            if module in ("os", "sys", "threading")} == {"cli.py"}


def _run_bare(code):
    """``code`` run under -S (some site setups import inspect on their own)
    with the package importable."""
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {str(SOURCES.parent)!r}); "
         + code], capture_output=True, text=True)


def test_cli_imports_neither_dataclasses_nor_inspect():
    # each CLI process pays for its imports; dataclasses (with inspect) cost
    # about as much as all of sklift
    proc = _run_bare("import sklift.cli; "
                     "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_well_formed_command_lines_do_without_argparse():
    # argparse, with the gettext and locale it loads, costs each CLI process
    # more than a short command's arithmetic; only help and usage errors need it
    loaded = "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    proc = _run_bare(f"import sklift.cli; {loaded}")
    assert (proc.returncode, proc.stdout) == (0, "[]\n")
    proc = _run_bare("from sklift.cli import main; "
                     f"code = main(['gen', '--form=phi10_1', '--nmax=4']); {loaded}; print(code)")
    assert proc.returncode == 0
    assert proc.stdout.startswith("SKJF 1\n")
    assert proc.stdout.endswith("\n[]\n0\n")
    proc = _run_bare("from sklift.cli import main; main(['gen'])")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "the following arguments are required: --form, --nmax" in proc.stderr


def test_writing_a_file_loads_no_codec(tmp_path):
    # --out is written as bytes, with no text wrapper to import a codec for
    out = tmp_path / "phi.skjf"
    proc = _run_bare("from sklift.cli import main; before = 'encodings.ascii' in sys.modules; "
                     f"code = main(['gen', '--form=phi10_1', '--nmax=4', '--out={out}']); "
                     "print(code, before or 'encodings.ascii' not in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "0 True\n")
    assert out.read_text(encoding="ascii").startswith("SKJF 1\n")
