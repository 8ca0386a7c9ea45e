"""The package has no runtime dependencies: it imports only the standard
library, and not its slow-to-import parts."""

import ast
import subprocess
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "sklift"


def test_package_imports_only_the_standard_library():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(path.name, module) for module in modules
                        if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_imports_neither_dataclasses_nor_inspect():
    # each CLI process pays for its imports; dataclasses (with inspect) cost
    # about as much as all of sklift.  -S, because some site setups import
    # inspect on their own.
    code = (f"import sys; sys.path.insert(0, {str(SOURCES.parent)!r}); import sklift.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
