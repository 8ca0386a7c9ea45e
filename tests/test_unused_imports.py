"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "sklift"


def _unused_imports(source: str) -> list[str]:
    """The names the imports of ``source`` bind that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export
    paths = sorted(path for path in SOURCES.glob("*.py") if path.name != "__init__.py")
    assert paths
    unused = [(path.name, name) for path in paths
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_a_leftover_import_is_named():
    source = ("from itertools import compress, repeat\nimport os.path\n"
              "from operator import is_not as _is_not\n__all__ = ['repeat']\nprint(os.sep)\n")
    assert _unused_imports(source) == ["compress", "_is_not"]
