"""Only ``numtheory`` (the Scalar representation) and ``serialize`` (its
text form) know the power-basis layout of a Scalar; every other module
does its coefficient arithmetic through Scalar's operators."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "sklift"
OWNERS = {"numtheory.py", "serialize.py"}
ATTRIBUTES = {"nums", "den", "coords", "_as_order"}
NAME = "cyclotomic_polynomial"


def _layout_name(node):
    """The layout attribute or name that ``node`` reads, if any."""
    if isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES | {NAME}:
        return node.attr
    if isinstance(node, ast.Name) and node.id == NAME:
        return node.id
    if isinstance(node, ast.alias) and node.name == NAME:
        return node.name
    return None


def test_only_numtheory_and_serialize_read_the_power_basis():
    paths = sorted(SOURCES.glob("*.py"))
    assert OWNERS <= {path.name for path in paths}
    readers = []
    for path in paths:
        if path.name not in OWNERS:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            readers += [(path.name, node.lineno, _layout_name(node))
                        for node in ast.walk(tree) if _layout_name(node)]
    assert readers == []
