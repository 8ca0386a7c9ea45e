"""The names the benchmark harness in perfbench/ reaches into the package by.

The harness wraps the entry points listed in ``perfbench/tracing.py`` and
injects a fault at one line of ``siegel.py``; a refactor that moves either
would break only its own runs, so these checks keep it in the tests.
perfbench/ is read, never written.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced():
    """The TRACED table of perfbench/tracing.py, run from its source (a
    stdlib-only module), so no bytecode is written beside it."""
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_entry_point_resolves():
    traced = _traced()
    assert len(traced) >= 20
    for module_name, attr, _span, _counter in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):  # "Class.method" entries included
            assert hasattr(target, part), (module_name, attr)
            target = getattr(target, part)
        assert callable(target), (module_name, attr)


def test_the_blind_verifier_fault_site_is_present():
    # perfbench/test_perfbench.py replaces this line to make the verifier blind
    text = (ROOT / "src" / "sklift" / "siegel.py").read_text()
    assert "if left != right:" in text
