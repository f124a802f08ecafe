"""What ``import hkgenus.cli`` loads, and that the names loaded on first use resolve.

Each test runs in a fresh interpreter, since this one has long since imported
everything.  The start-up test diffs ``sys.modules`` around the import, so it
does not depend on what ``site`` loads first.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A command line call must not import these: no command runs the first six,
# and only ``verify`` builds an ``IdentityReport``, the one dataclass, whose
# module loads ``dataclasses`` and with it ``inspect``.
NOT_AT_STARTUP = ("fractions", "decimal", "json", "csv", "hkgenus.series", "hkgenus.sampling",
                  "dataclasses", "inspect", "hkgenus.report")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports hkgenus from ``src``; its stdout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_cli_import_loads_no_module_a_command_does_not_run():
    loaded = set(run_fresh("""
        import sys
        before = set(sys.modules)
        import hkgenus.cli
        print(*sorted(set(sys.modules) - before))
    """).split())
    assert "hkgenus.cli" in loaded
    assert sorted(loaded.intersection(NOT_AT_STARTUP)) == []


def test_public_api_resolves_in_a_fresh_interpreter():
    out = run_fresh("""
        import sys
        import types

        import hkgenus

        assert "hkgenus.sampling" not in sys.modules
        assert hkgenus.sampling is sys.modules["hkgenus.sampling"]
        assert "random_sl2" in vars(hkgenus)  # stored with its module

        namespace = {}
        exec("from hkgenus import *", namespace)
        assert sorted(namespace.keys() - {"__builtins__"}) == sorted(hkgenus.__all__)
        for name in hkgenus.__all__:
            value = namespace[name]
            assert value.__module__.startswith("hkgenus."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert getattr(hkgenus, name) is value, name
        assert isinstance(hkgenus.series, types.ModuleType)
        assert hkgenus.series is sys.modules["hkgenus.series"]
        assert hkgenus.TruncatedSeries is hkgenus.series.TruncatedSeries

        try:
            hkgenus.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'hkgenus' has no attribute 'no_such_name'\n"
