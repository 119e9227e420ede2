"""Guard: every name the benchmark tracer wraps still exists on rssfield.

``perfbench/spans.py`` installs its layer wrappers by (module, attribute)
through ``WRAPPED``; some of those attributes are imports a module keeps only
so the tracer can find them. Deleting one breaks the traced benchmark runs
without failing any library test, so this test resolves every entry. It
loads spans.py from its file and only reads ``WRAPPED``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(mod_name, attr) for mod_name, attr, *_ in module.WRAPPED]


@pytest.mark.parametrize("mod_name, attr", _wrapped())
def test_wrapped_name_resolves(mod_name, attr):
    assert mod_name.split(".")[0] == "rssfield"
    assert callable(getattr(importlib.import_module(mod_name), attr))
