"""The benchmark tracer's layer names must resolve in the package.

``perfbench/tracer.py`` patches every ``(module, attribute)`` it lists, so
deleting or renaming one of them in ``src/espd`` breaks ``--trace 1`` runs.
This test loads the tracer from its file and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    names = [entry[:2] for entry in tracer.SPANNED + tracer.COUNTED]
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
