"""Every function the benchmark's tracer wraps exists in its toepnorm module.

``perfbench/tracer.py`` replaces the functions it lists, by name, in the
loaded ``toepnorm`` modules, and refuses a name it cannot find, so a rename
in ``src/`` would break every traced benchmark run.  The tracer module is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
TRACED = [
    (short, name)
    for table in (_TRACER.SPANNED, _TRACER.COUNTED)
    for short, names in table.items()
    for name in names
]


@pytest.mark.parametrize("short, name", TRACED)
def test_traced_function_exists(short, name):
    module = importlib.import_module(f"toepnorm.{short}")
    assert callable(getattr(module, name, None)), f"toepnorm.{short}.{name}"
