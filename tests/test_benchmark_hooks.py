"""The traced benchmark run swaps wrappers onto module-level names of the
package.  A refactor that drops one of those names would pass every other
test and only break `perfbench/run.py --trace 1`; this test catches it."""

import importlib.util
from pathlib import Path

import leavitt_ibn
import leavitt_ibn.cli  # noqa: F401  (wrapped_names expects lib.cli)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = _load_tracing()
    names = tracing.wrapped_names(leavitt_ibn)
    assert names
    for module, attr, _span, _hook in names:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
