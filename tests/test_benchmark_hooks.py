"""The traced benchmark run swaps wrappers onto module-level names of the
package.  A refactor that drops one of those names would pass every other
test and only break `perfbench/run.py --trace 1`; this test catches it."""

import importlib.util
from pathlib import Path

import families
import leavitt_ibn
import leavitt_ibn.cli  # noqa: F401  (wrapped_names expects lib.cli)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
FIXTURES = ROOT / "fixtures"


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


def test_every_hook_runs_on_real_results(capsys):
    # Resolving the names is not enough: each hook also reads fields of the
    # arguments or results it is given (system.matrix.entries, w.sigma,
    # w.d, args[2].steps), so drive every hooked name once.
    tracing = _load_tracing()
    names = tracing.wrapped_names(leavitt_ibn)
    originals = [getattr(module, attr) for module, attr, _span, _hook in names]
    rec = tracing.Recorder()
    with tracing.Installed(rec, leavitt_ibn):
        assert leavitt_ibn.decide_ibn(families.a_path(3)).has_ibn
        assert not leavitt_ibn.decide_ibn(families.ex26()).has_ibn
        for command in ("decide", "classify"):
            assert leavitt_ibn.cli.main([command, str(FIXTURES / "ex26.gtf"), "--json"]) == 0
        assert leavitt_ibn.ibn_refute_search(families.rose(2)) is not None
        # nothing above reaches these two through the swapped names
        leavitt_ibn.ibn_criterion.construct_witness(families.ex26())
        for g in (families.ex26(), families.rose(1)):
            x, y = (leavitt_ibn.uniform_vector(g, k) for k in (2, 1))
            leavitt_ibn.graph_monoid.equal_in_monoid(g, x, y, leavitt_ibn.SearchBudget(50))
    capsys.readouterr()
    assert rec.spans
    assert rec.counts["ibn_criterion.schedule_steps"] > 0
    assert rec.counts["replay.steps"] > 0
    assert rec.counts["exact_linalg.nnz"] > 0
    assert rec.counts["graph_monoid.pairs_found"] == 1
    assert rec.counts["graph_monoid.states_explored"] > 0
    assert [getattr(module, attr) for module, attr, _span, _hook in names] == originals
