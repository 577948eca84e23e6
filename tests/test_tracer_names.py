"""The benchmark's tracer wraps package attributes by name.

``perfbench/tracing.py`` looks up every ``LOOKUPS`` entry (and
``harness._map_cells``) with ``getattr`` and reads ``cache_info()`` from every
``CACHES`` entry, so a package change that drops one of those names makes
every traced benchmark run fail.  These tests load the tracer by file path
(it imports only the standard library) and check that each pinned name still
resolves.
"""
import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_lookups_resolve():
    tracing = _load_tracing()
    pinned = [(module, attr) for module, attr, _ in tracing.LOOKUPS]
    pinned.append(("hurstbayes.harness", "_map_cells"))
    missing = [(module, attr) for module, attr in pinned
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_tracer_caches_have_cache_info():
    tracing = _load_tracing()
    missing = [label for label, (module, attr) in tracing.CACHES.items()
               if not callable(getattr(getattr(importlib.import_module(module), attr, None),
                                       "cache_info", None))]
    assert not missing


def test_worker_jit_kernel_names_resolve():
    # perfbench/worker.py counts compiled kernels at start-up through
    # _levinson.HAVE_JIT and, under numba, the two kernels' ``signatures``
    from hurstbayes import _levinson
    assert isinstance(_levinson.HAVE_JIT, bool)
    if _levinson.HAVE_JIT:
        assert len(_levinson._durbin_jit.signatures) >= 0
        assert len(_levinson._solve_jit.signatures) >= 0
