"""Every exported name resolves, and the package exports nothing that its
modules do not.

Each module's ``__all__`` is its public surface; ``hurstbayes`` re-exports a
selection of those names.  A function removed while its name stays in an
``__all__``, or a package name that no module declares, fails here instead
of at a user's ``from hurstbayes.x import *``.
"""
import importlib
import pkgutil
import types

import pytest

import hurstbayes

# the modules that declare a public surface (the CLI and the private
# kernels declare none)
_MODULES = {info.name: importlib.import_module(f"hurstbayes.{info.name}")
            for info in pkgutil.iter_modules(hurstbayes.__path__)}
_MODULES = {name: module for name, module in sorted(_MODULES.items())
            if hasattr(module, "__all__")}


@pytest.mark.parametrize("name", list(_MODULES))
def test_module_all_names_resolve(name):
    module = _MODULES[name]
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_names_come_from_module_all():
    declared = set()
    for module in _MODULES.values():
        declared.update(module.__all__)
    public = [n for n, value in vars(hurstbayes).items()
              if not n.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public
    assert sorted(n for n in public if n not in declared) == []
