"""Every public name a ``repro`` module exports must exist.

Deleting a definition but not its re-export leaves an ``__all__`` entry
that breaks ``from repro.x import *`` and misleads readers; importing
every module and resolving each name catches that.
"""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 50
    assert missing == []
