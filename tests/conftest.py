import sys
from functools import cached_property

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` returns a list that grows by one entry on
    each computation of ``owner.name``: of a cached property, each time its
    body runs; of a function, each call through any cpdkit module that binds
    it."""

    def install(owner, name):
        calls = []
        target = vars(owner)[name]
        if isinstance(target, cached_property):
            func = target.func
            monkeypatch.setattr(target, "func", lambda self: calls.append(1) or func(self))
            return calls

        def counted(*args, **kwargs):
            calls.append(1)
            return target(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cpdkit" and getattr(module, name, None) is target:
                monkeypatch.setattr(module, name, counted)
        return calls

    return install
