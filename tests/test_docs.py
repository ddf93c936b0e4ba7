"""Every code name the docs cite exists: the README's `module.name`
references to package modules and the Sphinx roles (:func:, :data:,
:class:, :attr:, :mod:) of the package's docstrings."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import rydramsey

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    info.name: importlib.import_module(f"rydramsey.{info.name}")
    for info in pkgutil.iter_modules(rydramsey.__path__)
}


def resolves(obj, dotted):
    """Whether each part of ``dotted`` is an attribute (or a dataclass
    field) of the object the parts before it name."""
    for part in dotted.split("."):
        if not hasattr(obj, part) and part not in getattr(obj, "__dataclass_fields__", {}):
            return False
        obj = getattr(obj, part, None)
    return True


def resolves_in_package(target, module=None):
    """A reference, with an optional ``~`` and ``rydramsey.`` prefix:
    ``module.name`` in a package module, or else a name in ``module`` or
    in one of the classes that module defines."""
    target = target.lstrip("~").removeprefix("rydramsey.")
    head, _, rest = target.partition(".")
    if head in MODULES:
        return not rest or resolves(MODULES[head], rest)
    if module is None:
        return False
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
    return any(resolves(scope, target) for scope in [module, *classes])


def test_readme_module_references_exist():
    spans = re.findall(r"`((?:rydramsey\.)?(\w+)(?:\.\w+)*)`", (ROOT / "README.md").read_text())
    cited = [span for span, head in spans if head in MODULES or span.startswith("rydramsey.")]
    assert cited
    assert [span for span in cited if not resolves_in_package(span)] == []


def test_docstring_roles_resolve():
    modules = [rydramsey, *MODULES.values()]
    stale, count = [], 0
    for module in modules:
        for target in re.findall(r":(?:func|data|class|attr|mod):`([^`]+)`", Path(module.__file__).read_text()):
            count += 1
            if not resolves_in_package(target, module):
                stale.append(f"{module.__name__}: {target}")
    assert count
    assert stale == []
