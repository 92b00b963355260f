"""The package namespace: each module's `__all__` is the one list of its
public names, and `kdeclass` re-exports exactly those names; and the
private constants the README names exist."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kdeclass

#: every module except the command-line entry point, whose `main` is
#: reached through the `kdeclass` script rather than the namespace
MODULES = [importlib.import_module(f"kdeclass.{info.name}")
           for info in pkgutil.iter_modules(kdeclass.__path__) if info.name != "cli"]


def test_every_public_definition_is_in_its_modules_all():
    for module in MODULES:
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert defined <= set(module.__all__), (module.__name__, defined - set(module.__all__))


def test_no_name_is_in_two_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_each_name_as_its_modules_object():
    names = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(kdeclass.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kdeclass, name) is getattr(module, name), name


def test_every_private_constant_the_readme_names_exists():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set(re.findall(r"`(_[A-Z][A-Z0-9_]*)`", readme))
    modules = [importlib.import_module(f"kdeclass.{info.name}")
               for info in pkgutil.iter_modules(kdeclass.__path__)]
    assert names
    missing = {name for name in names if not any(hasattr(m, name) for m in modules)}
    assert not missing, missing
