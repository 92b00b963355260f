"""The package namespace: each module's `__all__` is the one list of its
public names, and `kdeclass` re-exports exactly those names; no module
imports a name it does not use; the private constants the README names
and the identifiers of its module table exist; the README's dependency
floors are the declared ones; the numpy-only paths, the risk path among
them, load no scipy module, and the import and the risk path no thread
pool or csv; scipy, concurrent.futures and csv are imported only inside
the functions that use them."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import kdeclass
from kdeclass import (TRIWEIGHT, Normal, bayes_risk, crossings, kde_mean_var, make_pair,
                      optimal_bandwidths)

ROOT = Path(__file__).resolve().parents[1]

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


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports its modules' names to re-export them
    unused = {}
    for path in sorted((ROOT / "src" / "kdeclass").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert not unused, unused


def test_every_private_constant_the_readme_names_exists():
    # and every identifier in the module table's rows, so a deleted name
    # cannot stay documented: each is the package's own name or an
    # attribute of a module, of an exported class or of numpy.polynomial's
    # power series module, which the kernels row cites
    readme = (ROOT / "README.md").read_text()
    names = set(re.findall(r"`(_[A-Z][A-Z0-9_]*)`", readme))
    rows = re.findall(r"^\| `kdeclass\..*$", readme, re.M)
    listed = {name for row in rows for name in re.findall(r"`([A-Za-z_]\w*)`", row)}
    modules = [importlib.import_module(f"kdeclass.{info.name}")
               for info in pkgutil.iter_modules(kdeclass.__path__)]
    classes = [obj for obj in map(kdeclass.__dict__.get, kdeclass.__all__) if inspect.isclass(obj)]
    owners = [*modules, *classes, np.polynomial.polynomial]
    assert names and rows
    missing = {name for name in names | (listed - {"kdeclass"})
               if not any(hasattr(owner, name) for owner in owners)}
    assert not missing, missing


def test_readme_dependency_floors_match_pyproject():
    # a regular expression, not tomllib, which is Python 3.11+
    pyproject = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = {"Python": python, **dict(re.findall(r'"([\w.-]+)>=([\d.]+)"', deps))}
    line = re.search(r"^Requires (.*)$", (ROOT / "README.md").read_text(), re.M).group(1)
    stated = dict(re.findall(r"`?([\w.-]+)`? ≥ (\d+(?:\.\d+)*)", line))
    assert stated == declared == {"Python": "3.10", "numpy": "2.0", "scipy": "1.13"}


def _theory_values(pair, cs):
    """Theory values as JSON numbers; kde_mean_var is the one of them that
    loads scipy."""
    plan = optimal_bandwidths(pair, cs, n=100)
    return [[pt.y for pt in cs.points], bayes_risk(pair, cs=cs),
            list(kde_mean_var(Normal(0.0, 1.0), TRIWEIGHT, 0.5, 10, 0.3)), [plan.h1, plan.h2]]


#: run in a fresh interpreter, since other test modules import scipy
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
import numpy as np

def unused():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging", "csv"))

import kdeclass
on_import = unused()
rng = np.random.default_rng(0)
x, y = rng.normal(0.0, 1.0, 20), rng.normal(1.0, 1.0, 20)
clf = kdeclass.fit_classifier(x, y, 0.5, 0.5)
kdeclass.decision_segments(clf, -np.inf, np.inf)
kdeclass.classify_ahat(clf, 9.0)
for pid in ("class2b", "class1a"):
    pair = kdeclass.make_pair(pid)
    cs = kdeclass.crossings(pair)
    kdeclass.bayes_risk(pair, cs=cs)
    kdeclass.optimal_bandwidths(pair, cs, n=100)
    pair.pooled_ppf(0.3)
    for rule in ("ahat", "body"):
        kdeclass.empirical_risk(pair, 50, 50, 0.5, 0.5, reps=1, seed=0, rule=rule)
kdeclass.multi_optimal_constants([(pair.f, 0.5), (pair.g, 0.5)],  # class1a
                                 {(0, 1): [pt.y for pt in cs.points]}, r=(1.0, 1.0))
on_risk = unused()
from kdeclass import cli
config = kdeclass.SelectorConfig(boot_iters=4, grid_per_dim=3, quad_points=51)
kdeclass.select_bandwidths(x, y, config=config, seed=0)
kdeclass.run_cv_comparison(n=20, reps=1, seed=0, config=config)
kdeclass.run_study(kdeclass.ExperimentConfig("class1a", n_list=(20, 30), reps=1, selector=config))
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main(["--help"])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.path.insert(0, sys.argv[1])
from test_package import _theory_values
pair = kdeclass.make_pair("class1a")
print(json.dumps({"loaded": loaded, "values": _theory_values(pair, kdeclass.crossings(pair)),
                  "on_import": on_import, "on_risk": on_risk}))
"""


def test_numpy_only_paths_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(ROOT / "tests")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["loaded"] == []
    # nor do the import and the risk path load the selector's and the
    # studies' thread pool (with logging) or csv
    assert out["on_import"] == out["on_risk"] == []
    # kde_mean_var's first call imports scipy there
    pair = make_pair("class1a")
    assert out["values"] == _theory_values(pair, crossings(pair))


def _imports(node, package: str) -> bool:
    """Whether node imports the top-level `package` or a module in it."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
    return any(name.split(".")[0] == package for name in names)


def _import_sites(package: str) -> list[str]:
    """The functions and methods of kdeclass that import `package`, after
    checking that nothing else does (no module-level import)."""
    sites = []
    for path in sorted((ROOT / "src" / "kdeclass").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = [(f"{cls.name}.", cls.body) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)]
        found = [prefix + fn.name for prefix, body in [("", tree.body), *methods]
                 for fn in body if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if _imports(node, package)]
        # none at module level, nor anywhere but a function or method
        assert len(found) == sum(_imports(node, package) for node in ast.walk(tree)), path.name
        sites += found
    return sorted(sites)


def test_scipy_is_imported_in_three_functions_only():
    assert _import_sites("scipy") == ["Normal._ppf", "_segment_mass", "kde_mean_var"]


def test_thread_pool_and_csv_are_imported_where_used_only():
    assert _import_sites("concurrent") == ["error_surface", "run_study"]
    assert _import_sites("csv") == ["_write_csv"]
