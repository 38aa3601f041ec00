"""The package's runtime dependencies stay numpy and PyYAML.

Every import in ``src/glyrl/*.py``, at module level or inside a function,
must name the standard library, numpy, yaml or glyrl itself, and
``pyproject.toml`` must declare exactly the two third-party packages.
Each kind of outside input has one reader: only ``config.py`` imports yaml
and only ``cohort.py`` imports csv.  The stages sit on top of the library:
only the entry points, ``cli.py`` and ``__init__.py``, import ``pipeline``.
No module imports or reads another module's private (underscored) name.
Only ``mdp.py``, whose ``check_header`` states the artifact-header rule,
reads a ``"format"`` or ``"version"`` key.
Every module-level function and class is named somewhere in the package or
the demos: code that only tests call belongs in the tests.
Every error the package raises has its exit code: each ``GlyrlError``
subclass derives from ``ConfigError``, ``DataError`` or ``NumericalError``,
the classes ``cli.main`` catches, and no module raises a bare
``GlyrlError``.
"""

import ast
import glob
import os
import sys

import pytest

from glyrl import errors

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = {"numpy", "yaml", "glyrl"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in ``path``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def glyrl_modules(path):
    """The glyrl submodule of every import in ``path``, a module of the
    package: ``from . import pipeline``, ``from .pipeline import x`` and
    ``import glyrl.pipeline`` all name ``pipeline``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "glyrl" and len(parts) > 1:
                    yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            # a relative import in the package is relative to glyrl itself
            module = ("glyrl." if node.level else "") + (node.module or "")
            parts = module.rstrip(".").split(".")
            if parts[0] != "glyrl":
                continue
            if len(parts) > 1:
                yield parts[1]
            else:
                yield from (alias.name for alias in node.names)


def test_package_imports_only_stdlib_numpy_and_yaml():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    assert sources
    outside = ["%s:%d imports %s" % (os.path.basename(path), line, module)
               for path in sources
               for line, module in imported_modules(path)
               if module not in sys.stdlib_module_names and module not in ALLOWED]
    assert outside == []


def test_yaml_and_csv_each_have_one_reader():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    importers = {"yaml": set(), "csv": set()}
    for path in sources:
        for _, module in imported_modules(path):
            importers.get(module, set()).add(os.path.basename(path))
    assert importers == {"yaml": {"config.py"}, "csv": {"cohort.py"}}


def test_only_the_entry_points_import_pipeline():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    importers = {os.path.basename(path) for path in sources
                 if "pipeline" in set(glyrl_modules(path))}
    assert importers == {"cli.py", "__init__.py"}


def module_names(tree):
    """The names ``tree`` binds to modules of the package: ``from . import
    pipeline`` binds ``pipeline``, and ``import glyrl.mdp as m`` binds
    ``m``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and not node.module) or node.module == "glyrl"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname for alias in node.names
                         if alias.name.startswith("glyrl.") and alias.asname)
    return names


def test_no_module_imports_a_private_name():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    private = []
    for path in sources:
        tree = parsed(path)
        modules = module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "glyrl"):
                private += ["%s:%d imports %s" % (os.path.basename(path),
                                                  node.lineno, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules and node.attr.startswith("_"):
                private.append("%s:%d reads %s.%s" % (
                    os.path.basename(path), node.lineno, node.value.id,
                    node.attr))
    assert private == []


HEADER_KEYS = {"format", "version"}


def test_only_mdp_reads_the_header_keys():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    reads = []
    for path in sources:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Load):
                key = node.slice
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and node.args:
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and key.value in HEADER_KEYS:
                reads.append("%s:%d reads %r" % (os.path.basename(path),
                                                  node.lineno, key.value))
    assert [read for read in reads if not read.startswith("mdp.py:")] == []
    assert reads  # the checker still sees mdp's own reads


def test_pyproject_declares_only_numpy_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {dep.split(">")[0].split("=")[0].split("<")[0].strip()
             for dep in declared}
    assert names == {"numpy", "PyYAML"}


def parsed(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


# Used without being named: pipeline._run looks up each stage_*
# function by string, and load_ground_truth is the reader of the file that
# ``glyrl synth --truth-out`` writes.
EXEMPT = {"synthgen.load_ground_truth"}


def test_every_module_level_function_and_class_is_named():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert sources and demos
    named = set()
    for path in sources + demos:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    unnamed = []
    for path in sources:
        module = os.path.basename(path)[:-3]
        for node in parsed(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in named
                    and not node.name.startswith("stage_")
                    and "%s.%s" % (module, node.name) not in EXEMPT):
                unnamed.append("%s.%s" % (module, node.name))
    assert unnamed == []


def test_every_error_has_an_exit_code():
    coded = (errors.ConfigError, errors.DataError, errors.NumericalError)
    classes = [value for value in vars(errors).values()
               if isinstance(value, type)
               and issubclass(value, errors.GlyrlError)]
    assert set(coded) < set(classes)
    assert [cls.__name__ for cls in classes
            if cls is not errors.GlyrlError and not issubclass(cls, coded)] \
        == []


def raised_name(node):
    """The name a ``raise`` statement raises: ``X`` in ``raise X``,
    ``raise X(...)`` and ``raise errors.X(...)``; None for a re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


def test_no_module_raises_a_bare_glyrl_error():
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "glyrl", "*.py")))
    raised = [(os.path.basename(path), node.lineno, raised_name(node))
              for path in sources for node in ast.walk(parsed(path))
              if isinstance(node, ast.Raise)]
    assert [r for r in raised if r[2] == "GlyrlError"] == []
    assert any(name == "DataError" for _, _, name in raised)  # it sees raises
