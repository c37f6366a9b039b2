"""Public-API integrity checks.

A release-quality library keeps its ``__all__`` lists honest and its
public surface documented.  These tests walk every package and module
under ``repro`` and assert:

* every name in ``__all__`` actually resolves;
* every public module, class and function has a docstring;
* every code name ``docs/paper_mapping.md`` cites for a paper step resolves.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import re
import textwrap

import pytest

import repro
from repro.experiments.registry import EXPERIMENTS


#: ``(name, is_package)`` for ``repro`` and every module below it.
#: ``__main__`` modules are skipped: importing one runs its command line.
MODULES = [("repro", True)] + [
    (info.name, info.ispkg)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
]
PACKAGES = [name for name, is_package in MODULES if is_package]


def _walk_modules():
    """Every module under the repro package."""
    return [importlib.import_module(name) for name, _ in MODULES]


class TestAllLists:
    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_all_names_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert hasattr(pkg, "__all__"), f"{pkg_name} lacks __all__"
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_no_duplicate_exports(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert len(pkg.__all__) == len(set(pkg.__all__))


class TestDocstrings:
    def test_every_module_documented(self):
        for module in _walk_modules():
            assert module.__doc__ and module.__doc__.strip(), (
                f"module {module.__name__} has no docstring"
            )

    def test_every_public_symbol_documented(self):
        undocumented = []
        for module in _walk_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name, None)
                if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public symbols: {undocumented}"

    def test_public_methods_documented(self):
        """Every public method of every exported class has a docstring
        (inherited docstrings — e.g. Modem.modulate overrides — count)."""
        undocumented = []
        for module in _walk_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name, None)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr):
                        doc = inspect.getdoc(getattr(obj, attr_name))
                        if not (doc and doc.strip()):
                            undocumented.append(
                                f"{module.__name__}.{name}.{attr_name}"
                            )
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestVersioning:
    def test_version_matches_pyproject(self):
        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        text = pyproject.read_text()
        assert f'version = "{repro.__version__}"' in text


PAPER_MAPPING = pathlib.Path(repro.__file__).resolve().parents[2] / "docs" / "paper_mapping.md"
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _mapped_names():
    """Dotted names in the mapping's single-backtick spans.

    Double-backtick spans are the paper's formulas and are dropped first.
    A call form (``name(...)``) counts as its name; experiment ids and
    other prose (keyword fragments, tuples) are skipped.
    """
    text = re.sub(r"``.*?``", "", PAPER_MAPPING.read_text())
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        name = span.split("(", 1)[0]
        if _DOTTED.fullmatch(name) and name not in EXPERIMENTS:
            names.append(name)
    return names


def _repro_classes():
    """``{class name: [classes]}`` over every class a repro module defines."""
    classes = {}
    for module in _walk_modules():
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def _assigned_in_init(cls, attr):
    """True if some ``__init__`` in the MRO assigns ``self.<attr>``."""
    for klass in cls.__mro__:
        init = vars(klass).get("__init__")
        if not inspect.isfunction(init):
            continue
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
        except (OSError, TypeError):  # e.g. a dataclass's generated __init__
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == attr
            ):
                return True
    return False


def _has_member(cls, attr):
    """A class attribute, a dataclass field or an attribute __init__ sets."""
    return (
        hasattr(cls, attr)
        or attr in getattr(cls, "__dataclass_fields__", {})
        or _assigned_in_init(cls, attr)
    )


def _resolve_dotted(parts):
    """Import the longest module prefix of ``parts``, then ``getattr`` the
    rest; the last step may be an instance member of a class."""
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for k in range(i, len(parts)):
            if not hasattr(obj, parts[k]):
                last = k == len(parts) - 1
                return last and inspect.isclass(obj) and _has_member(obj, parts[k])
            obj = getattr(obj, parts[k])
        return True
    return False


def _resolves(name, classes):
    """Whether a mapped name exists.

    A name that starts with a package (``repro.…``, ``scipy.…``) resolves
    by import plus ``getattr``.  A short ``Class.attr`` resolves against
    the repro class of that name.  A bare name resolves as a module-level
    name of some repro module or a member of some repro class.
    """
    parts = name.split(".")
    if importlib.util.find_spec(parts[0]) is not None:
        return _resolve_dotted(parts)
    if len(parts) == 2:
        return any(_has_member(cls, parts[1]) for cls in classes.get(parts[0], []))
    every_class = [cls for group in classes.values() for cls in group]
    return len(parts) == 1 and (
        any(hasattr(module, name) for module in _walk_modules())
        or any(_has_member(cls, name) for cls in every_class)
    )


class TestPaperMapping:
    """``docs/paper_mapping.md`` names the code behind each paper step, so
    deleting or renaming one of those names must update the mapping."""

    def test_mapping_names_are_found(self):
        # a parser that silently finds nothing would pass the check below
        names = _mapped_names()
        assert len(names) >= 60
        assert "RelayEnergy.su_total" in names
        assert "repro.core.underlay.UnderlayEnergyResult.peak_pa" in names

    def test_every_mapped_name_resolves(self):
        classes = _repro_classes()
        missing = [name for name in _mapped_names() if not _resolves(name, classes)]
        assert not missing, f"docs/paper_mapping.md names missing code: {missing}"
