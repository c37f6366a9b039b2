"""Public-API integrity checks.

A release-quality library keeps its ``__all__`` lists honest and its
public surface documented.  These tests walk every package and module
under ``repro`` and assert:

* every name in ``__all__`` actually resolves;
* every public module, class and function has a docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


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
        import pathlib

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        text = pyproject.read_text()
        assert f'version = "{repro.__version__}"' in text
