"""Graph-builder unit tests on synthetic module trees.

The contract under test: resolution is *best effort* — everything the
resolver can identify produces an edge, and everything it cannot (dynamic
dispatch, unknown modules, missing methods, cyclic re-exports) degrades to
``None`` / no edge, never to a crash or a false match.
"""

import ast

import pytest

from repro.lintkit.graph import (
    CallSite,
    ProjectGraph,
    module_name_for_path,
    summarize_module,
)


def summarize(source, path, is_test=False, root=None):
    return summarize_module(ast.parse(source), path, is_test, root=root)


def build(*modules):
    """modules: (path, source) pairs -> ProjectGraph."""
    return ProjectGraph(summarize(src, path) for path, src in modules)


def call(fn, callee):
    """The first call site of ``fn`` whose callee matches."""
    for site in fn.calls:
        if site.callee == callee:
            return site
    raise AssertionError(f"no call to {callee} in {fn.qualname}: {fn.calls}")


# --------------------------------------------------------------------- #
# Module naming                                                         #
# --------------------------------------------------------------------- #


class TestModuleNames:
    def test_src_rooted(self):
        assert module_name_for_path("src/repro/service/app.py") == "repro.service.app"

    def test_init_names_the_package(self):
        assert module_name_for_path("src/repro/service/__init__.py") == "repro.service"

    def test_explicit_root(self):
        assert module_name_for_path("/tmp/t/pkg/mod.py", root="/tmp/t") == "pkg.mod"

    def test_repro_anchored_without_src(self):
        assert module_name_for_path("repro/energy/ebar.py") == "repro.energy.ebar"


# --------------------------------------------------------------------- #
# Summaries: functions, call sites and their context flags              #
# --------------------------------------------------------------------- #


class TestSummaries:
    def test_methods_and_nested_functions_get_qualnames(self):
        summary = summarize(
            "class C:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            pass\n"
            "        inner()\n",
            "src/pkg/a.py",
        )
        qualnames = {fn.qualname for fn in summary.functions}
        assert qualnames == {"C.m", "C.m.<locals>.inner"}

    def test_awaited_and_stmt_expr_flags(self):
        summary = summarize(
            "async def f():\n"
            "    await g()\n"
            "    h()\n"
            "    x = k()\n",
            "src/pkg/a.py",
        )
        fn = summary.functions[0]
        assert call(fn, "g").awaited and not call(fn, "g").stmt_expr
        assert call(fn, "h").stmt_expr and not call(fn, "h").awaited
        assert not call(fn, "k").stmt_expr

    def test_offloaded_and_deferred_callables_are_recorded(self):
        summary = summarize(
            "async def f(self):\n"
            "    await pool.submit(work.heavy, req)\n"
            "    loop.call_later(0.1, flush)\n"
            "    functools.partial(solve, x)\n",
            "src/pkg/a.py",
        )
        fn = summary.functions[0]
        assert call(fn, "work.heavy").offloaded
        assert call(fn, "flush").deferred
        assert call(fn, "solve").deferred

    def test_first_arg_none_flag(self):
        summary = summarize(
            "def f():\n"
            "    a = as_rng(None)\n"
            "    b = as_rng(7)\n",
            "src/pkg/a.py",
        )
        sites = [s for s in summary.functions[0].calls if s.callee == "as_rng"]
        assert [s.first_arg_none for s in sites] == [True, False]


# --------------------------------------------------------------------- #
# Resolution                                                            #
# --------------------------------------------------------------------- #


class TestResolution:
    def test_bare_call_to_module_function(self):
        graph = build(("src/pkg/a.py", "def f():\n    g()\n\ndef g():\n    pass\n"))
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "g") == ("pkg.a", "g")

    def test_imported_function(self):
        graph = build(
            ("src/pkg/a.py", "from pkg.b import helper\n\ndef f():\n    helper()\n"),
            ("src/pkg/b.py", "def helper():\n    pass\n"),
        )
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "helper") == ("pkg.b", "helper")

    def test_dotted_module_attribute(self):
        graph = build(
            ("src/pkg/a.py", "from pkg import b\n\ndef f():\n    b.helper()\n"),
            ("src/pkg/b.py", "def helper():\n    pass\n"),
        )
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "b.helper") == ("pkg.b", "helper")

    def test_self_method(self):
        graph = build(
            (
                "src/pkg/a.py",
                "class C:\n"
                "    def f(self):\n"
                "        self.g()\n"
                "    def g(self):\n"
                "        pass\n",
            )
        )
        fn = graph.function(("pkg.a", "C.f"))
        assert graph.resolve("pkg.a", fn, "self.g") == ("pkg.a", "C.g")

    def test_self_attr_method_via_constructor_type(self):
        graph = build(
            (
                "src/pkg/a.py",
                "from pkg.b import Pool\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self.pool = Pool()\n"
                "    def f(self):\n"
                "        self.pool.submit()\n",
            ),
            (
                "src/pkg/b.py",
                "class Pool:\n"
                "    def submit(self):\n"
                "        pass\n",
            ),
        )
        fn = graph.function(("pkg.a", "C.f"))
        assert graph.resolve("pkg.a", fn, "self.pool.submit") == ("pkg.b", "Pool.submit")

    def test_class_instantiation_resolves_to_init(self):
        graph = build(
            (
                "src/pkg/a.py",
                "from pkg.b import Table\n\ndef f():\n    Table()\n",
            ),
            (
                "src/pkg/b.py",
                "class Table:\n"
                "    def __init__(self):\n"
                "        pass\n",
            ),
        )
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "Table") == ("pkg.b", "Table.__init__")

    def test_inherited_method_through_base(self):
        graph = build(
            (
                "src/pkg/a.py",
                "class Base:\n"
                "    def g(self):\n"
                "        pass\n"
                "class C(Base):\n"
                "    def f(self):\n"
                "        self.g()\n",
            )
        )
        fn = graph.function(("pkg.a", "C.f"))
        assert graph.resolve("pkg.a", fn, "self.g") == ("pkg.a", "Base.g")

    def test_reexport_chase(self):
        graph = build(
            ("src/pkg/__init__.py", "from pkg.impl import helper\n"),
            ("src/pkg/impl.py", "def helper():\n    pass\n"),
            ("src/app/main.py", "from pkg import helper\n\ndef f():\n    helper()\n"),
        )
        fn = graph.function(("app.main", "f"))
        assert graph.resolve("app.main", fn, "helper") == ("pkg.impl", "helper")

    def test_fully_qualified_path(self):
        graph = build(
            ("src/pkg/a.py", "import pkg.b\n\ndef f():\n    pkg.b.helper()\n"),
            ("src/pkg/b.py", "def helper():\n    pass\n"),
        )
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "pkg.b.helper") == ("pkg.b", "helper")


# --------------------------------------------------------------------- #
# Degradation: misses are silent, cycles terminate                      #
# --------------------------------------------------------------------- #


class TestDegradation:
    @pytest.mark.parametrize(
        "callee",
        [
            "unknown",
            "self.nothing",
            "self.attr.method",
            "os.path.join",
            "a.very.deep.unknown.chain",
        ],
    )
    def test_unresolvable_callees_return_none(self, callee):
        graph = build(
            (
                "src/pkg/a.py",
                "class C:\n"
                "    def f(self):\n"
                "        pass\n",
            )
        )
        fn = graph.function(("pkg.a", "C.f"))
        assert graph.resolve("pkg.a", fn, callee) is None

    def test_import_cycle_terminates(self):
        graph = build(
            ("src/pkg/a.py", "from pkg.b import f\n\ndef g():\n    f()\n"),
            ("src/pkg/b.py", "from pkg.a import g\n\ndef f():\n    g()\n"),
        )
        fn = graph.function(("pkg.a", "g"))
        assert graph.resolve("pkg.a", fn, "f") == ("pkg.b", "f")

    def test_cyclic_reexports_hit_hop_bound_not_recursion(self):
        graph = build(
            ("src/pkg/a.py", "from pkg.b import thing\n\ndef f():\n    thing()\n"),
            ("src/pkg/b.py", "from pkg.a import thing\n"),
        )
        fn = graph.function(("pkg.a", "f"))
        assert graph.resolve("pkg.a", fn, "thing") is None

    def test_base_class_cycle_terminates(self):
        graph = build(
            (
                "src/pkg/a.py",
                "class A(B):\n"
                "    def f(self):\n"
                "        self.missing()\n"
                "class B(A):\n"
                "    pass\n",
            )
        )
        fn = graph.function(("pkg.a", "A.f"))
        assert graph.resolve("pkg.a", fn, "self.missing") is None

    def test_call_graph_cycle_in_reachability(self):
        graph = build(
            (
                "src/pkg/a.py",
                "def f():\n    g()\n\ndef g():\n    f()\n",
            )
        )
        parents = graph.reachable([("pkg.a", "f")])
        assert ("pkg.a", "g") in parents
        assert ProjectGraph.chain(parents, ("pkg.a", "g")) == ["f", "g"]

    def test_syntactically_odd_sources_summarize(self):
        # Lambdas, comprehensions, decorators, walrus: no crash required.
        summary = summarize(
            "import functools\n"
            "@functools.wraps(print)\n"
            "def f(xs):\n"
            "    g = lambda v: v + 1\n"
            "    return [g(x) for x in xs if (y := x)]\n",
            "src/pkg/a.py",
        )
        assert summary.functions[0].name == "f"


# --------------------------------------------------------------------- #
# Edges and reachability honour the context flags                       #
# --------------------------------------------------------------------- #


class TestEdges:
    def test_offloaded_edges_are_opt_in(self):
        graph = build(
            (
                "src/pkg/a.py",
                "async def f(pool):\n"
                "    await pool.submit(heavy, 1)\n"
                "\n"
                "def heavy(x):\n"
                "    pass\n",
            )
        )
        key = ("pkg.a", "f")
        targets = {e.target for e in graph.edges(key)}
        assert ("pkg.a", "heavy") not in targets
        targets = {e.target for e in graph.edges(key, include_offloaded=True)}
        assert ("pkg.a", "heavy") in targets

    def test_callsite_validation_rejects_negative_lines(self):
        with pytest.raises(ValueError):
            CallSite(callee="f", line=-1, col=0)
