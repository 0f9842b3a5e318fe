"""The import rules of the package, read from its source with ``ast``.

Modules import each other at the top of the module and without cycles.
The one exception is ``poisson.factorization_identity_check``, whose three
local imports, ``expand_terms``, ``lhs_trivector`` and ``solution_rows``,
mark the oracle's one crossing into graph code; apart from
them, the oracle takes from ``graphs`` only the error type, the graph
types and text helpers: the coefficient writer and reader, the line and
integer readers and the integer and text quotes, and so no arithmetic or
normal form.  The algebra of graph sums, ``ops`` and ``leibniz``, takes
nothing from the package but ``graphs``.  Every name a module imports at its top is used in it, so a
deleted copy leaves no stale import behind.  The same walk over the source
pins where a few helpers are used: ``int``, the oracle's ``diff`` and its
exponent guard, the bi-vector's tables, the normal-form cache and the
canonical search.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tetraflow"

LOCAL_IMPORTS = {("poisson", "factorization_identity_check"):
                 {"leibniz": {"expand_terms"}, "ops": {"lhs_trivector"},
                  "reference": {"solution_rows"}}}
POISSON_FROM_GRAPHS = {"GraphError", "GraphSum", "KontsevichGraph", "brief", "format_coeff",
                       "parse_coeff", "parse_ints", "parse_lines", "quote"}


def package_imports():
    """(module, enclosing function or None, imported module, names) for each
    import of a package module in ``src/tetraflow``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, function or child.name)
                    continue
                if isinstance(child, ast.ImportFrom) and child.level:
                    names = {alias.name for alias in child.names}
                    if child.module:
                        out.append((module, function, child.module, names))
                    else:  # from . import reference
                        out.extend((module, function, name, set()) for name in names)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    targets = ([child.module] if isinstance(child, ast.ImportFrom)
                               else [alias.name for alias in child.names])
                    assert all(t.split(".")[0] != "tetraflow" for t in targets), (module, targets)
                visit(child, function)

        visit(tree, None)
    return out


def test_package_modules_import_at_the_top_except_the_identity_check():
    local = {}
    for module, function, target, names in package_imports():
        if function is not None:
            local.setdefault((module, function), {}).setdefault(target, set()).update(names)
    assert local == LOCAL_IMPORTS


def test_poisson_takes_no_arithmetic_from_graph_code():
    taken = {target: names for module, function, target, names in package_imports()
             if module == "poisson" and function is None}
    assert taken == {"graphs": POISSON_FROM_GRAPHS}


def test_the_graph_algebra_stands_on_graphs_alone():
    """``ops`` and ``leibniz`` take nothing from the package but ``graphs``."""
    taken = {(module, target) for module, _, target, _ in package_imports()
             if module in ("ops", "leibniz")}
    assert taken == {("ops", "graphs"), ("leibniz", "graphs")}


def test_package_imports_have_no_cycle():
    edges = {}
    for module, _, target, _ in package_imports():
        edges.setdefault(module, set()).add(target)
    done, on_path = set(), []

    def walk(module):
        assert module not in on_path, " -> ".join(on_path[on_path.index(module):] + [module])
        if module in done:
            return
        on_path.append(module)
        for target in sorted(edges.get(module, ())):
            walk(target)
        on_path.pop()
        done.add(module)

    for module in sorted(edges):
        walk(module)
    assert {"__init__", "cli", "poisson"} <= done


def test_every_module_level_import_is_used():
    """Each name bound by an import at the top of a module is read in it;
    the re-exports of ``__init__`` and ``from __future__`` are exempt."""
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in tree.body:
            if (isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.stem] = imported - read
    assert unused == {}


def uses(accept, module: str = "*") -> list[tuple[str, str | None]]:
    """(module, scope) for each node of the package source that ``accept``
    takes, in source order; the scope is the outermost enclosing function,
    ``Class.method`` for a method, or None at the top of the module."""
    found = []
    for path in sorted(PACKAGE.glob(f"{module}.py")):

        def visit(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                if not in_function and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                          ast.ClassDef)):
                    name = child.name if scope is None else f"{scope}.{child.name}"
                    visit(child, name, not isinstance(child, ast.ClassDef))
                    continue
                if accept(child):
                    found.append((path.stem, scope))
                visit(child, scope, in_function)

        visit(ast.parse(path.read_text(), str(path)), None, False)
    return found


def test_the_one_int_call_is_in_parse_ints():
    """``int`` alone would also take underscores and other scripts' digits,
    so every integer of the text formats is read by ``graphs.parse_ints``,
    and ``int`` is called nowhere else in the package."""
    calls = uses(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "int")
    assert calls == [("graphs", "parse_ints")]


def test_the_generators_differentiate_only_through_their_table():
    """``gamma1`` and ``gamma2`` read every derivative off
    ``poisson._derivatives``; the contraction's memo, the Schouten bracket's
    per-index memo and the Jacobian structure take their own."""
    calls = uses(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "diff", "poisson")
    assert {scope for _, scope in calls} == {"_derivatives", "eval_graph",
                                             "_add_right_derivative_terms", "jacobian_bracket"}


def test_the_exponent_guard_is_read_by_the_two_product_paths():
    """``poisson._guard_mask`` is read only by the one product loop and by
    the monomial path of ``*``, so no product escapes the exponent guard
    through a loop of its own."""
    reads = uses(lambda node: isinstance(node, ast.Name) and node.id == "_guard_mask"
                 and isinstance(node.ctx, ast.Load), "poisson")
    assert {scope for _, scope in reads} == {"_mul_into", "Polynomial.__mul__"}


def test_the_bivector_tables_are_set_only_where_they_are_made_or_reset():
    """``PolyMultivector``'s derivative memo, nonzero index and factor-row
    table are assigned only in its ``__init__`` and ``add_component``, which
    reset them, and in ``eval_graph``, which makes them, so no other path
    can keep a table that a new component left stale."""
    tables = {"_dcache", "_nonzero", "_rows"}
    stores = uses(lambda node: isinstance(node, ast.Attribute) and node.attr in tables
                  and isinstance(node.ctx, ast.Store))
    assert set(stores) == {("poisson", "PolyMultivector.__init__"),
                           ("poisson", "PolyMultivector.add_component"), ("poisson", "eval_graph")}


def test_the_normal_form_cache_is_named_only_by_normal_form():
    """``graphs._NF_CACHE`` is defined at the top of ``graphs`` and named
    nowhere in the package but ``graphs.normal_form``, so no other path
    reads a form that ``normal_form`` did not store or stores one of its
    own."""
    names = uses(lambda node: isinstance(node, ast.Name) and node.id == "_NF_CACHE"
                 or isinstance(node, ast.Attribute) and node.attr == "_NF_CACHE")
    assert names[0] == ("graphs", None)
    assert set(names[1:]) == {("graphs", "normal_form")}


def test_the_canonical_search_has_one_caller_per_graph_kind():
    """``graphs._least_labelling`` is called by ``graphs._graph_labelling``
    and ``leibniz._leibniz_labelling`` alone, so every canonical form of
    either graph kind is built from its result in one place."""
    calls = uses(lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "_least_labelling"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "_least_labelling"))
    assert calls == [("graphs", "_graph_labelling"), ("leibniz", "_leibniz_labelling")]
