"""Source hygiene of the package, checked with the stdlib `ast` module: no
module imports a name it never uses, every SolverConfig field is read
somewhere, every function that takes a `config` parameter uses it, and every
top-level function and class is named somewhere in the package, so dead
imports, dead knobs, unread arguments and dead definitions cannot come back
unnoticed. The reference oracle reaches none of the engines' enumerations,
so it stays an independent second computation, and neither solve path
reaches the bisection and reconstruction search. The LP kernel reads no row
relation, and the references of tests/support.py that use no LP reach
nothing of the package."""
import ast
import inspect
import os

import pytest

import support

PACKAGE = os.path.join(support.ROOT, "src", "bilevel_exact")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _tree(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _imported_names(tree):
    """Names bound by the module's imports (`from __future__` excluded)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_imports(name):
    tree = _tree(name)
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


def test_every_config_field_is_read():
    cls = next(n for n in ast.walk(_tree("config.py"))
               if isinstance(n, ast.ClassDef) and n.name == "SolverConfig")
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    read = set()
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value
                base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                if base_name == "config":
                    read.add(node.attr)
    assert sorted(fields - read) == []


def _functions_ignoring_config(tree):
    """Names of the functions with a `config` parameter whose body never
    mentions `config`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.arg == "config" for a in params):
                body = ast.Module(body=node.body, type_ignores=[])
                if "config" not in _used_names(body):
                    out.append(node.name)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_config_parameter_is_used(name):
    assert _functions_ignoring_config(_tree(name)) == []


def _referenced_names(tree):
    """Names the module mentions: as a Name, as an attribute, or imported
    by a `from` import (a re-export in __init__ counts)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_top_level_definition_is_named():
    trees = {name: _tree(name) for name in MODULES}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    dead = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in referenced]
    assert dead == []


# The engines' own enumerations: the floor walk, the cell index and its
# scan, the pure response table and the integer walk.
ENUMERATIONS = {"valid_cells", "cell_index", "CellIndex", "DecisionScan", "pure_responses",
                "integer_candidates", "enumerate_integers"}


def _definitions():
    """(module, name) -> top-level function or class node, and per module
    the package definitions its names resolve to: its own and those it
    imports with a relative `from` import."""
    defs, scopes = {}, {}
    for name in MODULES:
        module = name[:-3]
        tree = _tree(name)
        scope = scopes.setdefault(module, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                scope[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (node.module, alias.name)
    return defs, scopes


def _reached_from(module, name):
    """Names of the package definitions that (module, name) names,
    transitively; a class counts with its whole body."""
    defs, scopes = _definitions()
    seen, todo = set(), [(module, name)]
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        loaded = {n.id for n in ast.walk(defs[key])
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for ref in loaded:
            if ref in scopes[key[0]]:
                todo.append(scopes[key[0]][ref])
    return {n for _, n in seen}


def test_reference_oracle_reaches_no_engine_enumeration():
    reached = _reached_from("engine", "reference_oracle")
    assert {"is_valid_cell", "cell_infimum", "integer_min"} <= reached
    assert sorted(reached & ENUMERATIONS) == []


# The search layer of a decomposition known only through its decision
# oracle: both solve paths read v* off their tables instead.
SEARCH = {"bisect_decision", "rational_reconstruct", "_simplest_in_interval",
          "objective_bounds", "decide_le", "_integer_bisect"}


@pytest.mark.parametrize("driver", ["solve_mixed", "solve_pure"])
def test_solve_paths_reach_no_search(driver):
    reached = _reached_from("engine", driver)
    assert sorted(reached & SEARCH) == []
    if driver == "solve_mixed":
        assert "denominator_cap" in reached


# The objective-taking LP and integer routines, and the families and
# searches that take an integer cost, take integer data as it is: a QVector
# built inside such a call would turn its ints into Fractions for lp_solve
# to scale back.
OBJECTIVE_TAKERS = {"lp_solve", "lp_range", "integer_min", "RhsFamily", "IntegerSearch",
                    "LexMin"}


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_qvector_built_in_an_objective_call():
    calls = wrapped = 0
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Call) and _called_name(node) in OBJECTIVE_TAKERS:
                calls += 1
                args = node.args + [k.value for k in node.keywords]
                wrapped += sum(1 for arg in args for sub in ast.walk(arg)
                               if isinstance(sub, ast.Call) and _called_name(sub) == "QVector")
    assert calls >= 20 and wrapped == 0


# The LP kernel reads "<=" rows alone: each RhsFamily splits its "=" rows
# into their two sides once, at construction, so no kernel function reads
# a relation.
KERNEL = ("_dual_simplex_min", "_exchange", "_kernel_form", "_interval_solve",
          "_purify_to_vertex")


def test_lp_kernel_reads_no_relation():
    defs = {node.name: node for node in _tree("linear.py").body
            if isinstance(node, ast.FunctionDef)}
    read = {name: sorted({n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
                         & {"LE", "EQ", "LT"}) for name in KERNEL}
    assert read == {name: [] for name in KERNEL}


# The references of tests/support.py that use no LP share no code with the
# engine: from their definitions on, no name they read, transitively through
# support's own definitions, is a function, class or module of the package,
# and of an instance they read the data fields alone.
LP_FREE = ("ref_mixed_no_lp", "ref_pure_no_lp")
DATA_FIELDS = {"n", "d", "A", "B", "C", "D", "c", "e", "psi", "u", "p"}


def test_lp_free_reference_reaches_none_of_the_package():
    with open(os.path.join(support.ROOT, "tests", "support.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo, loaded, fields = set(), list(LP_FREE), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            assert not isinstance(node, (ast.Import, ast.ImportFrom)), name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
                todo += [node.id] if node.id in defs else []
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "inst":
                fields.add(node.attr)
    assert {"_closure_vertices", "ref_strictly_feasible", "row_holds"} <= seen

    def of_package(value):
        if inspect.ismodule(value):
            return value.__name__.startswith("bilevel_exact")
        return callable(value) and (getattr(value, "__module__", None) or "").startswith(
            "bilevel_exact")

    assert sorted(name for name in loaded if of_package(vars(support).get(name))) == []
    assert {"A", "B", "psi"} <= fields <= DATA_FIELDS
