"""Layout rules of the package source, checked on its syntax trees.

A module-level private function or class exists for the package's own use:
one that no code in ``src/`` refers to outside its own definition serves
only tests, which should keep such helpers themselves. At run time the
package needs numpy and the standard library alone, one function solves
minimal samples, one function holds the Sampson arithmetic, a ``Matches``
builds its points' residual form and every engine passes it whole, one list of
records holds an engine run's per-batch output, an LM call decomposes a
matrix only to build its first chart, and one function carves the learned
parameter vector into layers.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "caransac"


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as variables or attributes in ``tree``, outside ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_private_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in _private_definitions(tree)
        if not any(node.name in _references(t, skip=node) for t in trees.values())
    ]
    assert not unused, "private definitions no src code uses: " + ", ".join(unused)


def _users(tree: ast.Module, name: str) -> set[str]:
    """The functions in ``tree`` that read ``name`` as a variable or an
    attribute, each by its innermost enclosing definition; a read outside any
    function counts as ``<module>``. Imports are not reads."""
    found: set[str] = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Name) and node.id == name:
            found.add(owner)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _functions(tree: ast.AST, prefix: str = ""):
    """(name, node) of every function in ``tree``, a nested one named under
    its enclosing classes and functions (``Matches.design``)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(node, ast.ClassDef):
                yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def test_only_the_batch_loop_solves_samples():
    # every engine draws and solves its batches through engine._batches, so
    # the estimation loop stays one loop
    users = {
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in _users(ast.parse(path.read_text(), str(path)), "eight_point_batch")
    }
    assert users == {"engine._batches"}, "eight_point_batch used by: " + ", ".join(sorted(users))


def test_one_sampson_formula():
    # Matches.design alone builds the x2 (x) x1 design rows, and sampson_parts'
    # GEMMs are the only Sampson arithmetic: the score kernel, the inlier masks
    # and the LM residuals read them, so scores, masks and LM costs agree
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = {
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name, node in _functions(tree)
        if node.name in {"design", "epipolar_design"}
    }
    assert defined == {"geometry.Matches.design"}, "design rows built in: " + ", ".join(sorted(defined))
    users = {f"{stem}.{owner}" for stem, tree in trees.items() for owner in _users(tree, "sampson_parts")}
    assert users == {
        "scoring.score_matrix_arrays",
        "geometry.sampson_sq_arrays",
        "refinement._sampson_residuals",
    }, "sampson_parts used by: " + ", ".join(sorted(users))


def test_matches_carry_the_residual_form():
    # a Matches builds its homogeneous points and design rows once, on first
    # read, and the engines pass the Matches itself: outside geometry nothing
    # homogenizes or builds design rows, and no function takes a p1h/p2h pair
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    sites = {
        f"{stem}.{owner}"
        for stem, tree in trees.items()
        for name in ("homogenize", "epipolar_design")
        for owner in _users(tree, name)
        if stem != "geometry" or name == "epipolar_design"
    }
    assert sites <= {"geometry.design"}, "residual form built in: " + ", ".join(sorted(sites))
    pairs = {
        f"{stem}.{name}"
        for stem, tree in trees.items()
        if stem != "geometry"
        for name, node in _functions(tree)
        if {"p1h", "p2h"} & {arg.arg for arg in node.args.args + node.args.kwonlyargs}
    }
    assert not pairs, "p1h/p2h taken by: " + ", ".join(sorted(pairs))


def test_refinement_decomposes_only_to_build_a_first_chart():
    # one SVD per LM call: the charts' from-matrix constructors build the
    # first chart, and every step composes the chart's parameters in closed
    # form, so no retract may decompose a matrix or rebuild a chart from one
    tree = ast.parse((SRC / "refinement.py").read_text())
    decomposing = {"proper_svd", "svd", "from_matrix"}
    users = set().union(*(_users(tree, name) for name in ("proper_svd", "svd")))
    assert users <= {"from_matrix"}, "SVD used in refinement by: " + ", ".join(sorted(users))
    retracts = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "retract"
    ]
    assert retracts, "no chart defines retract"
    for node in retracts:
        found = _references(node) & decomposing
        assert not found, f"retract at line {node.lineno} reads {sorted(found)}"


def _owner(node: ast.stmt) -> str:
    """A module-level statement's class or function name, else ``<module>``."""
    return node.name if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else "<module>"


def test_one_view_helper_slices_the_parameter_vector():
    # MlpBundle.params and BundleGrads.vec share one layout; neural's view
    # helper alone slices it, the two classes alone call the helper, and the
    # optimizer works on whole vectors, so no per-layer loop survives outside
    # neural
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    slicing = {
        f"{stem}.{_owner(node)}"
        for stem, tree in trees.items()
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript)
        and getattr(sub.value, "id", getattr(sub.value, "attr", None)) in {"params", "vec"}
    }
    assert slicing == {"neural._layer_views"}, "parameter vector sliced in: " + ", ".join(sorted(slicing))
    readers = {
        f"{stem}.{_owner(node)}"
        for stem, tree in trees.items()
        for node in tree.body
        if "_layer_views" in _references(node)
    }
    assert readers == {"neural.MlpBundle", "neural.BundleGrads"}, "_layer_views read by: " + ", ".join(sorted(readers))
    assert "layers" not in _references(trees["training"]), "training reads network layers"


def test_one_per_batch_record():
    # each batch of every engine leaves one BatchRecord in
    # EstimationResult.batches, so training, the report and a trace read one
    # list rather than parallel ones, and the two engine loops alone build it
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    classes = {
        f"{stem}.{node.name}": node for stem, tree in trees.items() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    assert not any(name.endswith(".ForwardRecord") for name in classes), "a ForwardRecord is defined"
    lists = {
        f"{name}.{item.target.id}": ast.unparse(item.annotation)
        for name, node in classes.items()
        if name.startswith("engine.")
        for item in node.body
        if isinstance(item, ast.AnnAssign) and ast.unparse(item.annotation).startswith("list")
    }
    assert lists == {"engine.EstimationResult.batches": "list[BatchRecord]"}, f"engine list fields: {lists}"
    builders = {
        f"{stem}.{_owner(node)}"
        for stem, tree in trees.items()
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in {"BatchRecord", "EstimationResult"}
    }
    assert builders == {"engine.ca_ransac", "engine._baseline"}, "records built in: " + ", ".join(sorted(builders))


def _imported_roots(tree: ast.Module):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "caransac"}
    foreign = [
        f"{path.name}:{line} {root}"
        for path in sorted(SRC.glob("*.py"))
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert not foreign, "imports outside numpy and the standard library: " + ", ".join(foreign)


def _package_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The package modules ``tree`` imports, by relative or absolute name."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"caransac.{module}" if module else "caransac"
            # "from . import a, b" names modules a and b; "from .a import x" names a
            dotted = [f"{module}.{alias.name}" for alias in node.names] if module == "caransac" else [module]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "caransac" and len(parts) > 1 and parts[1] in modules:
                found.add(parts[1])
    return found


def test_package_import_graph_is_acyclic_and_refinement_is_numerics():
    # refinement holds the charts and the LM numerics; estimation policy
    # (which models to refine, how to rescore them) lives in engine
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    graph = {
        name: _package_imports(ast.parse((SRC / f"{name}.py").read_text()), modules) - {name}
        for name in modules
    }
    assert graph["refinement"] <= {"geometry"}, f"refinement imports {sorted(graph['refinement'])}"
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])
