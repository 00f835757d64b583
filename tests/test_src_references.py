"""Every module-level function, class and assigned name of ``fireimpact``,
and every method of such a class, is used by the package itself: code that
only the tests reach is a second API beside the one the commands run."""

import ast
from collections import Counter
from pathlib import Path

import fireimpact

# Readers of the synthetic scenario's oracle (ground_truth.csv and the KDE
# parameters recorded in it), which only the acceptance and scenario tests
# compare a run against.
TEST_ORACLES = {"scenario.read_ground_truth", "scenario.kde_params_from_meta"}

# Counters that perfbench/tracer.py reads off results, until the stage
# record of ROADMAP item 1 replaces the tracer.
TRACER_READS = {"dasymetric.DownscaleReport.allocations", "grid.Mask.popcount"}


def references(node: ast.AST) -> Counter:
    """Names, attribute names and imported names (and their aliases) in
    ``node``; a name inside a function that binds it as a parameter is
    that parameter, not a reference."""
    found: Counter = Counter()
    stack = [(node, frozenset())]
    while stack:
        sub, params = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = sub.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            params = params | {arg.arg for arg in args if arg}
        if isinstance(sub, ast.Name) and sub.id not in params:
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
            if sub.asname:
                found[sub.asname] += 1
        stack.extend((child, params) for child in ast.iter_child_nodes(sub))
    return found


def package_trees() -> tuple[dict[str, ast.Module], Counter]:
    """Each module's syntax tree, and the references of the whole package."""
    root = Path(fireimpact.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    assert "pipeline" in trees
    return trees, sum((references(tree) for tree in trees.values()), Counter())


def unreferenced(defs: list, everywhere: Counter) -> list[str]:
    """The names in ``defs`` (each a (qualified name, node) pair) that nothing
    references outside the node itself: a reference inside the definition
    (a recursive call, a classmethod naming its class, the assignment's
    own target) does not count."""
    found = []
    for name, node in defs:
        bare = name.rpartition(".")[2]
        if everywhere[bare] - references(node)[bare] <= 0:
            found.append(name)
    return found


def assigned_names(tree: ast.Module):
    """(name, statement) for each name that a top-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node


def test_every_module_level_def_is_referenced_in_src():
    trees, everywhere = package_trees()
    defs = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    unused = unreferenced(defs, everywhere)
    assert sorted(unused) == sorted(TEST_ORACLES), (
        f"used only outside src/fireimpact: {sorted(set(unused) - TEST_ORACLES)}"
    )


def test_every_method_is_referenced_in_src():
    """Every non-dunder method of a module-level class, by its attribute name."""
    trees, everywhere = package_trees()
    defs = [
        (f"{module}.{cls.name}.{node.name}", node)
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    unused = unreferenced(defs, everywhere)
    assert sorted(unused) == sorted(TRACER_READS), (
        f"used only outside src/fireimpact: {sorted(set(unused) - TRACER_READS)}"
    )


def test_every_module_level_name_is_referenced_in_src():
    """Every non-dunder name assigned at a module's top level, so that no
    constant or alias outlives the code that used it."""
    trees, everywhere = package_trees()
    defs = [
        (f"{module}.{name}", node)
        for module, tree in trees.items()
        for name, node in assigned_names(tree)
        if not (name.startswith("__") and name.endswith("__"))
    ]
    assert "geometry.FEATURE_BATCH" in dict(defs)
    unused = unreferenced(defs, everywhere)
    assert not unused, f"used only outside src/fireimpact: {sorted(unused)}"
