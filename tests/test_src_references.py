"""Every module-level function and class of ``fireimpact`` is used by the
package itself: code that only the tests reach is a second API beside the
one the commands run."""

import ast
from collections import Counter
from pathlib import Path

import fireimpact

# Readers of the synthetic scenario's oracle (ground_truth.csv and the KDE
# parameters recorded in it), which only the acceptance and scenario tests
# compare a run against.
TEST_ORACLES = {"scenario.read_ground_truth", "scenario.kde_params_from_meta"}


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


def test_every_module_level_def_is_referenced_in_src():
    root = Path(fireimpact.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    assert "pipeline" in trees
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # A reference inside the definition itself (a recursive call, a
            # classmethod naming its class) does not count.
            outside = everywhere[node.name] - references(node)[node.name]
            if outside <= 0:
                unused.append(f"{module}.{node.name}")
    assert sorted(unused) == sorted(TEST_ORACLES), (
        f"used only outside src/fireimpact: {sorted(set(unused) - TEST_ORACLES)}"
    )
