"""Name census of the package: src/hecu holds only what src/hecu runs.

Every function, class, method and property defined under src/hecu must be
named in src/hecu outside its own definition and outside every definition
that is itself unnamed, or be named in perfbench/.  perfbench/ names a
definition as an identifier, or as the string attribute argument of a call
(``tracer.wrap(owner, "attr", ...)`` looks it up as ``getattr`` does).
A definition that only tests reach belongs in tests/ (tests/oracles.py for
the independent oracles).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _identifiers(tree: ast.AST):
    """(identifier, line) of every name and attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _perfbench_names() -> set[str]:
    """Identifiers of perfbench/, and the strings it passes as an `attr` argument."""
    trees = [_parse(path) for path in (ROOT / "perfbench").rglob("*.py")]
    # position of the `attr` parameter of getattr and of perfbench's own lookups
    attr_at = {"getattr": 1, "setattr": 1, "hasattr": 1}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.args if a.arg != "self"]
                if "attr" in params:
                    attr_at[node.name] = params.index("attr")
    names = set()
    for tree in trees:
        names.update(name for name, _ in _identifiers(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            i = attr_at.get(callee)
            if i is not None and i < len(node.args) and isinstance(node.args[i], ast.Constant):
                names.add(node.args[i].value)
    return names


def unnamed_definitions() -> list[str]:
    """'file:line name' of each definition that nothing outside tests names."""
    perfbench = _perfbench_names()
    defs, uses = [], {}
    for path in sorted((ROOT / "src" / "hecu").glob("*.py")):
        tree = _parse(path)
        for name, line in _identifiers(tree):
            uses.setdefault(name, []).append((path, line))
        defs += [(path, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in perfbench]

    def inside(use, path, node):
        return use[0] == path and node.lineno <= use[1] <= node.end_lineno

    # a definition named only inside unnamed definitions is unnamed too
    dead = []
    while True:
        new = [(path, node) for path, node in defs if (path, node) not in dead
               and not any(not inside(u, path, node)
                           and not any(inside(u, *d) for d in dead)
                           for u in uses.get(node.name, ()))]
        if not new:
            break
        dead += new
    return sorted(f"{path.name}:{node.lineno} {node.name}" for path, node in dead)


def test_every_definition_has_a_caller():
    unnamed = unnamed_definitions()
    assert not unnamed, "defined in src/hecu but named only by tests:\n" + "\n".join(unnamed)
