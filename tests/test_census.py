"""Name and parameter census of the package: src/hecu holds only what src/hecu runs.

Every function, class, method and property defined under src/hecu must be
named in src/hecu outside its own definition and outside every definition
that is itself unnamed, or be named in perfbench/.  A function or class is
named by an identifier; a method or property only by an attribute access
(``obj.name``), so a local variable of the same name does not count.
perfbench/ also names a definition as the string attribute argument of a
call (``tracer.wrap(owner, "attr", ...)`` looks it up as ``getattr`` does).
A definition that only tests reach belongs in tests/ (tests/oracles.py for
the independent oracles).

Every defaulted parameter of a function in src/hecu must be set by some call
in src/hecu or perfbench/, apart from the named exemptions: a value that
only tests change is a module constant, which a test can monkeypatch.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _identifiers(tree: ast.AST):
    """(identifier, line, is_attribute) of every name and attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _perfbench_names() -> tuple[set[str], set[str]]:
    """Identifiers of perfbench/, and those of them that are attributes.

    A string perfbench passes as an `attr` argument counts as an attribute.
    """
    trees = [_parse(path) for path in (ROOT / "perfbench").rglob("*.py")]
    # position of the `attr` parameter of getattr and of perfbench's own lookups
    attr_at = {"getattr": 1, "setattr": 1, "hasattr": 1}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.args if a.arg != "self"]
                if "attr" in params:
                    attr_at[node.name] = params.index("attr")
    names, attrs = set(), set()
    for tree in trees:
        for name, _, is_attr in _identifiers(tree):
            names.add(name)
            if is_attr:
                attrs.add(name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            i = attr_at.get(callee)
            if i is not None and i < len(node.args) and isinstance(node.args[i], ast.Constant):
                names.add(node.args[i].value)
                attrs.add(node.args[i].value)
    return names, attrs


def unnamed_definitions() -> list[str]:
    """'file:line name' of each definition that nothing outside tests names."""
    perfbench_names, perfbench_attrs = _perfbench_names()
    defs, uses, attr_uses, methods = [], {}, {}, set()
    for path in sorted((ROOT / "src" / "hecu").glob("*.py")):
        tree = _parse(path)
        for name, line, is_attr in _identifiers(tree):
            uses.setdefault(name, []).append((path, line))
            if is_attr:
                attr_uses.setdefault(name, []).append((path, line))
        methods.update(node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                       for node in cls.body)
        defs += [(path, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in (perfbench_attrs if node in methods else perfbench_names)]

    def inside(use, path, node):
        return use[0] == path and node.lineno <= use[1] <= node.end_lineno

    # a definition named only inside unnamed definitions is unnamed too
    dead = []
    while True:
        new = [(path, node) for path, node in defs if (path, node) not in dead
               and not any(not inside(u, path, node)
                           and not any(inside(u, *d) for d in dead)
                           for u in (attr_uses if node in methods else uses).get(node.name, ()))]
        if not new:
            break
        dead += new
    return sorted(f"{path.name}:{node.lineno} {node.name}" for path, node in dead)


def test_every_definition_has_a_caller():
    unnamed = unnamed_definitions()
    assert not unnamed, "defined in src/hecu but named only by tests:\n" + "\n".join(unnamed)


# Defaulted parameters that no call in src/hecu or perfbench/ sets, each kept
# for a reason of its own: (function, parameter) -> reason.
PARAMETER_EXEMPTIONS = {
    ("run", "argv"): "the CLI's test seam: tests run the CLI on an argument list",
    ("extract_fk", "depths"): "depth sets the fit did not use, to check f1's error bar",
    ("transport", "tail"): "fourier.transport stays for perfbench/, which wraps it by name",
}


def _call_signatures() -> dict[str, list[tuple[float, set]]]:
    """Callee name -> (positional arguments, keywords) of each call in
    src/hecu and perfbench/.

    A callee is named by an identifier or an attribute; a starred argument
    reaches every position and a ``**`` argument (keyword None) every
    keyword."""
    calls = {}
    paths = [*(ROOT / "src" / "hecu").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(callee, []).append(
                (float("inf") if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def unset_parameters() -> dict[tuple[str, str], str]:
    """(function, parameter) -> 'file:line function(parameter)' of each
    defaulted parameter that no call sets.

    A call of a class counts for its __init__.  A method's positions are
    counted without self or cls, as at a call through an attribute."""
    calls = _call_signatures()
    unset = {}
    for path in sorted((ROOT / "src" / "hecu").glob("*.py")):
        tree = _parse(path)
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            callee = owner[fn].name if fn.name == "__init__" else fn.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            bound = 1 if fn in owner and not static else 0
            defaulted = [(i - bound, a) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(float("inf"), a) for a, d in zip(fn.args.kwonlyargs,
                                                             fn.args.kw_defaults) if d is not None]
            for pos, arg in defaulted:
                if not any(n > pos or arg.arg in kws or None in kws
                           for n, kws in calls.get(callee, ())):
                    unset[fn.name, arg.arg] = f"{path.name}:{fn.lineno} {fn.name}({arg.arg})"
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = unset_parameters()
    constants = [where for key, where in unset.items() if key not in PARAMETER_EXEMPTIONS]
    assert not constants, ("a default that no caller in src/hecu or perfbench/ changes is a "
                           "constant:\n" + "\n".join(constants))
