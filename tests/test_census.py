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
only tests change is a module constant, which a test can monkeypatch.  A
call through a module that is not hecu's, such as ``subprocess.run``, sets
no parameter of hecu's, and every exemption must exempt a parameter that no
call sets.

Every failure is a DomainError (the input is at fault) or a SolveError (a
solve failed, and its kind says how): src/hecu defines no other exception
class and raises no bare RuntimeError.  A SolveError names its kind as a
literal of model.FAILURE_KINDS, apart from the named functions that pass on
a lane's failure kind, and every such kind is in FAILURE_KINDS too.
"""

import ast
import builtins
from pathlib import Path

from hecu.horseshoe import _LANE_KINDS
from hecu.model import FAILURE_KINDS

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


def _foreign_names(tree: ast.Module) -> set[str]:
    """Names an import binds to a module that is not hecu's, or to a name
    from one: ``np`` of ``import numpy as np``, ``run`` of ``from subprocess
    import run``.  An import relative to the package is hecu's."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] != "hecu"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "hecu":
                names |= {alias.asname or alias.name for alias in node.names}
    return names


def _call_root(func: ast.expr):
    """The name a callee expression starts from: ``subprocess`` of
    ``subprocess.run``, ``f`` of ``f``; None for any other start."""
    while isinstance(func, ast.Attribute):
        func = func.value
    return func.id if isinstance(func, ast.Name) else None


def _call_signatures() -> dict[str, list[tuple[float, set]]]:
    """Callee name -> (positional arguments, keywords) of each call in
    src/hecu and perfbench/.

    A callee is named by an identifier or an attribute; a starred argument
    reaches every position and a ``**`` argument (keyword None) every
    keyword.  A call through a module that is not hecu's (``subprocess.run``)
    or of a name imported from one calls no function of hecu, and is
    skipped."""
    calls = {}
    paths = [*(ROOT / "src" / "hecu").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        tree = _parse(path)
        foreign = _foreign_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _call_root(node.func) in foreign:
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


def test_every_exemption_is_in_use():
    # an exemption whose parameter some call sets, or that names no defaulted
    # parameter, exempts nothing
    stale = set(PARAMETER_EXEMPTIONS) - set(unset_parameters())
    assert not stale, f"exemptions that exempt nothing: {sorted(stale)}"


def _package_trees():
    return [(path, _parse(path)) for path in sorted((ROOT / "src" / "hecu").glob("*.py"))]


def _base_name(node: ast.expr):
    return getattr(node, "id", getattr(node, "attr", None))


def exception_classes() -> set[str]:
    """Names of the classes in src/hecu that derive from an exception: a
    builtin one, a name ending in Error or Exception, or another such class."""
    classes = [node for _, tree in _package_trees() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found = set()

    def is_exception(name):
        builtin = getattr(builtins, name or "", None)
        return (name in found or str(name).endswith(("Error", "Exception"))
                or isinstance(builtin, type) and issubclass(builtin, BaseException))

    while True:
        new = {c.name for c in classes
               if c.name not in found and any(is_exception(_base_name(b)) for b in c.bases)}
        if not new:
            return found
        found |= new


def test_two_exception_classes():
    assert exception_classes() == {"DomainError", "SolveError"}


def test_no_bare_runtime_error():
    # a solve's failure is a SolveError with a kind
    bare = [f"{path.name}:{node.lineno}" for path, tree in _package_trees()
            for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
            and _base_name(getattr(node.exc, "func", node.exc)) == "RuntimeError"]
    assert not bare, f"raise RuntimeError at {bare}"


# Functions whose SolveError takes its kind from a failed lane rather than a
# literal: function -> where the kind comes from.
KIND_FORWARDERS = {
    "_failure": "a passage's lane kind: escape or an integrate.LANE_OUTCOMES name",
    "_taus_at_advance": "the kind of the first failed lane of an edge stencil",
    "_sample_sheet": "the integrate.LANE_OUTCOMES name of the first missing lane",
}


def _solve_error_calls():
    """(file:line, innermost enclosing function, first argument) of each
    SolveError call in src/hecu."""
    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else fn
            if isinstance(child, ast.Call) and _base_name(child.func) == "SolveError":
                yield f"{path.name}:{child.lineno}", inner, (child.args or [None])[0]
            yield from visit(child, path, inner)

    for path, tree in _package_trees():
        yield from visit(tree, path, None)


def test_every_failure_kind_is_in_the_vocabulary():
    literal, forwarded = [], set()
    for where, fn, kind in _solve_error_calls():
        if isinstance(kind, ast.Constant):
            if kind.value not in FAILURE_KINDS:
                literal.append(f"{where} {kind.value!r}")
        elif fn in KIND_FORWARDERS:
            forwarded.add(fn)
        else:
            literal.append(f"{where} in {fn}: not a literal kind")
    assert not literal, "SolveError kinds outside FAILURE_KINDS:\n" + "\n".join(literal)
    # every forwarder forwards, and what it forwards is a failure kind
    assert forwarded == set(KIND_FORWARDERS)
    assert set(_LANE_KINDS.values()) - {""} <= set(FAILURE_KINDS)
