"""Source rules: no carnot module uses another's private names, no
``np.einsum`` call takes three or more operands, every parameter with a
default is set by some caller, and every public name has a user outside
the tests."""

import ast
from pathlib import Path

import carnot

PACKAGE = Path(carnot.__file__).parent


def _is_private(name):
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder


def _private_uses(path):
    """Private names imported from carnot, or read off objects not self/cls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = (node.level > 0
                        or (node.module or "").split(".")[0] == "carnot")
            if not internal:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(
                        f"{path.name}:{node.lineno} imports {alias.name} "
                        f"from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
                continue
            found.append(f"{path.name}:{node.lineno} reads "
                         f"{ast.unparse(owner)}.{node.attr}")
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _private_uses(path)]
    assert offenders == []


def _wide_einsums(path):
    """``np.einsum`` calls with three or more operands.

    numpy runs such a call as one generic loop over every index, far
    slower on the solver's small batches than chained two-operand calls
    or matmuls.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and len(node.args) >= 4):
            found.append(f"{path.name}:{node.lineno} "
                         f"{ast.unparse(node)[:60]}")
    return found


def test_no_three_operand_einsum():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 for hit in _wide_einsums(path)]
    assert offenders == []


ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _scan(path):
    """Defaulted parameters and call arguments of one file.

    A defaulted parameter is (callee, name, position, where); a method's
    position counts from the argument after self or cls, and a class's
    ``__init__`` is listed under the class name.  A call argument is
    (callee, key, source): key is a keyword, a position, ``"**"`` or
    ``("*", position)``; source is (function, parameter) when the value
    is a bare name of an enclosing function's parameter, else None.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    defaults, arguments = [], []

    def visit(node, cls, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, scopes)
                continue
            inner, inner_cls = scopes, cls
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if cls and child.name == "__init__" else child.name
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                where = f"{path.name}:{child.lineno} {name}"
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    defaults.append((name, arg.arg, i - skip, where))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        defaults.append((name, arg.arg, None, where))
                params = {arg.arg for arg in positional + a.kwonlyargs}
                inner, inner_cls = [(name, params)] + scopes, None
            elif isinstance(child, ast.Call):
                func = child.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                keyed = [(("*", i) if isinstance(v, ast.Starred) else i, v)
                         for i, v in enumerate(child.args)]
                keyed += [(kw.arg or "**", kw.value) for kw in child.keywords]
                for key, value in keyed:
                    source = next(
                        ((fn, value.id) for fn, params in scopes
                         if isinstance(value, ast.Name)
                         and value.id in params), None)
                    arguments.append((callee, key, source))
            visit(child, inner_cls, inner)

    visit(tree, None, [])
    return defaults, arguments


def _sets(key, param, index):
    if isinstance(key, tuple):
        return index is not None and index >= key[1]
    return key in (param, "**") or (index is not None and key == index)


def test_every_option_has_a_caller():
    """A parameter with a default is set by some call in the project.

    A default that no call overrides is a constant under another name.
    A call that forwards an enclosing function's defaulted parameter
    sets the callee's only when that parameter is set itself.
    """
    defaults = [d for path in sorted(PACKAGE.glob("*.py"))
                for d in _scan(path)[0]]
    arguments = [a for d in CALLER_DIRS
                 for path in sorted((ROOT / d).rglob("*.py"))
                 for a in _scan(path)[1]]
    tracked = {(name, param) for name, param, _, _ in defaults}
    live, grew = set(), True
    while grew:
        known = {(callee, key) for callee, key, source in arguments
                 if source not in tracked or source in live}
        grown = {(name, param) for name, param, index, _ in defaults
                 if any(callee == name and _sets(key, param, index)
                        for callee, key in known)}
        live, grew = grown, grown != live
    offenders = [f"{where}: {param}" for name, param, _, where in defaults
                 if (name, param) not in live]
    assert offenders == []


USER_DIRS = ("src", "demos", "perfbench")


def _public_definitions(path):
    """Public top-level functions and classes, and the classes' methods."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if (not isinstance(node, functions + (ast.ClassDef,))
                or node.name.startswith("_")):
            continue
        yield node.name, f"{path.name}:{node.lineno} {node.name}"
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, functions) and not item.name.startswith("_"):
                yield item.name, (f"{path.name}:{item.lineno} "
                                  f"{node.name}.{item.name}")


def _names_read(path):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_every_public_name_has_a_user():
    """A public function, class, method or property is read by the program.

    The program is ``src``, ``demos`` and ``perfbench``; the package's
    ``__init__`` and import statements do not count, so a name that only
    the tests read fails.  The match is by bare name: a definition counts
    as used when any name or attribute in the program spells it, say
    ``replace`` through ``str.replace``.  The rule can miss an unused
    name, but it never flags one that the program's code spells; only a
    name reached through a string alone, as by ``getattr``, would be.
    """
    used = set()
    for d in USER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                used |= _names_read(path)
    offenders = [where for path in sorted(PACKAGE.glob("*.py"))
                 for name, where in _public_definitions(path)
                 if name not in used]
    assert offenders == []
