"""Source rules: no carnot module uses another's private names, and no
``np.einsum`` call takes three or more operands."""

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
