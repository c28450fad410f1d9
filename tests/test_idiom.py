"""The package writes every array product as ``ndarray.dot`` and, in the hot
modules, every reduction as an array method.

See README "Cached discretizations", paragraph "Array products": ``@`` and
``np.sum`` / ``np.max`` / ``np.min`` dispatch through slower machinery
than ``a.dot(b)`` and ``a.sum()`` / ``a.max()`` / ``a.min()``, which give the
same bits.
"""

import ast
import pathlib

import confsphere

PACKAGE = pathlib.Path(confsphere.__file__).parent
#: modules on the descent and gauge paths, where a function-form reduction is refused too
HOT = {"functional.py", "extremize.py", "spectral.py", "mobius.py"}
REDUCTIONS = {"sum", "max", "min"}
SEE = 'see README "Cached discretizations", paragraph "Array products"'


def _offences(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "'@' in place of ndarray.dot"))
        elif (
            path.name in HOT
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in REDUCTIONS
        ):
            found.append((node.lineno, f"np.{node.func.attr}(...) in place of the array method"))
    return [f"{path.name}:{line}: {why}" for line, why in sorted(found)]


def test_array_products_go_through_ndarray_dot():
    paths = sorted(PACKAGE.glob("*.py"))
    assert HOT < {path.name for path in paths}
    offences = [line for path in paths for line in _offences(path)]
    assert not offences, "; ".join(offences) + f" ({SEE})"


def test_the_check_sees_each_offence(tmp_path):
    # the scan itself finds '@', '@=' and a function-form reduction, and
    # allows np.maximum and the method forms
    hot = tmp_path / "spectral.py"
    hot.write_text("x = a @ b\nx @= b\ny = np.sum(x)\nz = np.max(x) + np.min(x)\nw = np.maximum(x, 0).max()\n")
    assert [line.split(": ")[0] for line in _offences(hot)] == [
        "spectral.py:1",
        "spectral.py:2",
        "spectral.py:3",
        "spectral.py:4",
        "spectral.py:4",
    ]
    cold = tmp_path / "cli.py"
    cold.write_text(hot.read_text())
    assert len(_offences(cold)) == 2
