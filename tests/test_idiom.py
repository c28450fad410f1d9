"""The package writes every array product as ``ndarray.dot`` and, in the hot
modules, every reduction as an array method; no module of the package or of
the tests imports a name it never uses; the positivity gate has one home;
only spectral's representation section picks between the circle and the
zonal representation.

See README "Cached discretizations", paragraph "Array products": ``@`` and
``np.sum`` / ``np.max`` / ``np.min`` dispatch through slower machinery
than ``a.dot(b)`` and ``a.sum()`` / ``a.max()`` / ``a.min()``, which give the
same bits.
"""

import ast
import pathlib
import re

import confsphere

PACKAGE = pathlib.Path(confsphere.__file__).parent
TESTS = pathlib.Path(__file__).parent
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


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never references; a name in its ``__all__`` is a re-export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{path.name}:{line}: {name}" for line, name in unused]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [line for path in paths for line in _unused_imports(path)]
    assert not unused, "unused imports: " + "; ".join(unused)


def test_the_unused_import_check_sees_each_offence(tmp_path):
    # an aliased module and from-imported names that nothing references are
    # reported; a use anywhere (also through a dotted import or in an
    # annotation), a name listed in __all__ and a __future__ import are not
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Tuple\n"
        "from .errors import Kept, Dropped\n"
        "__all__ = ['Kept']\n"
        "def f(x: Optional[int]):\n"
        "    return os.sep\n"
    )
    assert _unused_imports(module) == ["mod.py:4: np", "mod.py:5: Tuple", "mod.py:6: Dropped"]


class _GateScan(ast.NodeVisitor):
    """The scopes of one module that construct or raise NonPositiveFunction, and whether it assigns POSITIVITY_FLOOR."""

    def __init__(self, module: str):
        self.scope = [module]
        self.raisers = set()
        self.assigns_floor = False

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _exception(self, node):
        if (getattr(node, "id", None) or getattr(node, "attr", None)) == "NonPositiveFunction":
            self.raisers.add(".".join(self.scope))

    def visit_Call(self, node):
        self._exception(node.func)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None:
            self._exception(node.exc)
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "POSITIVITY_FLOOR" and isinstance(node.ctx, ast.Store):
            self.assigns_floor = True


def _gate_homes(paths) -> tuple:
    """(sorted scopes that construct NonPositiveFunction, sorted modules that assign POSITIVITY_FLOOR)."""
    raisers, floors = set(), set()
    for path in paths:
        scan = _GateScan(path.stem)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        raisers |= scan.raisers
        if scan.assigns_floor:
            floors.add(path.stem)
    return sorted(raisers), sorted(floors)


def test_the_positivity_gate_has_one_home():
    # one function decides positivity and raises its error, and the floor it
    # decides against is set in one module, so no second gate can drift from it
    raisers, floors = _gate_homes(sorted(PACKAGE.glob("*.py")))
    assert len(raisers) == 1, f"NonPositiveFunction is constructed in {raisers}"
    assert len(floors) == 1, f"POSITIVITY_FLOOR is assigned in {floors}"


def test_the_gate_check_sees_each_offence(tmp_path):
    # a construction and a bare raise are found in each function, method or
    # module body, and an assignment of the floor in any form; an import of
    # either name is neither
    one = tmp_path / "one.py"
    one.write_text(
        "from .errors import NonPositiveFunction\n"
        "from .spectral import POSITIVITY_FLOOR\n"
        "class Grid:\n"
        "    def gate(self):\n"
        "        raise NonPositiveFunction('no')\n"
        "def check():\n"
        "    def inner():\n"
        "        raise errors.NonPositiveFunction\n"
        "    return inner\n"
        "POSITIVITY_FLOOR: float = 1e-6\n"
    )
    other = tmp_path / "other.py"
    other.write_text("POSITIVITY_FLOOR, x = 1e-6, 0\nexc = NonPositiveFunction('x')\n")
    assert _gate_homes([one]) == (["one.Grid.gate", "one.check.inner"], ["one"])
    assert _gate_homes([one, other]) == (["one.Grid.gate", "one.check.inner", "other"], ["one", "other"])


#: a test of n, or of a zonal flag, that picks between the circle and the zonal representation
SEAM = re.compile(r"\bn (==|!=) 1\b|\bzonal\b (if|else)|if (not )?zonal\b|zonal = |poles is None")
#: the functions that keep one such line, outside the representation section:
#: three refusals of a circle-only computation and the choice of the Green series
SEAM_KEPT = (
    "flatcheck.conjugation_check",
    "flatcheck.flat_energy_identity",
    "functional.s1_energy_from_derivatives",
    "gjms.green_series_values",
)
RULE = "# " + "-" * 75


def _seam_lines(path: pathlib.Path) -> list:
    """(module.function, line) of each line matching :data:`SEAM` outside spectral's "representations" section.

    A section runs from its title, a comment between two rules, to the next
    rule that opens a section.
    """
    text = path.read_text()
    lines = text.splitlines()
    section = range(0)
    if path.stem == "spectral" and "# representations" in lines:
        start = lines.index("# representations")
        opens = [i for i in range(start + 2, len(lines) - 1) if lines[i] == RULE and lines[i + 1].startswith("# ")]
        section = range(start, opens[0] if opens else len(lines))
    scope = {}
    for node in ast.walk(ast.parse(text, filename=str(path))):  # outer scopes first, so the innermost wins
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.update((i, node.name) for i in range(node.lineno - 1, node.end_lineno))
    return [
        (f"{path.stem}.{scope.get(i, '<module>')}", f"{path.name}:{i + 1}: {line.strip()}")
        for i, line in enumerate(lines)
        if SEAM.search(line) and i not in section
    ]


def test_one_seam_picks_the_representation():
    # outside spectral's representation section, which holds what differs
    # between the circle and the zonal representation, no module tests n or a
    # zonal flag to choose between them; the kept lines are not such a choice
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _seam_lines(path)]
    assert sorted(where for where, _ in found) == sorted(SEAM_KEPT), "; ".join(line for _, line in found)


def test_the_seam_check_sees_each_offence(tmp_path):
    # a match in spectral's representation section is allowed, up to the rule
    # of the next section; elsewhere each match is reported with its function,
    # in code, docstrings and comments alike
    spectral = tmp_path / "spectral.py"
    spectral.write_text(
        f"{RULE}\n# representations\n{RULE}\n"
        "def representation(n):\n"
        "    if n == 1:\n"
        "        return 1\n"
        f"{RULE}\n# the spectral function type\n{RULE}\n"
        "class SpectralFunction:\n"
        '    """``n == 1`` is a full Fourier series."""\n'
        "    def degree(self):\n"
        "        if self.poles is None:\n"
        "            return 0\n"
    )
    assert [where for where, _ in _seam_lines(spectral)] == ["spectral.SpectralFunction", "spectral.degree"]
    mobius = tmp_path / "mobius.py"
    mobius.write_text(
        "def find_center(u):\n"
        "    zonal = u.n != 1\n"
        "    x = 0.0 if zonal else 0j\n"
        "    if not zonal:\n"
        "        pass\n"
        "def barycenter(u):\n"
        "    if u.n == 1:\n"
        "        return 0\n"
        "# in a comment, n != 1\n"
    )
    found = [where for where, _ in _seam_lines(mobius)]
    assert found == ["mobius.find_center"] * 3 + ["mobius.barycenter", "mobius.<module>"]
