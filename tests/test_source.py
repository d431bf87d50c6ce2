"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

import seblab
from seblab import errors

PACKAGE = Path(seblab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names that an import binds and no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    source = ("import os, sys\nimport numpy as np\nimport a.b\n"
              "from x import y, z\nprint(np.pi, a.b, y)\n")
    assert unused_imports(source) == [(1, "os"), (1, "sys"), (4, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export, which `__all__` lists as strings
    assert unused_imports(path.read_text()) == []


def exports_and_imports(source):
    """(the names `__all__` lists, the names the imports bind)."""
    tree = ast.parse(source)
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    return exported, imported


def test_finds_a_lingering_export():
    source = ('from .a import f, g\nfrom .b import h as k\n'
              '__all__ = ["f", "k", "gone"]\n')
    assert exports_and_imports(source) == (["f", "k", "gone"], ["f", "g", "k"])


def test_all_lists_exactly_the_imports():
    # a deleted function cannot linger as an export, nor an import go
    # unexported
    exported, imported = exports_and_imports(
        (PACKAGE / "__init__.py").read_text())
    assert len(exported) == len(set(exported))
    assert set(exported) == set(imported)


def global_rng_reaches(source):
    """(line, text) of each reach into numpy.random other than
    numpy.random.default_rng: an import of it or of a name in it, or an
    attribute of np.random (numpy imported as np or numpy)."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = (f"{node.module}.{alias.name}" for alias in node.names)
            found += [(node.lineno, name) for name in names
                      if name.startswith("numpy.random")
                      and name != "numpy.random.default_rng"]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            outer = parents[node]
            if not (isinstance(outer, ast.Attribute)
                    and outer.attr == "default_rng"):
                reach = outer if isinstance(outer, ast.Attribute) else node
                found.append((node.lineno, ast.unparse(reach)))
    return sorted(found)


def test_finds_a_global_rng_reach():
    source = ("import numpy as np\nimport numpy.random\n"
              "from numpy import random\n"
              "from numpy.random import default_rng, seed\n"
              "rng = np.random.default_rng(1)\nx = np.random.rand(3)\n"
              "g = np.random\nnp.random.seed(0)\n")
    assert global_rng_reaches(source) == [
        (2, "numpy.random"), (3, "numpy.random"),
        (4, "numpy.random.seed"), (6, "np.random.rand"), (7, "np.random"),
        (8, "np.random.seed")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_draws_only_from_default_rng(path):
    # every draw comes from a generator that a caller seeds: the global
    # np.random state is neither read nor changed
    assert global_rng_reaches(path.read_text()) == []


HIDDEN_CUTOFFS = ("matrix_rank", "pinv", "lstsq")


def hidden_rank_cutoffs(source):
    """(line, text) of each reach of numpy.linalg's matrix_rank, pinv or
    lstsq, each of which drops singular values below a cutoff of its own:
    an import of one, or an attribute of np.linalg (numpy imported as np
    or numpy) or of a name bound to numpy.linalg."""
    tree = ast.parse(source)
    linalg = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linalg |= {alias.asname for alias in node.names
                       if alias.name == "numpy.linalg" and alias.asname}
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg.add(alias.asname or alias.name)
                elif (node.module == "numpy.linalg"
                      and alias.name in HIDDEN_CUTOFFS):
                    found.append((node.lineno, f"numpy.linalg.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in HIDDEN_CUTOFFS:
            owner = node.value
            if ((isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                 and isinstance(owner.value, ast.Name)
                 and owner.value.id in ("np", "numpy"))
                    or (isinstance(owner, ast.Name) and owner.id in linalg)):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_finds_a_hidden_rank_cutoff():
    source = ("import numpy as np\nimport numpy.linalg as la\n"
              "from numpy import linalg\n"
              "from numpy.linalg import lstsq, svd\n"
              "r = np.linalg.matrix_rank(A)\nP = numpy.linalg.pinv(A)\n"
              "x = la.lstsq(A, b)\ny = linalg.pinv(A)\n"
              "s = np.linalg.svd(A)\nq = qmap.pinv\n")
    assert hidden_rank_cutoffs(source) == [
        (4, "numpy.linalg.lstsq"), (5, "np.linalg.matrix_rank"),
        (6, "numpy.linalg.pinv"), (7, "la.lstsq"), (8, "linalg.pinv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_rank_rule(path):
    # every rank the package reads compares singular values with the
    # cutoff of linalg.numerical_rank, never with a numpy routine's own
    assert hidden_rank_cutoffs(path.read_text()) == []


PACKAGE_ERRORS = frozenset(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, Exception))
# the two raises a protocol asks for: writing to an immutable Instance, and
# an argparse type function refusing its text (argparse reports it as a
# usage error, which the parser raises as ValidationError)
PROTOCOL_RAISES = {("Instance.__setattr__", "AttributeError"),
                   ("_nonnegative", "argparse.ArgumentTypeError")}


def foreign_raises(source):
    """(line, enclosing def or class, class raised) of each raise whose
    class is not one of `seblab.errors`; a bare re-raise names none."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                name = ast.unparse(exc.func if isinstance(exc, ast.Call)
                                   else exc)
                if name not in PACKAGE_ERRORS:
                    found.append((child.lineno, ".".join(scope), name))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_finds_a_foreign_raise():
    source = ("import argparse\nfrom .errors import ValidationError\n"
              "def f(x):\n    if x:\n        raise ValidationError('x')\n"
              "    raise ValueError('y')\n"
              "class C:\n    def g(self):\n        raise TypeError\n"
              "    def h(self):\n        try:\n            pass\n"
              "        except KeyError:\n            raise\n"
              "def k():\n    raise argparse.ArgumentTypeError('z') from None\n"
              "raise RuntimeError\n")
    assert foreign_raises(source) == [
        (6, "f", "ValueError"), (9, "C.g", "TypeError"),
        (16, "k", "argparse.ArgumentTypeError"), (17, "", "RuntimeError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_only_package_errors(path):
    # a caller catches every refusal of the package as SebLabError
    assert [(line, where, name)
            for line, where, name in foreign_raises(path.read_text())
            if (where, name) not in PROTOCOL_RAISES] == []


def module_tolerances(source):
    """(line, name) of each name ending in `_TOL` that module-level code
    assigns (a function or class body binds no module name; an import
    binds a constant defined elsewhere, where it is found)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if (isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Store)
                    and child.id.endswith("_TOL")):
                found.append((child.lineno, child.id))
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_finds_a_module_tolerance():
    source = ("from .geometry import BASE_TOL\nMEMBER_TOL = 1e-8\n"
              "A_TOL, b = 1.0, 2\nC_TOL: float = 3.0\nA_TOL += 1\n"
              "if b:\n    E_TOL = 1\n"
              "def f(x, F_TOL=1):\n    LOCAL_TOL = 1\n"
              "class K:\n    CLASS_TOL = 2\nTOLERANCE = BASE_TOL\n")
    assert module_tolerances(source) == [
        (2, "MEMBER_TOL"), (3, "A_TOL"), (4, "C_TOL"), (5, "A_TOL"),
        (7, "E_TOL")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tuned_tolerance(path):
    # every slack is derived from the rounding of the data it judges;
    # BASE_TOL is the one set figure, the 1e-9 accuracy that
    # CertifiedOptimal promises
    assert [name for _, name in module_tolerances(path.read_text())
            if (path.name, name) != ("geometry.py", "BASE_TOL")] == []
