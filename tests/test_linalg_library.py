"""Every BLAS/LAPACK call of the package runs in scipy's bundled library.

numpy and scipy each bundle an OpenBLAS with its own thread pool; a trial
that calls both wakes two pools that compete for the cores.  This scans the
source for the numpy entry points into its BLAS and LAPACK.  Axis-wise
``np.linalg.norm`` stays allowed: it reduces elementwise and calls no BLAS.

The kernel routines have one path, ``tylerlaw._blas``, so no other module may
import scipy's f2py wrappers of them.  ``_blas`` calls through ctypes, without
the GIL, only the two whose cost grows with n, ``dtrmm`` and ``dsyrk``; it
re-exports the f2py wrappers of the (d, d) ones, ``dpotrf``, ``dtrtri`` and
``dsyevd``, which were 1.2-25 us per call faster than ctypes wrappers at
d = 16-100 on 2 vCPUs, and ``dgetrf``, ``dtrtrs`` and ``dlaswp``, which make a
near-square fit's null-space basis once per fit.

No module, ``_blas`` included, imports ``scipy.linalg`` or a submodule of it:
``_blas`` loads the three extension modules it needs from scipy's directory
by spec, because the package's ``__init__`` also imports numpy's testing,
f2py, ma and polynomial modules (0.25 s and 11-13 MB at start-up).  The other
modules reach scipy's library only through ``_blas``.

``dgelss``, the Anderson step's, is the package's one least-squares routine:
the summary's variance slope is a straight line through a handful of points,
fitted in closed form with elementwise sums, and no module names another
least-squares driver.
"""

import ast
from pathlib import Path

import pytest

import tylerlaw

SOURCES = sorted(Path(tylerlaw.__file__).parent.glob("*.py"))
_NUMPY_BLAS = {"dot", "matmul", "inner", "tensordot", "polyfit"}  # polyfit solves with numpy.linalg.lstsq
_LINALG_ALLOWED = {"LinAlgError", "norm"}
_BANNED_IMPORTS = {f"numpy.{name}" for name in _NUMPY_BLAS | {"linalg"}}
_KERNELS = {"dpotrf", "dtrtri", "dtrmm", "dsyrk", "dsyevd", "dgetrf", "dtrtrs", "dlaswp"}  # through tylerlaw._blas only
_F2PY_MODULES = {"scipy.linalg.blas", "scipy.linalg.lapack"}
_OTHER_LEAST_SQUARES = {"dgels", "dgelsd", "dgelsd_lwork", "dgelss_lwork", "dgelsy", "dgelsy_lwork", "lstsq"}


def _np_attribute(node, *path):
    # whether ``node`` is the attribute chain np.<path[0]>.<path[1]>...
    for name in reversed(path):
        if not isinstance(node, ast.Attribute) or node.attr != name:
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


def numpy_linalg_calls(source: str) -> list[str]:
    """Lines of ``source`` that would run numpy's BLAS or LAPACK."""
    tree = ast.parse(source)
    axis_wise_norms = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "axis" for k in node.keywords)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: the @ operator")
        elif isinstance(node, ast.Attribute):
            if any(_np_attribute(node, name) for name in _NUMPY_BLAS):
                found.append(f"{node.lineno}: np.{node.attr}")
            elif _np_attribute(node.value, "linalg") and (
                node.attr not in _LINALG_ALLOWED
                or (node.attr == "norm" and id(node) not in axis_wise_norms)
            ):
                found.append(f"{node.lineno}: np.linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            # an imported name escapes the np.<name> checks above
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name in _BANNED_IMPORTS or (
                    name.startswith("numpy.linalg.") and name != "numpy.linalg.LinAlgError"
                ):
                    found.append(f"{node.lineno}: from {node.module} import {alias.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_blas_or_lapack_call(path):
    assert numpy_linalg_calls(path.read_text()) == []


def f2py_kernel_imports(source: str) -> list[str]:
    """Lines of ``source`` that import an f2py wrapper of one of the kernels."""
    return [
        f"{node.lineno}: from {node.module} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in _F2PY_MODULES
        for alias in node.names
        if alias.name in _KERNELS
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_blas.py"], ids=lambda p: p.name)
def test_kernels_reached_only_through_blas_module(path):
    assert f2py_kernel_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "line, count",
    [
        ("from scipy.linalg.blas import dsyrk", 1),
        ("from scipy.linalg.blas import ddot, dgemm, dtrsm", 0),
        ("from scipy.linalg.lapack import dgelss, dpotrf", 1),
        ("from scipy.linalg.lapack import dsyevd as eig", 1),
        ("from scipy.linalg.blas import dsyrk, dtrmm", 2),
        ("from scipy.linalg.lapack import dtrtri", 1),
        ("from scipy.linalg.blas import dgemm, dtrmm", 1),
        ("from scipy.linalg.lapack import dpotrf, dtrtri as inverse", 2),
        ("from scipy.linalg.lapack import dgetrf, dtrtrs, dlaswp", 3),
        ("from scipy.linalg.lapack import dgetrf as lu, dgesv", 1),
        ("from scipy.linalg.blas import ddot, dgemm, dgemv", 0),
        ("from scipy.linalg.lapack import dgelss", 0),
        ("from . import _blas", 0),
        ("from ._blas import dsyevd", 0),
    ],
)
def test_scan_flags_f2py_kernel_imports(line, count):
    assert len(f2py_kernel_imports(line)) == count


def scipy_linalg_imports(source: str) -> list[str]:
    """Lines of ``source`` that import scipy.linalg or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    assert scipy_linalg_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "line, count",
    [
        ("import scipy.linalg", 1),
        ("import scipy.linalg as sl", 1),
        ("import scipy.linalg._fblas", 1),
        ("import numpy, scipy.linalg.blas", 1),
        ("from scipy.linalg import lstsq", 1),
        ("from scipy.linalg import cython_blas, cython_lapack", 1),
        ("from scipy.linalg.lapack import dgelsd", 1),
        ("from scipy import linalg", 1),
        ("from scipy import integrate, linalg as la", 1),
        ("import scipy.linalg\nfrom scipy.linalg.blas import ddot", 2),
        ("import scipy", 0),
        ("import scipy.integrate", 0),
        ("from scipy import integrate", 0),
        ("from scipy.linalgebra import x", 0),
        ("from numpy.linalg import LinAlgError", 0),
        ("from . import _blas", 0),
        ("from ._blas import dgelsd, dgelsd_lwork", 0),
    ],
)
def test_scan_flags_scipy_linalg_imports(line, count):
    assert len(scipy_linalg_imports(line)) == count


@pytest.mark.parametrize(
    "line",
    [
        "G = Y @ Y.T",
        "G @= Y",
        "g = np.dot(a, b)",
        "G = np.matmul(Y, Y.T)",
        "g = np.inner(a, b)",
        "G = np.tensordot(Y, Y, axes=(1, 1))",
        "s = np.polyfit(x, y, 1)",
        "w = np.linalg.eigvalsh(A)",
        "c = np.linalg.cholesky(A)",
        "f = np.linalg.norm(A)",
        "f = np.linalg.norm(A, 'fro')",
        "from numpy.linalg import eigvalsh",
        "from numpy import dot",
    ],
)
def test_scan_flags_numpy_linalg(line):
    assert len(numpy_linalg_calls(line)) == 1


@pytest.mark.parametrize(
    "line",
    [
        "norms = np.linalg.norm(z, axis=0)",
        "error = np.linalg.LinAlgError",
        "from numpy.linalg import LinAlgError",
        "q = np.einsum('ij,ij->j', Z, Z)",
        "w = dsyevd(A, compute_v=0, lower=1)",
    ],
)
def test_scan_allows_axis_wise_norm_and_scipy(line):
    assert numpy_linalg_calls(line) == []


def least_squares_names(source: str) -> set[str]:
    """The least-squares drivers other than ``dgelss`` that ``source`` names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & _OTHER_LEAST_SQUARES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dgelss_is_the_one_least_squares_routine(path):
    assert least_squares_names(path.read_text()) == set()


@pytest.mark.parametrize(
    "line, found",
    [
        ("from ._blas import dgelsd, dgelsd_lwork", {"dgelsd", "dgelsd_lwork"}),
        ("coef = _flapack.dgelsd(A, b)", {"dgelsd"}),
        ("coef = lstsq(A, b)", {"lstsq"}),
        ("_, g, _, _, _, info = dgelss(gram, rhs, cond=1e-12)", set()),
    ],
)
def test_scan_flags_other_least_squares_drivers(line, found):
    assert least_squares_names(line) == found
