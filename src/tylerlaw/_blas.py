"""dtrmm and dsyrk without the GIL, scipy's f2py wrappers of the other routines, and scipy's
OpenBLAS thread count.

ctypes for a routine whose cost grows with n, f2py for everything else.  dtrmm and dsyrk cost
O(d^2 n) in the kernel, long enough that a held GIL would serialize parallel trials: each is
called through its pointer in scipy's public Cython API by a ctypes function, which releases
the GIL, with the arguments its f2py wrapper passes the same library, so it returns the same
bits.  dpotrf, dtrtri, dsyevd and the Anderson step's calls work on (d, d) or smaller arrays,
where f2py costs less per call (1.2-25 us less for the first three at d = 16-100 on 2 vCPUs).
dgetrf, dtrtrs and dlaswp, which make a near-square fit's null-space basis from the (n, d)
data, are f2py calls too: they run once per fit, not once per evaluation.  The three extension
modules are loaded by spec from scipy's linalg directory: that skips
``scipy/linalg/__init__.py`` and the numpy submodules it imports (0.25 s, 11-13 MB)."""

import ctypes
import importlib.machinery
import importlib.util
from contextlib import contextmanager

import numpy as np
import scipy


def _linalg_extension(name):
    spec = importlib.machinery.PathFinder.find_spec(name, [f"{scipy.__path__[0]}/linalg"])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cython_blas, _fblas, _flapack = map(_linalg_extension, ("cython_blas", "_fblas", "_flapack"))
ddot, dgemm, dgemv, dgelss = _fblas.ddot, _fblas.dgemm, _fblas.dgemv, _flapack.dgelss
dpotrf, dtrtri, dsyevd = _flapack.dpotrf, _flapack.dtrtri, _flapack.dsyevd
dgetrf, dtrtrs, dlaswp = _flapack.dgetrf, _flapack.dtrtrs, _flapack.dlaswp

_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", ctypes.pythonapi))
# last word of an argument's C type in scipy's declaration (its typedef "d" is a double) -> its ctypes type
_ARGTYPES = {"char": ctypes.c_char_p, "int": ctypes.POINTER(ctypes.c_int), "d": ctypes.POINTER(ctypes.c_double)}


def _bind(name):
    # a capsule's name is its C signature, such as "void (char *, int *, __pyx_t_..._d *, int *, int *)"
    capsule = cython_blas.__pyx_capi__[name]
    args = _name(capsule).decode().partition("(")[2].rstrip(")").split(", ")
    argtypes = [_ARGTYPES[arg.split()[0].rpartition("_")[2]] for arg in args]
    return ctypes.CFUNCTYPE(None, *argtypes)(_pointer(capsule, _name(capsule)))


_dtrmm, _dsyrk = map(_bind, ("dtrmm", "dsyrk"))
_INT, _ONE, _ZERO = ctypes.c_int, ctypes.c_double(1.0), ctypes.c_double(0.0)


def _at(a):
    # a pointer to the first entry of a Fortran-ordered array: from_buffer on its
    # C-ordered transpose is the cheap one, for a writable nonempty array
    try:
        return ctypes.c_double.from_buffer(a.T)
    except (TypeError, ValueError):
        return a.ctypes.data_as(_ARGTYPES["d"])


def dtrmm(a, b):
    """f2py's ``dtrmm(1.0, a, b, side=1, lower=1, trans_a=1)`` in place: b <- b a^t from a's
    lower triangle, b a writable Fortran-ordered float64 buffer."""
    m, n = b.shape
    a = np.asfortranarray(a, np.float64)
    if a.shape != (n, n):
        raise ValueError(f"expected a ({n}, {n}) triangle, got shape {a.shape}")
    if not (b.dtype == np.float64 and b.flags.f_contiguous and b.flags.writeable):
        raise ValueError("expected a writable Fortran-ordered float64 buffer")
    _dtrmm(b"R", b"L", b"T", b"N", _INT(m), _INT(n), _ONE, _at(a), _INT(n or 1), _at(b), _INT(m or 1))


def dsyrk(a):
    """f2py's ``dsyrk(1.0, a, trans=1)``: a^t a in the upper triangle, zeros below."""
    a = np.asfortranarray(a, np.float64)
    k, n = a.shape
    c = np.zeros((n, n), order="F")
    _dsyrk(b"U", b"T", _INT(n), _INT(k), _ONE, _at(a), _INT(k or 1), _ZERO, _at(c), _INT(n or 1))
    return c


# bound once, in a tuple: as module attributes they would pass for GIL-free kernels
_lib = ctypes.CDLL(_fblas.__file__)  # dlsym also searches the OpenBLAS it links
_THREAD_CALLS = tuple(getattr(_lib, f"scipy_openblas_{k}_num_threads", None) for k in ("get", "set"))


def openblas_thread_calls():
    """(get, set) of scipy's OpenBLAS thread count, or None if it lacks either."""
    return None if None in _THREAD_CALLS else _THREAD_CALLS


@contextmanager
def one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore the count.  A count that
    is 1 already is not written, so the nested and concurrent entries inside a sweep write nothing."""
    get, set_ = openblas_thread_calls() or (lambda: 1, None)
    prior = get()
    if prior == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(prior)
