"""The ctypes wrappers of ``tylerlaw._blas`` against scipy's f2py wrappers.

Only the two kernels whose cost grows with n, ``dtrmm`` and ``dsyrk``, run
through ctypes, so that parallel trials run them without the GIL.  dpotrf,
dtrtri and dsyevd work on (d, d) matrices, where f2py was 1.2-25 us per call
faster on 2 vCPUs at d = 16-100, so they are scipy's f2py wrappers, guarded at
their call sites in ``test_estimators`` and ``test_spectral``, and so are
dgetrf, dtrtrs and dlaswp, which make a near-square fit's null-space basis once
per fit; the README's "Performance" section has what that costs parallel
trials.  Each ctypes
wrapper promises the bits of the f2py call it replaces.  ctypes passes raw
pointers, so a layout mistake would be a silent wrong answer: each is also
fed C-ordered, strided, integer and read-only inputs, which f2py turns into
Fortran-ordered float64 copies.

``_blas`` loads scipy's extension modules without the ``scipy.linalg``
package: the f2py calls it re-exports must return scipy.linalg's bits, and a
trial in a fresh interpreter must neither load that package nor change a bit
when it is loaded first.
"""

import ctypes
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from tylerlaw import _blas, estimators

SHAPES = [(1, 1), (3, 3), (4, 40), (16, 1600), (32, 3200), (64, 6400), (100, 120)]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def kernel_inputs(d, n, seed=0):
    # a (d, n) data matrix, a positive definite (d, d) shape and its factor
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    A = rng.standard_normal((d, d))
    omega = A @ A.T / d + np.eye(d)
    return X, omega, lapack.dpotrf(omega, lower=1)[0]


def f2py_dtrmm(a, b):
    return blas.dtrmm(1.0, a, b, side=1, lower=1, trans_a=1)


def buffer_dtrmm(a, b):
    # the in-place product on f2py's Fortran-ordered float64 copy of b
    b = np.array(b, np.float64, order="F")
    _blas.dtrmm(a, b)
    return b


@pytest.mark.parametrize("d, n", SHAPES, ids=lambda v: str(v))
def test_kernel_routines_match_f2py_bit_for_bit(d, n):
    X, _, L = kernel_inputs(d, n)
    Linv = lapack.dtrtri(L, lower=1)[0]
    assert_same_bits(buffer_dtrmm(Linv, X.T), f2py_dtrmm(Linv, X.T))
    assert_same_bits(_blas.dsyrk(X.T), blas.dsyrk(1.0, X.T, trans=1))


def layouts(M):
    # M (integer-valued floats) in the layouts a caller may pass
    strided = np.zeros((2 * M.shape[0], 3 * M.shape[1]))
    strided[::2, ::3] = M
    readonly = np.asfortranarray(M)
    readonly.flags.writeable = False
    return {
        "fortran": np.asfortranarray(M),
        "c": np.ascontiguousarray(M),
        "strided": strided[::2, ::3],
        "int": M.astype(np.int64),
        "readonly": readonly,
    }


LAYOUTS = list(layouts(np.eye(1)))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_wrappers_take_any_layout_as_f2py_does(layout):
    rng = np.random.default_rng(1)
    B = rng.integers(-9, 10, size=(5, 40)).astype(float)
    L = np.tril(rng.integers(1, 9, size=(5, 5))).astype(float)
    L_in, Xt_in = (layouts(M)[layout] for M in (L, B.T))
    assert_same_bits(buffer_dtrmm(L_in, Xt_in), f2py_dtrmm(L_in, Xt_in))
    assert_same_bits(_blas.dsyrk(Xt_in), blas.dsyrk(1.0, Xt_in, trans=1))


def test_empty_matrices_match_f2py():
    empty = np.zeros((0, 0))
    assert_same_bits(buffer_dtrmm(empty, np.zeros((5, 0))), f2py_dtrmm(empty, np.zeros((5, 0))))
    assert_same_bits(buffer_dtrmm(np.eye(3), np.zeros((0, 3))), f2py_dtrmm(np.eye(3), np.zeros((0, 3))))


# the one triangular routine through ctypes; its test ids name it
@pytest.mark.parametrize("routine", [_blas.dtrmm], ids=["dtrmm"])
def test_triangular_routines_check_the_triangle_shape_before_the_call(routine):
    with pytest.raises(ValueError, match=r"\(4, 4\) triangle, got shape \(3, 3\)"):
        routine(np.eye(3), np.ones((5, 4), order="F"))


@pytest.mark.parametrize("routine", [_blas.dtrmm], ids=["dtrmm"])
@pytest.mark.parametrize("layout", [k for k in LAYOUTS if k != "fortran"])
def test_triangular_routines_reject_a_buffer_they_cannot_overwrite(layout, routine):
    # through ctypes a C-ordered, strided or integer buffer would be read as
    # Fortran-ordered doubles: a silent wrong answer, so it is refused
    b = layouts(np.arange(20.0).reshape(5, 4))[layout]
    before = np.array(b)
    with pytest.raises(ValueError, match="writable Fortran-ordered float64 buffer"):
        routine(np.eye(4), b)
    assert_same_bits(np.asarray(b), before)


def test_kernels_release_the_gil():
    # a ctypes function made with PYFUNCTYPE (FUNCFLAG_PYTHONAPI) keeps the GIL;
    # the two kernels whose cost grows with n are the only ones that release it
    gil_free = {k for k, v in vars(_blas).items() if isinstance(v, ctypes._CFuncPtr) and not v._flags_ & ctypes._FUNCFLAG_PYTHONAPI}
    assert gil_free == {"_dtrmm", "_dsyrk"}
    for name in ("dpotrf", "dtrtri", "dsyevd", "dgetrf", "dtrtrs", "dlaswp"):
        assert getattr(_blas, name) is getattr(_blas._flapack, name)


def test_concurrent_kernels_match_serial_bit_for_bit():
    # near-square inputs and tall ones, each whitened by dtrtri and dtrmm
    inputs = [kernel_inputs(d, int(k * d), seed)[:2] for seed, (d, k) in enumerate([(8, 25), (16, 25), (24, 1.5), (32, 1.25)] * 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _blas.one_blas_thread():
            serial = [estimators._tyler_rhs(X, omega) for X, omega in inputs]
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(estimators._tyler_rhs, X, omega) for X, omega in inputs * 4]
                parallel = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(parallel):
        assert_same_bits(got, serial[k % len(inputs)])


@pytest.mark.parametrize("d", [4, 16, 64, 100])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_anderson_calls_are_scipy_linalg_bit_for_bit(d, m):
    # the Anderson step's calls on (d^2, m) history blocks: Fortran-ordered
    # views of the first m rows, as the step takes them
    rng = np.random.default_rng(100 * d + m)
    ddefect, dmapped = rng.standard_normal((2, 5, d * d))
    defect, mapped = rng.standard_normal((2, d * d))
    F, G = ddefect[:m].T, dmapped[:m].T
    gram = _blas.dgemm(1.0, F, F, trans_a=1)
    assert_same_bits(gram, blas.dgemm(1.0, F, F, trans_a=1))
    rhs = _blas.dgemv(1.0, F, defect, trans=1)
    assert_same_bits(rhs, blas.dgemv(1.0, F, defect, trans=1))
    got, want = _blas.dgelss(gram, rhs, cond=1e-12), lapack.dgelss(gram, rhs, cond=1e-12)
    for a, b in zip(got[:-1], want[:-1]):
        assert_same_bits(np.asarray(a), np.asarray(b))
    assert got[-1] == want[-1] == 0
    g = got[1]
    assert_same_bits(_blas.dgemv(-1.0, G, g, beta=1.0, y=mapped), blas.dgemv(-1.0, G, g, beta=1.0, y=mapped))
    assert _blas.ddot(defect, mapped) == blas.ddot(defect, mapped)


# one Cauchy trial with both estimators, run in a fresh interpreter after {first}
_TRIAL = """
import sys
{first}
from tylerlaw import PopulationTemplate, _blas, cli, harness
cfg = harness.ExperimentConfig(population=PopulationTemplate(radial="scaled-f-root", p=1), schedule=((16, 160),),
                               replicates=1, estimators=("covariance", "tyler"), base_seed=7)
print(harness.run_trial(cfg, 0, 0).to_json_line())
print("scipy.linalg" in sys.modules, _blas.openblas_thread_calls() is not None)
"""


def fresh_trial(first=""):
    proc = subprocess.run([sys.executable, "-c", _TRIAL.format(first=first)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_and_trial_do_not_load_scipy_linalg():
    # scipy.linalg's __init__ imports numpy's testing, f2py, ma and polynomial
    # modules: 0.25 s and 11-13 MB of start-up that the package does not need
    line, loaded = fresh_trial()
    assert loaded.split()[0] == "False"
    assert '"converged":true' in line


def test_from_import_reaches_the_cython_api_after_tylerlaw():
    # _blas registers cython_blas in sys.modules under its full name without
    # setting it on the scipy.linalg package, so after `import tylerlaw` the
    # attribute form `scipy.linalg.cython_blas` fails; the `from` form finds
    # the loaded module
    code = (
        "import tylerlaw\n"
        "from scipy.linalg import cython_blas, cython_lapack\n"
        "from tylerlaw import _blas\n"
        "print(cython_blas is _blas.cython_blas, 'dpotrf' in cython_lapack.__pyx_capi__, 'ddot' in cython_blas.__pyx_capi__)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def test_trial_bits_do_not_depend_on_an_earlier_scipy_linalg_import():
    line, loaded = fresh_trial("import scipy.linalg")
    assert loaded == "True True"
    assert line == fresh_trial()[0]
