"""The numeric platform a test's exact bytes were pinned on.

BLAS kernels and numpy's SIMD loops may round differently from one CPU to
the next, so an exact pin holds only on the platform it was measured on.
``openblas_core`` names the OpenBLAS kernel set chosen at run time (the
build string may name another), and ``platform_key`` adds the numpy
version, the numpy SIMD targets enabled and the OpenBLAS version.
``assert_rows_match`` compares result rows with rows pinned under a key.
"""

import csv
import ctypes
import math
import warnings

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _openblas_call(*symbols):
    """The string the first exported ``symbols`` function of the loaded OpenBLAS returns, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in symbols:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


def openblas_core():
    """Name of the kernel set the loaded OpenBLAS runs (``SkylakeX``, ``Haswell``, ...), or None."""
    return _openblas_call("openblas_get_corename", "scipy_openblas_get_corename64_", "openblas_get_corename64_")


def platform_key() -> dict:
    """numpy version and enabled SIMD targets, OpenBLAS version and runtime core."""
    config = _openblas_call("openblas_get_config", "scipy_openblas_get_config64_", "openblas_get_config64_")
    return {
        "numpy": np.__version__,
        "numpy_simd": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
        "openblas": " ".join(config.split()[:2]) if config else None,
        "openblas_core": openblas_core(),
    }


NUMERIC_FIELDS = ("mean_excess", "stderr", "oracle_value", "bound_value")


def assert_rows_match(produced: list, pinned: list, recorded: dict, what: str) -> None:
    """``results.csv`` lines, header first, against ``pinned`` lines written on platform ``recorded``.

    On that platform they are the same bytes.  Elsewhere numeric fields
    agree to a relative 1e-12 (libm, SIMD and BLAS kernels may move the
    last digits) and every other field agrees exactly.
    """
    here = platform_key()
    if here == recorded:
        assert produced == pinned
        return
    warnings.warn(f"{what} written on {recorded}, running on {here}: compared at relative 1e-12")
    assert len(produced) == len(pinned)
    for got, want in zip(csv.DictReader(produced), csv.DictReader(pinned)):
        for field, expected in want.items():
            if field in NUMERIC_FIELDS and expected:
                assert math.isclose(float(got[field]), float(expected), rel_tol=1e-12, abs_tol=0.0), (field, got, want)
            else:
                assert got[field] == expected, (field, got, want)
