"""The numeric platform a test's exact bytes were pinned on.

BLAS kernels and numpy's SIMD loops may round differently from one CPU to
the next, so an exact pin holds only on the platform it was measured on.
``openblas_core`` names the OpenBLAS kernel set chosen at run time (the
build string may name another), and ``platform_key`` adds the numpy
version, the numpy SIMD targets enabled and the OpenBLAS version.
"""

import ctypes

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
