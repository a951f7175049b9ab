"""The platform a hex pin was taken on, and the one a test runs on.

A seed fixes the last bits of the products and of ``exp`` on one
platform only (docs/formats.md): they depend on the kernels OpenBLAS
picks for the CPU and on the SIMD loops numpy dispatches to.  The pin
tests name both platforms when they fail, so a failure on another host
explains itself.
"""

import ctypes

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath


def pin_message() -> str:
    """Where the pins hold, and this run's platform: OpenBLAS's config
    string and numpy's enabled SIMD features, looked up as the CI step
    prints them."""
    get_config = getattr(ctypes.CDLL(_umath.__file__), "scipy_openblas_get_config64_", None)
    if get_config is None:
        blas = "numpy's BLAS is not scipy-openblas64"
    else:
        get_config.restype = ctypes.c_char_p
        blas = get_config().decode().strip()
    enabled = " ".join(name for name, on in _umath.__cpu_features__.items() if on)
    return (
        "pinned under OpenBLAS's SkylakeX kernels and numpy's AVX-512 (X86_V4) "
        f"loops; this run: {blas}; numpy SIMD enabled: {enabled}"
    )
