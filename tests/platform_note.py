"""The platform a hex pin was taken on, and the one a test runs on.

A seed fixes the last bits of the products and of ``exp`` on one
platform only (docs/formats.md), the one :func:`roughvix.sampler.platform`
names.  The pin tests name both platforms when they fail, so a failure
on another host explains itself.
"""

from roughvix.sampler import platform


def pin_message() -> str:
    """Where the pins hold, and this run's platform, as CI's print step shows it."""
    here = platform()
    return (
        "pinned under OpenBLAS's SkylakeX kernels and numpy's AVX-512 (X86_V4) "
        f"loops; this run: {here['openblas'] or 'numpy links no OpenBLAS'}; "
        f"numpy SIMD enabled: {' '.join(here['simd'])}"
    )
