"""Build the optional compiled GF(p) kernel.

The package is fully functional without it (a numpy fallback with the same API
is selected at import time), so any failure here degrades to a pure-Python
install instead of aborting.  With Cython the kernel is built from
`_gfcore.pyx`; without it, from the tracked `_gfcore.c` that Cython generated
from that file.
"""

from setuptools import setup

try:
    import numpy
    from setuptools import Extension

    def kernel(source):
        return Extension(
            "arquiver._gfcore",
            [source],
            include_dirs=[numpy.get_include()],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        )

    try:
        from Cython.Build import cythonize
    except ImportError:
        extensions = [kernel("src/arquiver/_gfcore.c")]
    else:
        extensions = cythonize([kernel("src/arquiver/_gfcore.pyx")], language_level="3")
except Exception:
    extensions = []

setup(ext_modules=extensions)
