"""Build script: compiles the polynomial kernel from the committed C.

``_cypoly.c`` is generated from ``_cypoly.pyx`` by Cython and committed, so
the build needs only a C compiler.  The extension is optional: when it does
not compile, the package imports the pure-Python kernel instead.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "sintdyn._kernel._cypoly",
    sources=["src/sintdyn/_kernel/_cypoly.c"],
    extra_compile_args=["-O3"],
    optional=True,
)])
