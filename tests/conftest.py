import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _pypoly
from _cybuild import compiled_kernel
from sintdyn.ffpoly import PrimeField


@pytest.fixture(scope="session")
def F2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def F3():
    return PrimeField(3)


@pytest.fixture(scope="session")
def F5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def kernel_modules():
    """The kernel modules by backend name.  "cython" is present when the real
    setup.py compiles the extension (_cybuild: built once per source and
    interpreter, loaded without changing the tree or sintdyn._kernel); a
    setup.py that exits non-zero raises."""
    cypoly = compiled_kernel()
    return {"python": _pypoly} if cypoly is None else {"python": _pypoly, "cython": cypoly}
