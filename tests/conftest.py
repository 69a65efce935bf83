import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _pypoly
from sintdyn.ffpoly import PrimeField

ROOT = Path(__file__).resolve().parent.parent


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
def kernel_modules(tmp_path_factory):
    """The kernel modules by backend name.  "cython" is present when the real
    setup.py compiles the extension; it builds into a temporary directory and
    the module is loaded from there, so neither the tree nor the active
    sintdyn._kernel changes."""
    build = tmp_path_factory.mktemp("cypoly")
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(build),
         "--build-temp", str(build / "t")],
        cwd=ROOT, check=True, capture_output=True,
    )
    modules = {"python": _pypoly}
    for path in (build / "sintdyn" / "_kernel").glob("_cypoly.*"):
        spec = importlib.util.spec_from_file_location("sintdyn._kernel._cypoly", path)
        modules["cython"] = importlib.util.module_from_spec(spec)
        registered = spec.name in sys.modules
        spec.loader.exec_module(modules["cython"])
        if not registered:  # the compiled module adds itself to sys.modules
            del sys.modules[spec.name]
    return modules
