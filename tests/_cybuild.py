"""The compiled kernel sintdyn._kernel._cypoly, built by the real setup.py
once per source and interpreter, for the tests and benchmarks/bench_kernel.py.

The build goes to a directory under the system temp dir named by the
user id and the sha256 of _cypoly.c, setup.py and the interpreter's
EXT_SUFFIX, so later sessions, and copies of the checkout with the same
sources, load it without compiling again.  It is built into a fresh
private sibling directory and renamed into place, so a partial build is
never loaded.  A directory at that name is loaded only when it is the
user's own, writable by no one else, and holds the module; otherwise the
fresh build is loaded and removed.  The module is loaded from there, so
neither the tree nor the active sintdyn._kernel changes.
"""

import hashlib
import importlib.util
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/sintdyn/_kernel/_cypoly.c", "setup.py")


def _built(build: Path) -> Path | None:
    # the compiled module in build, when build is a directory (not a link)
    # of this user's that no one else can write to
    try:
        info = build.lstat()
    except FileNotFoundError:
        return None
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        return None
    return next(build.glob("sintdyn/_kernel/_cypoly.*"), None)


def compiled_kernel():
    """The compiled kernel module, or None when the C does not compile.

    setup.py marks the extension optional, so C that does not compile
    leaves no module and exits 0; a non-zero exit means the build itself
    is broken, and raises."""
    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update((ROOT / name).read_bytes())
    digest.update(sysconfig.get_config_var("EXT_SUFFIX").encode())
    build = Path(tempfile.gettempdir(),
                 f"sintdyn-cypoly-{os.getuid()}-{digest.hexdigest()[:32]}")
    path, fresh = _built(build), None
    if path is None:
        fresh = Path(tempfile.mkdtemp(prefix=f"{build.name}.", dir=build.parent))
        done = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", str(fresh),
             "--build-temp", str(fresh / "t")],
            cwd=ROOT, capture_output=True, text=True,
        )
        path = _built(fresh)
        if done.returncode or path is None:
            shutil.rmtree(fresh, ignore_errors=True)
            if done.returncode:
                raise RuntimeError(f"setup.py build_ext exited {done.returncode}:\n"
                                   f"{done.stdout}{done.stderr}")
            return None
        try:  # onto nothing, or onto an empty directory of this user's
            fresh.rename(build)
            path, fresh = build / path.relative_to(fresh), None
        except OSError:  # another build is in place, or one that is not trusted
            pass
    spec = importlib.util.spec_from_file_location("sintdyn._kernel._cypoly", path)
    module = importlib.util.module_from_spec(spec)
    registered = spec.name in sys.modules
    spec.loader.exec_module(module)
    if not registered:  # the compiled module adds itself on its first load
        sys.modules.pop(spec.name, None)
    if fresh is not None:  # the loaded library outlives its directory
        shutil.rmtree(fresh, ignore_errors=True)
    return module
