"""Import a saflab source tree under a module name of its own.

:func:`load` takes a directory that holds ``src/saflab`` (a checkout, or
the working tree) or a git revision of this repository, and imports that
tree's package as the given name, so two trees live side by side in one
process with separate ``sys.modules`` entries.  A revision is exported with
``git archive`` into a temporary directory, which is removed once every
module of the package is imported.  This works because every import inside
the package is relative.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "saflab"


def _git(*args: str, cwd: Path = ROOT) -> bytes:
    try:
        return subprocess.run(["git", "-C", str(cwd), *args], capture_output=True,
                              check=True).stdout
    except subprocess.CalledProcessError as exc:
        raise ValueError(f"git {' '.join(args)}: {exc.stderr.decode().strip()}") from None


def describe(source) -> str:
    """The commit ``source`` stands for.  A directory whose ``src/saflab``
    differs from its HEAD gets a ``+dirty`` suffix; one outside git reads
    ``unknown``."""
    path = Path(source)
    if not path.is_dir():
        return _git("rev-parse", "--verify", f"{source}^{{commit}}").decode().strip()
    try:
        head = _git("rev-parse", "HEAD", cwd=path).decode().strip()
        dirty = _git("status", "--porcelain", "--", str(PACKAGE), cwd=path)
    except (ValueError, OSError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def _import(package: Path, name: str):
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        for path in sorted(package.glob("*.py")):
            if path.stem != "__init__":
                importlib.import_module(f"{name}.{path.stem}")
    except BaseException:
        del sys.modules[name]
        raise
    return module


def load(source, name: str):
    """The saflab package of ``source`` (a directory or a git revision),
    imported as ``name``; a module already loaded under ``name`` is replaced."""
    path = Path(source)
    if path.is_dir():
        return _import(path / PACKAGE, name)
    archive = _git("archive", "--format=tar", str(source), str(PACKAGE))
    with tempfile.TemporaryDirectory(prefix="saflab-tree-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return _import(Path(tmp) / PACKAGE, name)
