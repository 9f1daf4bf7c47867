"""Importing saflab pins glibc's heap trim threshold, and the pin does something."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import saflab

ROOT = Path(__file__).resolve().parent.parent
LIBC, VERSION = platform.libc_ver()

# frees 100 heap blocks of 120 KB (below the 128 KiB mmap threshold) and prints the
# arena before and after; mallinfo2 is glibc 2.33 and later
PROBE = """
import ctypes
import {module}
import numpy as np

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
arrays = [np.ones(15_000) for _ in range(100)]
peak = mallinfo2().arena
del arrays
print(peak, mallinfo2().arena)
"""


def arena_before_and_after_free(module: str) -> tuple[int, int]:
    # the environment may tune malloc too; the probe sees only what the import sets
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(module=module)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


@pytest.mark.skipif(LIBC != "glibc" or tuple(map(int, VERSION.split("."))) < (2, 33),
                    reason="reads glibc's mallinfo2")
def test_importing_saflab_keeps_the_heap_that_numpy_alone_gives_back():
    peak, after = arena_before_and_after_free("saflab")
    assert after == peak, (peak, after)
    peak, after = arena_before_and_after_free("numpy")
    assert after < peak - 8_000_000, (peak, after)


def raising(exc: Exception):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [
    pytest.param(raising(OSError("no C library")), id="OSError"),
    pytest.param(lambda name: object(), id="no-mallopt"),
    pytest.param(raising(TypeError("no handle for None")), id="TypeError"),
])
def test_the_pin_is_a_quiet_no_op_without_glibc(monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert saflab._pin_heap_trim() is None
    assert capsys.readouterr() == ("", "")
