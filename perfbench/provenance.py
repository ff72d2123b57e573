"""Build the program in the checkout and stamp where a run came from."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time

#: Build products live here, inside the checkout and outside git.
BUILD_DIR = ".bench_build"


def build_native(root: str) -> dict:
    """Build ``repro._native._kernels`` in place unless it is current.

    Uses the repository's own build (``setup.py build_ext --inplace``)
    with intermediate files under :data:`BUILD_DIR`.  A failed build is
    recorded, not fatal: the package then runs on its NumPy paths, and
    the run record's ``native.ingest_path`` says so.
    """
    source = os.path.join(root, "src", "repro", "_native", "_kernels.c")
    native_dir = os.path.dirname(source)
    if not os.path.exists(source):
        return {"built": False, "reason": "no native source"}
    built = [
        os.path.join(native_dir, name) for name in os.listdir(native_dir)
        if name.startswith("_kernels.") and name.endswith(".so")
    ]
    if built and min(os.path.getmtime(p) for p in built) >= os.path.getmtime(source):
        return {"built": False, "reason": "up to date"}
    started = time.perf_counter()
    build_dir = os.path.join(root, BUILD_DIR, "native")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", os.path.join(build_dir, "temp"),
         "--build-lib", os.path.join(build_dir, "lib")],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False,
    )
    return {
        "built": proc.returncode == 0,
        "returncode": proc.returncode,
        "seconds": time.perf_counter() - started,
        "log_tail": proc.stdout.decode("utf-8", "replace")[-2000:],
    }


def source_digest(root: str) -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), sorted.

    A checkout without ``.git`` still gets a fingerprint of the exact
    program it measured.
    """
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_state(root: str) -> dict:
    """``{"hash", "dirty"}`` when ``root`` is a git work tree, else nulls."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"hash": None, "dirty": None}
    return {"hash": head, "dirty": dirty}


def host_fingerprint() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
