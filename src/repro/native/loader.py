"""Locate, build and load the native kernel extension — never fatally.

Resolution order:

1. A prebuilt ``repro.native._repro_native`` extension (produced by
   ``pip install .`` with cffi + a compiler, or ``make native``).
2. A first-use cffi compile into a content-addressed cache directory
   (``REPRO_NATIVE_CACHE``, default ``~/.cache/repro-native``): the C
   source, cdef and interpreter tag are hashed, so a cache hit loads in
   milliseconds and any source change triggers exactly one rebuild.
3. Graceful failure: the reason is recorded for ``repro kernels`` and
   every kernel silently resolves to the NumPy tier.

Everything here is wrapped so that a missing cffi, a missing compiler,
a read-only filesystem or a failed build can never break an import or a
kernel call — pure-NumPy environments remain fully functional.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

#: Module-level singleton state; guarded by :data:`_LOCK` so concurrent
#: first calls (serve worker threads) trigger at most one build attempt.
_LOCK = threading.Lock()
_ATTEMPTED = False
_LIB = None
_FFI = None
_ERROR: str | None = None
_ORIGIN: str | None = None


def _source_fingerprint() -> str:
    """Hash of everything that determines the compiled artifact."""
    here = Path(__file__).parent
    h = hashlib.sha256()
    for name in ("repro_kernels.c", "repro_kernels.h", "_build.py"):
        h.update(name.encode())
        h.update((here / name).read_bytes())
    h.update(sys.implementation.cache_tag.encode())
    h.update((sysconfig.get_platform() or "").encode())
    return h.hexdigest()[:16]


def cache_root() -> Path:
    """Directory holding first-use builds (override: REPRO_NATIVE_CACHE)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-native"


def compiler_available() -> bool:
    """Best-effort probe for a usable C compiler on PATH."""
    if os.name == "nt":
        candidates = ("cl", "gcc", "clang")
    else:
        cc = (sysconfig.get_config_var("CC") or "").split()
        candidates = tuple(cc[:1]) + ("cc", "gcc", "clang")
    return any(shutil.which(c) for c in candidates if c)


def _find_built(module_dir: Path) -> Path | None:
    if not module_dir.is_dir():
        return None
    for candidate in sorted(module_dir.glob("_repro_native*")):
        if candidate.suffix in (".so", ".pyd") or ".so." in candidate.name:
            return candidate
    return None


def _load_extension(path: Path):
    spec = importlib.util.spec_from_file_location(
        "repro.native._repro_native", str(path)
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load extension from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro.native._repro_native"] = module
    return module


def _jit_build() -> tuple[object, str]:
    """Compile (or reuse) the cached first-use build; returns (module, origin)."""
    from repro.native._build import ffibuilder  # imports cffi

    fingerprint = _source_fingerprint()
    final_dir = cache_root() / fingerprint / "repro" / "native"
    built = _find_built(final_dir)
    if built is None:
        if not compiler_available():
            raise RuntimeError("no C compiler found on PATH")
        staging = Path(
            tempfile.mkdtemp(prefix=f"build-{fingerprint}-", dir=_ensure_root())
        )
        try:
            ffibuilder.compile(tmpdir=str(staging), verbose=False)
            built_staging = _find_built(staging / "repro" / "native")
            if built_staging is None:
                raise RuntimeError("cffi compile produced no extension module")
            final_dir.mkdir(parents=True, exist_ok=True)
            target = final_dir / built_staging.name
            # Atomic publication: a concurrent process either sees the
            # finished module or builds its own staging copy.
            os.replace(built_staging, target)
            built = target
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return _load_extension(built), f"first-use build cache ({built})"


def _ensure_root() -> Path:
    root = cache_root()
    root.mkdir(parents=True, exist_ok=True)
    return root


def load():
    """Return ``(ffi, lib)`` for the native extension, or ``None``.

    The first call may compile the extension; subsequent calls are a
    cached attribute read whatever the outcome.
    """
    global _ATTEMPTED, _LIB, _FFI, _ERROR, _ORIGIN
    if _ATTEMPTED:
        return (_FFI, _LIB) if _LIB is not None else None
    with _LOCK:
        if _ATTEMPTED:
            return (_FFI, _LIB) if _LIB is not None else None
        module = None
        try:
            from repro.native import _repro_native as module  # type: ignore

            _ORIGIN = f"prebuilt extension ({module.__file__})"
        except ImportError:
            try:
                module, _ORIGIN = _jit_build()
            except Exception as exc:  # missing cffi/compiler, bad cache, ...
                _ERROR = f"{type(exc).__name__}: {exc}"
                _ORIGIN = None
        if module is not None:
            _FFI = module.ffi
            _LIB = module.lib
        _ATTEMPTED = True
    return (_FFI, _LIB) if _LIB is not None else None


def available() -> bool:
    """True when the native extension is importable (building if needed)."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why the native tier is missing (None when it loaded fine)."""
    load()
    return _ERROR


def origin() -> str | None:
    """Where the loaded extension came from (prebuilt vs build cache)."""
    load()
    return _ORIGIN


def reset_for_tests() -> None:
    """Forget the cached load outcome (test hook only)."""
    global _ATTEMPTED, _LIB, _FFI, _ERROR, _ORIGIN
    with _LOCK:
        _ATTEMPTED = False
        _LIB = None
        _FFI = None
        _ERROR = None
        _ORIGIN = None
