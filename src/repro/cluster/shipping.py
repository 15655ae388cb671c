"""Ship work by value: pickling that carries lambdas and closures.

Campaign shard functions are closures over experiment configuration —
arm lambdas, dataset builders, task-graph nodes — that the standard
library pickler refuses (it serialises functions by qualified-name
reference only).  Inside one box the process-pool backend dodges this
with fork inheritance; a TCP boundary has no such trick, so this
module extends pickle with **by-value function serialisation**:

* a function whose qualified name resolves back to itself through a
  normal import (module-level functions) still pickles *by reference*
  — the worker imports it, nothing is shipped;
* a lambda, closure, or otherwise unimportable function ships its code
  object (``marshal``), defaults, closure cells, and — when its home
  module is importable worker-side — rebinds to that module's globals
  on arrival.  Functions from unimportable modules (test files, REPL)
  instead carry the module-level values their code references, pickled
  recursively through the same machinery.

``marshal`` byte code is only stable within one interpreter version,
so the cluster handshake (:mod:`repro.cluster.protocol`) refuses
coordinator/worker pairs with mismatched ``major.minor`` Pythons
before any work ships.

Everything a shipped function references must still be picklable under
these rules; anything that is not (locks, sockets, open files) raises
the usual :class:`pickle.PicklingError`, which the cluster backend's
pre-flight check converts into a warn-once serial fallback — the same
degradation contract as the spawn-context process pool.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib
import io
import marshal
import pickle
import sys
import types



def _lookup_qualified(module: str, qualname: str):
    """Resolve ``module.qualname`` by import; None when unresolvable."""
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except Exception:
        return None
    return obj


def _is_importable(fn: types.FunctionType) -> bool:
    """Whether the default by-reference pickling would work for *fn*."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname:
        return False
    return _lookup_qualified(module, qualname) is fn


def _module_importable(name: str | None) -> bool:
    if not name or name == "__main__":
        return False
    try:
        importlib.import_module(name)
    except Exception:
        return False
    return True


def _referenced_globals(code: types.CodeType, fn_globals: dict) -> dict:
    """The module-level values *code* (and nested code) actually uses."""
    captured: dict = {}
    stack = [code]
    while stack:
        current = stack.pop()
        for name in current.co_names:
            if name in fn_globals and name not in captured:
                captured[name] = fn_globals[name]
        for const in current.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return captured


def _rebuild_skeleton(
    code_bytes: bytes,
    module: str,
    name: str,
    qualname: str,
    n_cells: int,
    importable: bool,
) -> types.FunctionType:
    """Worker-side phase 1: the function shell, cells still empty.

    The shell exists (and is memoised by the unpickler) before its
    state arrives, so self-referential closures — a recursive function
    whose cell holds the function itself — deserialise without
    recursing, mirroring how they were serialised.
    """
    code = marshal.loads(code_bytes)
    if importable:
        fn_globals = importlib.import_module(module).__dict__
    else:
        fn_globals = {"__builtins__": builtins, "__name__": module or "__shipped__"}
    closure = tuple(types.CellType() for _ in range(n_cells))
    fn = types.FunctionType(code, fn_globals, name, None, closure or None)
    fn.__qualname__ = qualname
    fn.__module__ = module
    return fn


def _apply_function_state(fn: types.FunctionType, state: tuple) -> None:
    """Worker-side phase 2: defaults, cell contents, captured globals."""
    defaults, kwdefaults, cells, captured = state
    fn.__defaults__ = defaults
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    for cell, (tag, value) in zip(fn.__closure__ or (), cells):
        if tag == "cell":  # "empty" cells stay empty (mid-definition)
            cell.cell_contents = value
    if captured is not None:
        for global_name, value in captured.items():
            fn.__globals__[global_name] = value


class ShipPickler(pickle.Pickler):
    """A pickler that serialises unimportable functions by value."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and not _is_importable(obj):
            module = getattr(obj, "__module__", None) or "__shipped__"
            importable = _module_importable(module)
            if importable:
                captured = None  # worker rebinds to the imported module
            else:
                captured = _referenced_globals(obj.__code__, obj.__globals__)
            cells = []
            for cell in obj.__closure__ or ():
                try:
                    cells.append(("cell", cell.cell_contents))
                except ValueError:  # empty cell (recursive definition)
                    cells.append(("empty", None))
            # Two-phase 6-tuple reduce: the skeleton is memoised before
            # its state pickles, so cycles through closure cells or
            # captured globals terminate.
            return (
                _rebuild_skeleton,
                (
                    marshal.dumps(obj.__code__),
                    module,
                    obj.__name__,
                    obj.__qualname__,
                    len(cells),
                    importable,
                ),
                (obj.__defaults__, obj.__kwdefaults__, tuple(cells), captured),
                None,
                None,
                _apply_function_state,
            )
        return NotImplemented


def dumps(obj: object) -> bytes:
    """Serialise *obj* for shipment, closures and lambdas included."""
    buffer = io.BytesIO()
    ShipPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def loads(blob: bytes) -> object:
    """Inverse of :func:`dumps` (plain pickle; reducers self-describe)."""
    return pickle.loads(blob)


def blob_id(blob: bytes) -> str:
    """Content address of a shipped blob (used to dedupe re-sends)."""
    return hashlib.sha256(blob).hexdigest()


def python_tag() -> str:
    """The interpreter compatibility tag exchanged in the handshake.

    ``marshal`` code objects only load under the same ``major.minor``
    interpreter, so that is exactly what the tag pins.
    """
    return f"cpython-{sys.version_info[0]}.{sys.version_info[1]}"
