"""Every module in ``src/repro`` is reached by a panel, a claim, a
service or an oracle.

The walk is static: it parses each module with :mod:`ast` and follows
its ``repro.*`` imports, function-level lazy imports included, from the
two entry points that reach every panel, claim and service —
``repro.cli`` (every subcommand) and ``repro.serve.client``.  A name
imported from a package is resolved through the package's
``__init__`` re-exports to the module that defines it, so importing
``psi`` from ``repro.metrics`` reaches ``repro.metrics.relative_error``
and nothing else that ``repro.metrics`` re-exports.

The modules the walk never reaches must be exactly :data:`UNREACHED`,
each with the reason it stays.  A new module that nothing reaches
fails this test instead of landing silently.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = ("repro.cli", "repro.serve.client")

UNREACHED = {
    "repro.metrics.confusion": (
        "oracle of tests/integration/test_paper_claims.py, exported as "
        "repro.bit_confusion"
    ),
    "repro.ngst.integrated": (
        "the §9 header-only overhead claim gated in "
        "benchmarks/test_bench_integrated.py"
    ),
    "repro.otis.alft": "pending the ALFT claim of ROADMAP item 9",
    "repro.otis.temperature": "pending the ALFT claim of ROADMAP item 9",
    "repro.otis.bounds": "pending the ALFT claim of ROADMAP item 9",
}


def _module_files() -> dict[str, Path]:
    """Dotted module name → source file, packages under their own name."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


def _imports(module: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every ``repro`` import in *module*;
    *name* is ``None`` for a plain ``import repro.x.y``."""
    tree = ast.parse(FILES[module].read_text(), filename=str(FILES[module]))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (a.name, None) for a in node.names if a.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module}: relative import"
            if (node.module or "").split(".")[0] == "repro":
                found += [(node.module, a.name) for a in node.names]
    return found


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """Exported name → ``(source module, source name)`` of a package."""
    tree = ast.parse(FILES[package].read_text())
    return {
        a.asname or a.name: (node.module, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def _resolve(module: str, name: str | None) -> str:
    """The module that defines *name* as seen from *module*."""
    if name is None:
        return module
    if f"{module}.{name}" in FILES:
        return f"{module}.{name}"
    source = _reexports(module).get(name) if module in PACKAGES else None
    return _resolve(*source) if source else module


def reached() -> set[str]:
    """Every module the walk from :data:`ROOTS` reaches."""
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        todo += [_resolve(*imp) for imp in _imports(module)]
    return seen


def test_every_module_but_the_allowlist_is_reached():
    never = {m for m in FILES if m not in PACKAGES} - reached()
    assert never == set(UNREACHED), (
        f"unreached but not allowlisted: {sorted(never - set(UNREACHED))}; "
        f"allowlisted but reached or gone: {sorted(set(UNREACHED) - never)}"
    )

