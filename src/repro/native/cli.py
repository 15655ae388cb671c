"""``repro kernels`` — diagnostics for the native kernel tier.

Reports, per dispatched kernel, the tier it would run on right now,
plus the global picture: the requested ``REPRO_KERNEL_TIER``, whether
the compiled extension loaded (and from where), whether a C compiler is
on PATH, and the first-use build cache location.  ``--json`` emits the
same facts machine-readably; ``--require TIER`` turns the report into a
gate (exit 1 unless every kernel resolves to TIER) for CI jobs that
must not silently fall back.  Only ``correlated_flip_grid`` has a native
implementation; the others (``(no native impl)`` in the report) have
nothing to fall back from, so ``--require native`` passes over them.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.native import dispatch, loader


def load_all_kernels() -> None:
    """Import every module that registers dispatched kernels."""
    import repro.baselines.majority  # noqa: F401
    import repro.baselines.smoothing  # noqa: F401
    import repro.core.algo_otis  # noqa: F401
    import repro.core.bitops  # noqa: F401
    import repro.core.voter  # noqa: F401
    import repro.faults.correlated  # noqa: F401
    import repro.ngst.rice  # noqa: F401


def status() -> dict:
    """The full diagnostic picture as one JSON-ready dict."""
    load_all_kernels()
    registry = dispatch.kernels()
    return {
        "requested_tier": dispatch.configured_tier(),
        "effective_tier": dispatch.get_kernel_tier(),
        "native_available": loader.available(),
        "native_origin": loader.origin(),
        "native_unavailable_reason": loader.unavailable_reason(),
        "compiler_available": loader.compiler_available(),
        "build_cache": str(loader.cache_root()),
        "kernels": {
            name: {
                "tier": dispatch.resolve(name),
                "has_native_impl": registry[name].native_impl is not None,
            }
            for name in sorted(registry)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro kernels",
        description="Show which tier (native / numpy / reference) each "
        "dispatched kernel resolves to, and why.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--require",
        metavar="TIER",
        choices=("native",) + dispatch.TIERS,
        help="exit 1 unless every kernel resolves to TIER (CI gate; "
        "native skips kernels with no native impl)",
    )
    args = parser.parse_args(argv)

    info = status()
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"requested tier     : {info['requested_tier']}")
        print(f"effective tier     : {info['effective_tier']}")
        print(f"native extension   : {'loaded' if info['native_available'] else 'unavailable'}")
        if info["native_origin"]:
            print(f"  origin           : {info['native_origin']}")
        if info["native_unavailable_reason"]:
            print(f"  reason           : {info['native_unavailable_reason']}")
        print(f"compiler on PATH   : {'yes' if info['compiler_available'] else 'no'}")
        print(f"build cache        : {info['build_cache']}")
        print()
        width = max(len(name) for name in info["kernels"])
        for name, entry in info["kernels"].items():
            note = "" if entry["has_native_impl"] else "  (no native impl)"
            print(f"  {name:<{width}}  ->  {entry['tier']}{note}")

    if args.require:
        offenders = [
            name
            for name, entry in info["kernels"].items()
            if entry["tier"] != args.require
            and (args.require != "native" or entry["has_native_impl"])
        ]
        if offenders:
            print(
                f"--require {args.require} failed for: {', '.join(offenders)}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
