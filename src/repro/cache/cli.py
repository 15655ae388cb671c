"""The ``repro cache`` subcommand: inspect or clear the on-disk tier.

Usage (via the main entry point)::

    repro cache stats [--cache-dir DIR] [--json]
    repro cache clear [--cache-dir DIR]

``stats`` reports the disk tier's ``.art`` entry count and byte usage
(the in-memory LRU tier is per-process and therefore always empty from
a fresh CLI invocation) plus a per-DAG-node-kind breakdown read from
the ``node_kind`` stamp in each entry's header; ``clear`` deletes every
entry, stale temp files, and the ``<key>.npz``/``<key>.json`` pairs of
the store's earlier layout, and no other file.  Both default to the same directory the
experiment commands use for ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cache.store import ArtifactCache

#: Default on-disk cache location, shared with the experiment commands.
DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro cache``."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the on-disk artifact cache tier.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help="on-disk cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="('stats' only) emit the snapshot as JSON on stdout",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro cache``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    directory = Path(args.cache_dir)
    if args.action == "clear" and not directory.exists():
        print(f"cache directory {directory} does not exist", file=sys.stderr)
        return 2
    cache = ArtifactCache(max_memory_bytes=0, directory=directory)
    stats = cache.stats()
    if args.action == "clear":
        cache.clear()
        print(f"cleared {stats.n_disk_entries} "
              f"entr{'y' if stats.n_disk_entries == 1 else 'ies'} "
              f"({stats.disk_bytes} bytes) from {directory}")
        return 0
    kinds = cache.disk_kind_breakdown()
    if args.json:
        snapshot = {
            "directory": str(directory),
            "n_disk_entries": stats.n_disk_entries,
            "disk_bytes": stats.disk_bytes,
            "kinds": kinds,
        }
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"cache directory: {directory}")
    print(f"disk entries:    {stats.n_disk_entries}")
    print(f"disk bytes:      {stats.disk_bytes}")
    if kinds:
        print("by node kind:")
        width = max(len(kind) for kind in kinds)
        for kind, usage in kinds.items():
            print(
                f"  {kind:<{width}}  "
                f"{usage['entries']:>6} entr{'y' if usage['entries'] == 1 else 'ies'}  "
                f"{usage['bytes']:>12} bytes"
            )
    return 0
