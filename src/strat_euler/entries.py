"""The names of the shipped census files, and the ``catalog`` subcommand.

``catalog list`` compiles no census layer: :func:`cmd_catalog` imports
``catalog_run`` for ``catalog run`` only.
"""

from __future__ import annotations

import sys

from .documents import _fixture_dir
from .errors import CensusError


def list_entries() -> list[str]:
    """Names of the shipped censuses, sorted."""
    return sorted(
        p.name[: -len(".json")]
        for p in _fixture_dir().iterdir()
        if p.name.endswith(".json")
    )


def cmd_catalog(args) -> int:
    """The ``catalog`` subcommand: list the shipped censuses, or re-verify
    them (``catalog_run``)."""
    if args.action == "run":
        from .catalog_run import run_catalog

        return run_catalog(args.names)
    if args.names:
        raise CensusError("catalog list takes no entry names")
    sys.stdout.write("".join(f"{name}\n" for name in list_entries()))
    return 0
