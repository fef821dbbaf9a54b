"""JSON files: the one parser, and the census files shipped with the package.

Every document is read as UTF-8, whatever the locale, and parsed by
:func:`parse_json`.  Nothing here imports a census layer, so ``fubini``
and ``catalog list`` compile none.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SchemaError


def parse_json(text: str):
    """``json.loads``, with malformed and too deeply nested text both
    reported as a SchemaError at the document root."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("$", "not valid JSON: nested too deeply") from None


def read_json(path):
    """The document in a UTF-8 file; a file that cannot be read is a
    SchemaError at the document root naming ``path`` as given."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from exc
    return parse_json(text)


def _fixture_dir() -> Path:
    # the fixtures ship next to the modules (importlib.resources would load
    # inspect on Python 3.12+)
    return Path(__file__).with_name("fixtures")


def list_entries() -> list[str]:
    """Names of the shipped censuses, sorted."""
    return sorted(
        p.name[: -len(".json")]
        for p in _fixture_dir().iterdir()
        if p.name.endswith(".json")
    )
