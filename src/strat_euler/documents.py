"""JSON files: the one parser, and where the shipped census files are.

Every document is read as UTF-8, whatever the locale, and parsed by
:func:`parse_json`.  Nothing here imports a census layer, so ``fubini``
and ``catalog list`` compile none.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import SchemaError


def _refuse_constant(name: str):
    raise SchemaError("$", f"not valid JSON: {name} is not a JSON value")


def parse_json(text: str):
    """``json.loads``, with malformed text, too deeply nested text, the
    ``NaN``, ``Infinity`` and ``-Infinity`` json.loads reads although JSON
    has no such values, and an integer longer than Python reads
    (``sys.get_int_max_str_digits()``) each reported as a SchemaError at
    the document root."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("$", "not valid JSON: nested too deeply") from None
    except ValueError:
        # the one other refusal of json.loads: an over-long integer literal
        raise SchemaError(
            "$", f"an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def read_json(path):
    """The document in a UTF-8 file; a file that cannot be read or is not
    UTF-8 is a SchemaError at the document root naming ``path`` as given."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from exc
    return parse_json(text)


def _fixture_dir() -> Path:
    # the fixtures ship next to the modules (importlib.resources would load
    # inspect on Python 3.12+)
    return Path(__file__).with_name("fixtures")
