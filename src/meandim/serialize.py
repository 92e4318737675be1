"""Exact-rational serialization and canonical JSON.

Rationals travel as "p/q" strings in every interchange format; floats are
rejected everywhere so certificate verification never depends on a floating
tolerance. Canonical JSON (sorted keys, fixed separators) makes identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import PreconditionError


def parse_fraction(text) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction. Floats and decimals are rejected."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise PreconditionError(f"cannot parse rational from {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise PreconditionError(f"not an exact rational: {text!r} (use p/q)")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not an exact rational: {text!r}") from exc


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_jsonable(obj):
    """Convert nested data to JSON-safe structures: Fractions to "p/q", tuples to lists."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise PreconditionError("floats are not allowed in artifacts")
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((to_jsonable(v) for v in obj), key=repr)
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))

