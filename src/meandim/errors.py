"""Exception hierarchy and value-class bases shared by all modules.

Exit-code mapping used by the CLI: PreconditionError -> 2,
ObligationFailedError -> 3, BudgetExceededError -> 4.

The package's value classes write their `__init__` out and take repr,
equality, hashing and immutability from the bases below, which behave as
the methods `@dataclass` generates. `@dataclass` builds each of those with
its own `exec()` at import, which every command would pay for; only the two
certificate classes that the benchmark's tracer copies with
`dataclasses.replace` stay dataclasses.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Struct:
    """repr as a dataclass writes it: `QualName(field=value!r, ...)` over the
    field names in `_fields`. Equality and hashing stay by identity."""

    _fields = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenStruct(Struct):
    """A Struct that refuses assignment and deletion, as a frozen dataclass
    does. Its `__init__` writes the fields into `__dict__`, which caches may
    also write to."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Value(FrozenStruct):
    """A FrozenStruct equal to an instance of its own class with equal
    fields, and hashed by its field tuple."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())


class MeanDimError(Exception):
    """Base class for all library errors."""


class PreconditionError(MeanDimError):
    """An operation was called outside its contract (bad input, unknown vertex, ...)."""


class InsufficientWindowError(PreconditionError):
    """Window data does not cover the range required by a metric computation."""

    def __init__(self, message: str, required: tuple[int, int]):
        super().__init__(f"{message}; required window [{required[0]}, {required[1]})")
        self.required = required


class ObligationFailedError(MeanDimError):
    """A certificate obligation failed; carries the failing record."""

    def __init__(self, record):
        super().__init__(f"obligation failed: {record.name}")
        self.record = record


class BudgetExceededError(MeanDimError):
    """An iteration cap or size budget was exceeded."""
