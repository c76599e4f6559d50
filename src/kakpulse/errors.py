"""Exception types shared across the package, the readers of JSON
fields that raise them, and the spelling of a number in JSON text."""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections.abc import Iterator


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class DimensionError(ValidationError):
    """An operand has the wrong shape, or a dimension is not a power of two."""


class RangeError(ValidationError):
    """A numeric argument lies outside its documented range."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract.

    Carries the offending residual and, for recursive factorizations, the
    path of the sub-problem where the failure occurred so that a failure
    deep inside a nested call is attributable; ``message`` is the text
    without either, from which a copy on a longer path is written.
    """

    def __init__(self, message: str, *, residual: float | None = None,
                 path: tuple[str, ...] = ()):
        self.message = message
        self.residual = residual
        self.path = path
        if path:
            message = f"{message} [at {' / '.join(path)}]"
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


def _on_path(exc: NumericError, path: tuple[str, ...]) -> NumericError:
    """A copy of ``exc`` with ``path`` prepended to its own."""
    return NumericError(exc.message, residual=exc.residual,
                        path=(*path, *exc.path))


def _json_int(value, what: str) -> int:
    """``value`` as an ``int`` when it is an integer: ``2.0`` is one, and
    so is a NumPy integer or an integral NumPy float in a row, but a
    bool, a string or ``2.9`` is a :class:`ValidationError`, where
    ``int()`` would read ``true`` as 1 and truncate ``2.9`` to 2."""
    if type(value) is int:
        return value
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral)
                 or float(value).is_integer())):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _json_float(value, what: str) -> float:
    """``value`` as a ``float`` when it is a JSON number; a bool or a
    string is a :class:`ValidationError`, where ``float()`` would read
    ``true`` as 1.0 and ``"0.5"`` as 0.5; an integer past the largest
    float is a :class:`RangeError`.  Hot readers test ``type(value) is
    float`` inline and call this for anything else."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise RangeError(f"{what} must be finite, got an integer of "
                             f"{value.bit_length()} bits") from None
    raise ValidationError(f"{what} must be a number, got {value!r}")


def _json_real(value, what: str):
    """``value`` when it is a real number: a ``float`` as given, an
    integer as an ``int`` when a float holds it exactly and else as the
    float its text reads back as, and any other (NumPy's ``float32``,
    say) as the ``float`` it equals, so the writers can spell it and the
    readers read it back equal.  A bool or a string is a
    :class:`ValidationError`, as in a JSON item, and an integer past the
    largest float a :class:`RangeError`."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if isinstance(value, float):  # NumPy's float64 among them
        return value
    if isinstance(value, numbers.Integral):
        value = int(value)
        rounded = _json_float(value, what)
        return value if rounded == value else rounded
    return float(value)


def _json_finite(value, what: str, fault: str | None = None) -> float:
    """:func:`_json_real` of ``value`` as a ``float``, which must be
    finite, as a tree node holds an angle, a phase or a coefficient; one
    that is not is a :class:`ValidationError` whose message is ``fault``
    when it is given."""
    if type(value) is float and value - value == 0.0:
        return value
    value = float(_json_real(value, what))
    if not math.isfinite(value):
        raise ValidationError(fault or f"{what} must be finite, got {value}")
    return value


def _json_array(value, what: str) -> list:
    """``value`` when it is a JSON array; a string would otherwise be
    read letter by letter as one."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON array, got {value!r}")
    return value


def _json_number(value) -> str:
    """``json.dumps(value)`` for a number, without its call for a finite
    ``float``, which json spells ``float.__repr__(value)``.  An ``int``,
    NumPy's ``float64`` (whose own ``repr`` reads ``np.float64(...)``),
    ``nan`` and ``inf`` go through ``json.dumps``."""
    if type(value) is float and value - value == 0.0:
        return float.__repr__(value)
    return json.dumps(value)


# Floats spelled by one ``repr`` at a time in :func:`_json_numbers`.
_SPELL_CHUNK = 4096


def _json_numbers(values: list) -> Iterator[str]:
    """:func:`_json_number` of each of ``values``, in order.  A chunk of
    finite floats, what the writers mostly see, spells each distinct
    value once, by one ``repr`` of the distinct values, whose C loop
    calls ``float.__repr__`` on each (a program repeats most of its
    angles and delays); only one chunk's spellings are held at a time."""
    return itertools.chain.from_iterable(
        _spell_chunk(values[lo:lo + _SPELL_CHUNK])
        for lo in range(0, len(values), _SPELL_CHUNK))


def _spell_chunk(values: list) -> list[str]:
    if set(map(type, values)) != {float} or not math.isfinite(sum(values)):
        return list(map(_json_number, values))
    distinct = list(dict.fromkeys(values))
    spelling = dict(zip(distinct, repr(distinct)[1:-1].split(", ")))
    out = list(map(spelling.__getitem__, values))
    if 0.0 in spelling:
        # -0.0 == 0.0, so the two zeros share a key: spell each zero itself
        i = -1
        for _ in range(values.count(0.0)):
            i = values.index(0.0, i + 1)
            out[i] = float.__repr__(values[i])
    return out
