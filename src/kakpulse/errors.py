"""Exception types shared across the package, and the readers of JSON
fields that raise them."""

from __future__ import annotations


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
    deep inside a nested call is attributable.
    """

    def __init__(self, message: str, *, residual: float | None = None,
                 path: tuple[str, ...] = ()):
        self.residual = residual
        self.path = path
        if path:
            message = f"{message} [at {' / '.join(path)}]"
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)

    def with_path(self, step: str) -> "NumericError":
        """Return a copy of this error with ``step`` prepended to its path."""
        base = str(self.args[0]).split(" [at ")[0].split(" (residual")[0]
        return NumericError(base, residual=self.residual,
                            path=(step, *self.path))


def _json_int(value, what: str) -> int:
    """``value`` as an ``int`` when it is a JSON integer; ``2.0`` is one,
    but a bool, a string or ``2.9`` is a :class:`ValidationError`, where
    ``int()`` would read ``true`` as 1 and truncate ``2.9`` to 2."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _json_array(value, what: str) -> list:
    """``value`` when it is a JSON array; a string would otherwise be
    read letter by letter as one."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON array, got {value!r}")
    return value
