"""Exception hierarchy for the Corra reproduction library.

All library-specific errors derive from :class:`CorraError` so that callers
can catch a single base class.  More specific subclasses signal configuration
problems (:class:`EncodingError`, :class:`SchemaError`), data problems
(:class:`ValidationError`), and lookup failures (:class:`UnknownColumnError`,
:class:`UnknownEncodingError`).
"""

from __future__ import annotations


class CorraError(Exception):
    """Base class for all errors raised by the library."""


class EncodingError(CorraError):
    """An encoding could not be applied or decoded.

    Raised, for example, when a diff-encoding is asked to encode columns of
    unequal length, when a bit width is out of the supported range, or when
    a compressed payload is corrupted.
    """


class DecodingError(EncodingError):
    """A compressed payload could not be decoded back into values."""


class SchemaError(CorraError):
    """A table or block violates its declared schema."""


class UnknownColumnError(SchemaError, KeyError):
    """A referenced column name does not exist in the schema or table."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        message = f"unknown column {name!r}"
        if self.available:
            message += f"; available columns: {', '.join(self.available)}"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would otherwise repr() the args
        return self.args[0]


class UnknownEncodingError(EncodingError, KeyError):
    """A referenced encoding name is not registered."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        message = f"unknown encoding {name!r}"
        if self.available:
            message += f"; available encodings: {', '.join(self.available)}"
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0]


class ValidationError(CorraError, ValueError):
    """Input data failed validation (wrong dtype, negative sizes, ...)."""


class ConfigurationError(CorraError, ValueError):
    """A component was configured with inconsistent or unsupported options."""


class SerializationError(CorraError):
    """A block or column could not be serialised or deserialised."""


def expect(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValidationError(message)
