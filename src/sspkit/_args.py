"""The rules by which every public entry reads an id or an integer; a
refusal is a ValueError naming the argument and the value."""

import numbers

__all__ = ["read_id", "integer"]


def read_id(what: str, value) -> str:
    """An id: a string, read stripped and lower-cased."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value.strip().lower()


def integer(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int; ValueError unless it is an integer (not a bool, nor a
    float, which would size an array by its truncation) in least..most."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least or most is not None and value > most:
        bound = f"at least {least}" if most is None else f"between {least} and {most}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)
