"""The rules by which every public entry reads an id, an integer, a real
number, a pair of real numbers or a pair's embedded weights; a refusal is a
ValueError naming the argument and the value."""

import math
import numbers

__all__ = ["read_id", "integer", "real", "pair", "embedded_pair"]


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


def real(name: str, value, *, above=None, least=None, inf: bool = False) -> float:
    """value as a float; ValueError unless it is a real number (not a bool),
    finite as a float (with inf=True +inf passes, and NaN and -inf fail the
    bound; an integer too large for a float fails), > above and >= least
    where given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got a number too large for a float") from None
    if not (inf or math.isfinite(x)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if above is not None and not x > above or least is not None and not x >= least:
        bound = f"> {above}" if above is not None else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return x


def pair(name: str, value) -> tuple[float, float]:
    """The two ends of value, each read by ``real`` as name[0] and name[1];
    ValueError unless value unpacks into exactly two items."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}") from None
    return real(f"{name}[0]", lo), real(f"{name}[1]", hi)


def embedded_pair(tab):
    """tab itself; ValueError unless it carries embedded weights."""
    if tab.b_tilde is None:
        raise ValueError(f"method {tab.id!r} has no embedded weights")
    return tab
