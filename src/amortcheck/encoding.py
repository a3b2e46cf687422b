"""Deterministic, injective serialization of plain state data.

Every carrier in this package is built from ints, strings, exact rationals
and nested tuples. One shared codec keeps distribution canonicalization and
counterexample reporting consistent: equal values get equal encodings, and
`decode` inverts `encode` on that value universe. `state_key` gives state
deduplication the same identity without building the text.

Objects outside the plain universe may participate by exposing
``__encode_parts__() -> tuple`` (encodable one-way; used for outcome
canonicalization, never round-tripped).
"""

from fractions import Fraction
from typing import Any

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"'}

# Marks keys built from an encoding; no plain value is or contains it.
_TAG = object()


def encode(value: Any) -> str:
    """Serialize a value deterministically. Injective on the plain universe."""
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, Fraction):
        return f"q{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        body = "".join(_STR_ESCAPES.get(ch, ch) for ch in value)
        return f's"{body}"'
    if isinstance(value, tuple):
        return "t(" + ",".join(encode(v) for v in value) + ")"
    parts = getattr(value, "__encode_parts__", None)
    if parts is not None:
        return encode(parts())
    raise TypeError(f"cannot encode value of type {type(value).__name__}")


def state_key(value: Any) -> Any:
    """A hashable key that is equal for two values exactly when `encode` is.

    Exact strs and ints are their own keys, and a tuple whose elements are
    all their own keys is its own key too, so most states need no copy.
    Anything else (None, bools, rationals, ``__encode_parts__`` objects) is
    keyed by its tagged encoding, which keeps ``1``, ``True`` and
    ``Fraction(1)`` apart although they hash and compare equal.
    """
    cls = type(value)
    if cls is str or cls is int:
        return value
    if cls is tuple:
        keys = None  # a copy, made at the first element that is not its own key
        for n, v in enumerate(value):
            t = type(v)
            if t is str or t is int:
                continue
            k = state_key(v)
            if k is not v:
                if keys is None:
                    keys = list(value)
                keys[n] = k
        return value if keys is None else tuple(keys)
    return (_TAG, encode(value))


def decode(text: str) -> Any:
    """Inverse of `encode` for plain data (no ``__encode_parts__`` objects)."""
    try:
        value, rest = _decode_at(text, 0)
    except IndexError:
        raise ValueError(f"truncated encoding: {text!r}") from None
    if rest != len(text):
        raise ValueError(f"trailing characters in encoding: {text[rest:]!r}")
    return value


def _decode_at(text: str, i: int):
    if i >= len(text):
        raise ValueError("truncated encoding")
    tag = text[i]
    if tag == "n":
        return None, i + 1
    if tag == "b":
        return text[i + 1] == "1", i + 2
    if tag == "i":
        j = _scan_number(text, i + 1)
        return int(text[i + 1:j]), j
    if tag == "q":
        j = _scan_number(text, i + 1)
        if text[j] != "/":
            raise ValueError("malformed rational encoding")
        k = _scan_number(text, j + 1)
        return Fraction(int(text[i + 1:j]), int(text[j + 1:k])), k
    if tag == "s":
        return _decode_str(text, i + 1)
    if tag == "t":
        if text[i + 1] != "(":
            raise ValueError("malformed tuple encoding")
        items = []
        j = i + 2
        if text[j] == ")":
            return (), j + 1
        while True:
            value, j = _decode_at(text, j)
            items.append(value)
            if text[j] == ",":
                j += 1
                continue
            if text[j] == ")":
                return tuple(items), j + 1
            raise ValueError("malformed tuple encoding")
    raise ValueError(f"unknown encoding tag {tag!r}")


def _scan_number(text: str, i: int) -> int:
    j = i
    if j < len(text) and text[j] == "-":
        j += 1
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i or text[i:j] == "-":
        raise ValueError("malformed integer encoding")
    return j


def _decode_str(text: str, i: int):
    if text[i] != '"':
        raise ValueError("malformed string encoding")
    out = []
    j = i + 1
    while j < len(text):
        ch = text[j]
        if ch == "\\":
            out.append(text[j + 1])
            j += 2
            continue
        if ch == '"':
            return "".join(out), j + 1
        out.append(ch)
        j += 1
    raise ValueError("unterminated string encoding")
