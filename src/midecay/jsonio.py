"""The JSON format of every output, driven by the dataclass fields, and the
atomic write that every output file goes through."""

import contextlib
import dataclasses
import json
import math
import os
import types
import typing
from enum import Enum


def to_dict(obj):
    """A dataclass as JSON data: fields by name, enums by value, tuples as lists."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_dict(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def from_dict(cls, d):
    """An instance of dataclass cls from decoded JSON, every field type-checked.

    An absent key takes the field default; an absent key without a default,
    a value that does not match the field's annotation (a bool is not an int)
    or a document that is not an object raises TypeError. Unknown keys are
    ignored. A dataclass's own checks still run and raise ValueError.
    """
    return _check(cls, d, cls.__name__)


def _check(tp, v, where: str):
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin is types.UnionType:  # only `X | None` is used
        return None if v is None else _check(args[0], v, where)
    if dataclasses.is_dataclass(tp):
        _expect(isinstance(v, dict), where, "an object", v)
        kwargs = {}
        for f in dataclasses.fields(tp):
            if f.name in v:
                kwargs[f.name] = _check(f.type, v[f.name], f"{where}.{f.name}")
            elif f.default is f.default_factory is dataclasses.MISSING:
                raise TypeError(f"{where}: missing key {f.name!r}")
        return tp(**kwargs)
    if origin in (tuple, list):
        _expect(isinstance(v, list), where, "an array", v)
        if origin is tuple and args[-1] is not Ellipsis:
            _expect(len(v) == len(args), where, f"{len(args)} items", v)
        else:
            args = args[:1] * len(v)
        items = [_check(a, x, f"{where}[{i}]") for i, (a, x) in enumerate(zip(args, v))]
        return tuple(items) if origin is tuple else items
    if isinstance(tp, type) and issubclass(tp, Enum):
        _expect(isinstance(v, str), where, "a string", v)
        return tp(v)
    kinds = (int, float) if tp is float else tp
    _expect(isinstance(v, kinds) and (tp is bool or not isinstance(v, bool)), where, tp.__name__, v)
    return v


def _expect(ok: bool, where: str, what: str, v) -> None:
    if not ok:
        raise TypeError(f"{where}: expected {what}, got {v!r:.40}")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """A file object beside path that replaces path only once the block ends
    without an exception; otherwise path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # the open or the replace failed: name the path asked for, not tmp
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_json(payload, path) -> None:
    """Sorted keys, indent 2, trailing newline; NaN and infinity are refused."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with atomic_open(path, encoding="utf-8") as f:
        f.write(text)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path, decode, error):
    """decode(document) of the JSON file at path; a malformed file or a
    document decode rejects raises error, the caller's domain error."""
    with open(path, "rb") as f:
        try:
            doc = json.loads(f.read(), parse_float=_finite, parse_constant=_finite)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, non-finite, deep nesting
            raise error(f"{path}: invalid JSON: {exc}") from exc
    try:
        return decode(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: invalid document: {exc}") from exc
