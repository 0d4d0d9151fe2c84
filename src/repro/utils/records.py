"""JSON forms of record dataclasses, read from their field annotations.

A record's annotations are its JSON schema: ``str``, ``int``, ``float``,
``bool``, ``object`` (any value), ``Literal``, ``Optional[X]``,
``Tuple[X, ...]``, ``Tuple[X, Y]``, ``List[X]``, ``Dict[str, X]`` or
another record.  :func:`from_json` checks no types (an integer in a
``float`` field becomes a float, an array becomes a tuple where the
field is one); run :func:`json_problems` first on anything read from
outside.  Each annotation compiles once into its checker and converter.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, partial
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Literal,
    Mapping,
    NamedTuple,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.registry import _did_you_mean

__all__ = ["field_types", "from_json", "json_problems", "to_json"]


class _Type(NamedTuple):
    """One annotation, compiled: the JSON shape it names in problems, a
    shape test, a check of an accepted value's parts, and the
    conversion from JSON."""

    expected: str
    accepts: Callable[[Any], bool]
    parts: Callable[[Any, str, List[str]], object] = lambda v, w, p: None
    convert: Callable[[Any], Any] = lambda v: v


def _is_number(value: Any) -> bool:
    # bool subclasses int: true/false never pass as a count or a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: annotations without parameters; ``list`` and ``dict`` also start the
#: compiled form of ``List``/``Tuple`` and ``Dict``/record annotations
_PLAIN: Dict[Any, _Type] = {
    str: _Type("string", lambda v: isinstance(v, str)),
    bool: _Type("boolean", lambda v: isinstance(v, bool)),
    int: _Type("integer", lambda v: _is_number(v) and isinstance(v, int)),
    float: _Type("number", _is_number, convert=float),
    list: _Type("array", lambda v: isinstance(v, (list, tuple))),
    dict: _Type("object", lambda v: isinstance(v, dict)),
    object: _Type("any value", lambda v: True),
}
_ARRAY, _OBJECT = _PLAIN[list], _PLAIN[dict]


def _check(kind: _Type, value: Any, where: str, problems: List[str]) -> None:
    if kind.accepts(value):
        if value is not None:
            kind.parts(value, where, problems)
        return
    got = "null" if value is None else repr(value)
    if value is not None and not isinstance(value, str):
        plain = _PLAIN.get(type(value))
        got = f"{plain.expected if plain else type(value).__name__} ({got})"
    problems.append(f"{where}: expected {kind.expected}, got {got}")


@lru_cache(maxsize=None)
def field_types(cls: Any) -> Mapping[str, Any]:
    """The record class's field annotations, resolved once per class."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return MappingProxyType({f.name: hints[f.name] for f in fields})


@lru_cache(maxsize=None)
def _schema(cls: Any) -> Tuple[Dict[str, _Type], Tuple[str, ...]]:
    """(compiled field types, required field names) of a record class."""
    missing = dataclasses.MISSING
    required = tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.default is missing and f.default_factory is missing
    )
    types = {name: _compile(hint) for name, hint in field_types(cls).items()}
    return types, required


def _record_parts(
    cls: Any, value: Dict[str, Any], where: str, problems: List[str]
) -> None:
    types, required = _schema(cls)
    prefix = f"{where}." if where else ""
    for name, entry in value.items():
        if name in types:
            _check(types[name], entry, prefix + name, problems)
        else:
            hint = _did_you_mean(name, types)
            problems.append(f"{prefix}{name}: unknown field{hint}")
    for name in required:
        if name not in value:
            problems.append(f"{prefix}{name}: required field is missing")


def _entries(
    kind_of: Callable[[Any], _Type], keyed: bool = False
) -> Callable[[Any, str, List[str]], None]:
    """The parts check of a container whose entry ``k`` is ``kind_of(k)``
    (``keyed``: an object's values, else an array's items)."""

    def parts(value: Any, where: str, problems: List[str]) -> None:
        for key, entry in value.items() if keyed else enumerate(value):
            path = f"{where}.{key}" if keyed else f"{where}[{key}]"
            _check(kind_of(key), entry, path, problems)

    return parts


@lru_cache(maxsize=None)
def _compile(hint: Any) -> _Type:
    if dataclasses.is_dataclass(hint):
        parts = partial(_record_parts, hint)
        return _OBJECT._replace(parts=parts, convert=partial(from_json, hint))
    if hint in _PLAIN:
        return _PLAIN[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return _Type(
            " or ".join(map(repr, args)),
            lambda v: any(type(v) is type(a) and v == a for a in args),
        )
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _compile(args[0] if args[1] is type(None) else args[1])
        return _Type(
            f"{inner.expected} or null",
            lambda v: v is None or inner.accepts(v),
            inner.parts,
            lambda v: None if v is None else inner.convert(v),
        )
    if origin is dict:
        entry = _compile(args[1])
        return _OBJECT._replace(
            parts=_entries(lambda key: entry, keyed=True),
            convert=lambda v: {k: entry.convert(e) for k, e in v.items()},
        )
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        item = _compile(args[0])
        container = list if origin is list else tuple
        return _ARRAY._replace(
            parts=_entries(lambda index: item),
            convert=lambda v: container(map(item.convert, v)),
        )
    if origin is tuple:
        items = [_compile(arg) for arg in args]
        return _Type(
            f"{len(items)}-item array",
            lambda v: _ARRAY.accepts(v) and len(v) == len(items),
            _entries(lambda index: items[index]),
            lambda v: tuple(kind.convert(e) for kind, e in zip(items, v)),
        )
    raise TypeError(f"no JSON form for annotation {hint!r}")


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    return value


def to_json(record: Any) -> Dict[str, Any]:
    """The record as JSON-native data: fields in declaration order,
    tuples as arrays, nested records as objects."""
    fields = dataclasses.fields(record)
    return {f.name: _jsonable(getattr(record, f.name)) for f in fields}


def from_json(cls: Any, payload: Mapping[str, Any]) -> Any:
    """Build a ``cls`` record from its JSON form.  An unknown field
    raises :class:`ValueError` with a did-you-mean hint, a missing
    required one the constructor's :class:`TypeError`."""
    types, _ = _schema(cls)
    for name in payload:
        if name not in types:
            hint = _did_you_mean(name, types)
            raise ValueError(f"{cls.__name__}.{name}: unknown field{hint}")
    return cls(**{name: types[name].convert(v) for name, v in payload.items()})


def json_problems(hint: Any, value: Any, where: str) -> List[str]:
    """Every way ``value`` fails to be the JSON form of ``hint`` (a
    record class or any annotation a record field may carry), one
    message per problem, each prefixed with its path under ``where``."""
    problems: List[str] = []
    _check(_compile(hint), value, where, problems)
    return problems
