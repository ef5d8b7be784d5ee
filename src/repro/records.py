"""The one record checker for JSON documents.

A *layout* maps each field of a record to the JSON type it must hold,
named in :data:`TYPES` (``"int|null"`` admits null too, ``"[str]"`` is
a list of strings and ``"{int}"`` an object of integers).
:func:`check_record` checks one record against its layout and
:func:`check_records` a list of them; every miss is one readable
``"<path>: <message>"`` problem row, so a hand-edited document fails
with something actionable, never a ``KeyError`` three layers down.

Both document formats read through it: the model document
(:mod:`repro.model.schema`) and the component meta-model
(:mod:`repro.core.metamodel`).  It imports nothing, so a pipeline that
validates model documents loads neither the other format nor the
packages behind it.
"""

from __future__ import annotations


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_pair(value) -> bool:
    """A list of two strings (a connector endpoint, a declared write)."""
    return isinstance(value, list) and len(value) == 2 \
        and all(map(_is_str, value))


#: The JSON types a layout names.
TYPES = {
    "int": _is_int,
    "int|null": lambda v: v is None or _is_int(v),
    "number": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": _is_str,
    "str|null": lambda v: v is None or _is_str(v),
    "list": lambda v: isinstance(v, list),
    "[str]": lambda v: isinstance(v, list) and all(map(_is_str, v)),
    "[str, str]": _is_pair,
    "[[str, str]]": lambda v: isinstance(v, list) and all(map(_is_pair, v)),
    "object": lambda v: isinstance(v, dict),
    "object|null": lambda v: v is None or isinstance(v, dict),
    "{str}": lambda v: isinstance(v, dict) and all(map(_is_str,
                                                       v.values())),
    "{int}": lambda v: isinstance(v, dict) and all(map(_is_int,
                                                       v.values())),
}

#: JSON names of the Python types ``json`` decodes to.
_JSON_NAMES = {"NoneType": "null", "dict": "object", "float": "number"}


def check_record(path: str, data, layout: dict, problems: list[str]) -> bool:
    """True when ``data`` is an object carrying every field of
    ``layout`` with its JSON type; each miss is a problem row."""
    if not isinstance(data, dict):
        problems.append(f"{path}: expected an object")
        return False
    missing = [name for name in layout if name not in data]
    if missing:
        problems.append(f"{path}: missing field(s) {', '.join(missing)}")
        return False
    wrong = [name for name, kind in layout.items()
             if not TYPES[kind](data[name])]
    for name in wrong:
        got = type(data[name]).__name__
        problems.append(f"{path}.{name}: expected "
                        f"{layout[name].replace('|', ' or ')}, got "
                        f"{_JSON_NAMES.get(got, got)}")
    return not wrong


def check_records(path: str, items, layout: dict,
                  problems: list[str]) -> list[tuple[str, dict]]:
    """``(path, record)`` for every well-shaped record of list
    ``items``."""
    if not isinstance(items, list):
        problems.append(f"{path}: expected a list")
        return []
    return [(f"{path}[{i}]", item) for i, item in enumerate(items)
            if check_record(f"{path}[{i}]", item, layout, problems)]
