"""The two-pass JSON report: the oracle for ``elliptica.cli._json``.

``jsonable`` copies a report into plain JSON values: lists and tuples
(namedtuples too) become lists, a dict (a defaultdict too) becomes a dict
with ``str()``'d keys, where the last of two colliding keys wins, a record
(dataclass) becomes the dict of its fields, bools, ints (an IntEnum too),
strings and None stay, and any other value becomes its ``str()``.
``json.dumps(jsonable(v), indent=2, sort_keys=True)`` is then the text
that the one-pass writer must equal, byte for byte.
"""
from dataclasses import is_dataclass


def jsonable(v):
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if is_dataclass(v):         # a record: the dict of its fields
        return jsonable(vars(v))
    return str(v)
