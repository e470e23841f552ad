"""Flat key-value experiment configuration.

One ``key = value`` per line; ``#`` starts a comment; blank lines are
ignored. Values stay as their stripped text. Keys are dotted paths
(``plant.inertia``, ``hyper.gamma``) consumed by the harness; CLI
``--set key=value`` pairs win over the file, and the config flags
(``--seed`` and the like) win over both. File lines and pairs go through
one splitter, :func:`split_pair`. :func:`coerce` then types each value
once, by the dataclass field it sets, whether it came from a file, a
pair, a flag or code.
"""

import math


def split_pair(text: str, where: str) -> tuple:
    """The stripped ``(key, value)`` of ``key = value`` text; errors name ``where``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ValueError("%s is not key = value" % where)
    key = key.strip()
    if not key:
        raise ValueError("%s has an empty key" % where)
    return key, value.strip()


def parse_config_text(text: str, source="config") -> dict:
    """The ``key = value`` lines of ``text``; errors name ``source`` and the line."""
    out = {}
    for ln_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if line.strip():
            key, value = split_pair(line, "%s: line %d %r" % (source, ln_no, line.strip()))
            out[key] = value
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read(), path)


def apply_overrides(cfg: dict, pairs) -> dict:
    """``cfg`` with ``key=value`` strings (e.g. from --set flags) merged in."""
    return {**cfg, **dict(split_pair(pair, "override %r" % pair) for pair in pairs)}


def coerce(key: str, value, kind):
    """``value`` as type ``kind`` (int, float or str) for config ``key``.

    A str field keeps text as written. For an int or float field, text is
    read with ``int()``, else ``float()``; ints then accept integral floats,
    floats accept ints and must be finite. Python values from code are
    checked the same way, and a bool is rejected for every field. Anything
    else raises ValueError naming the key.
    """
    if isinstance(value, str) and kind is not str:
        try:
            value = int(value)
        except ValueError:
            try:
                value = float(value)
            except ValueError:
                pass
    if isinstance(value, bool):
        pass  # rejected below, whatever the field
    elif kind is str:
        return str(value)
    elif kind is int:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
    elif kind is float and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
        raise ValueError("config key %r: %r is not finite" % (key, value))
    raise ValueError("config key %r: expected %s, got %r" % (key, kind.__name__, value))
