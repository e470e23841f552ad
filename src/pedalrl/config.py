"""Flat key-value experiment configuration.

One ``key = value`` per line; ``#`` starts a comment; blank lines are
ignored. Values become int, float or bool where they parse as one, else
stay strings. Keys are dotted paths (``plant.inertia``, ``hyper.gamma``)
consumed by the harness; the same ``key=value`` syntax is accepted as CLI
overrides, which win over the file. :func:`coerce` then turns each value
into the type of the dataclass field it sets.
"""

import math


def parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config_text(text: str) -> dict:
    out = {}
    for ln_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("config line %d: expected key = value, got %r" % (ln_no, raw))
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError("config line %d: empty key" % ln_no)
        out[key] = parse_scalar(val)
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: dict, pairs) -> dict:
    """Merge ``key=value`` strings (e.g. from --set flags) into ``cfg``."""
    out = dict(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise ValueError("override %r is not key=value" % pair)
        key, val = pair.split("=", 1)
        out[key.strip()] = parse_scalar(val)
    return out


def coerce(key: str, value, kind):
    """``value`` as type ``kind`` (int, float, bool or str) for config ``key``.

    Ints accept integral floats, floats accept ints and must be finite,
    bools accept only booleans. Anything else raises ValueError naming the key.
    """
    if kind is str:
        return str(value)
    if isinstance(value, bool):
        if kind is bool:
            return value
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
