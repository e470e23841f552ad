"""Flat key-value experiment configuration.

One ``key = value`` per line; ``#`` starts a comment; blank lines are
ignored. Values stay as their stripped text. Keys are dotted paths
(``plant.inertia``, ``hyper.gamma``) consumed by the harness; the same
``key=value`` syntax is accepted as CLI overrides, which win over the file.
:func:`coerce` then types each value once, by the dataclass field it sets.
"""

import math


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
        out[key] = val.strip()
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
        key = key.strip()
        if not key:
            raise ValueError("override %r has an empty key" % pair)
        out[key] = val.strip()
    return out


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
