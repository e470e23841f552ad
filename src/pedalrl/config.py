"""Flat key-value experiment configuration, and the one home of file text.

One ``key = value`` per line; ``#`` starts a comment; blank lines are
ignored; a key given twice is an error. Values stay as
their stripped text. Keys are dotted paths (``plant.inertia``,
``hyper.gamma``) consumed by the harness; CLI ``--set key=value`` pairs
win over the file, and the config flags (``--seed`` and the like) win
over both. File lines and pairs go through one splitter,
:func:`split_pair`. :func:`coerce` then types each value once, by the
dataclass field it sets, whether it came from a file, a pair, a flag or
code.

This is the one module that opens files: :func:`read_utf8` reads every
input (config files, checkpoints) and :func:`write_utf8` writes every
output (trace CSVs, value tables, value curves, checkpoints, manifests),
both as UTF-8 whatever the locale.
"""

import contextlib
import math
import os


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
    """The ``key = value`` lines of ``text``, no key twice; errors name ``source`` and the line."""
    out, first = {}, {}  # first: key -> its line number
    for ln_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if line.strip():
            key, value = split_pair(line, "%s: line %d %r" % (source, ln_no, line.strip()))
            if key in first:
                raise ValueError(
                    "%s: line %d repeats key %r from line %d" % (source, ln_no, key, first[key])
                )
            first[key] = ln_no
            out[key] = value
    return out


def read_utf8(path) -> str:
    """The file at ``path`` decoded as UTF-8, whatever the locale.

    A byte that is not UTF-8 raises ValueError naming the file and its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = data.count(b"\n", 0, exc.start) + 1
        raise ValueError("%s: line %d: not UTF-8 text" % (path, at)) from None


def write_utf8(path, text: str) -> bytes:
    """Write ``text`` to ``path`` as UTF-8, atomically; returns the bytes written.

    The bytes go to ``<path>.<pid>.tmp`` in a created parent directory, which
    then replaces ``path``, so ``path`` holds its old bytes or all the new
    ones. A failure removes the temporary file and raises an OSError naming
    ``path``. There is no fsync: a power loss is not covered.
    """
    data = text.encode("utf-8")
    path = os.fspath(path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise
    return data


def load_config(path) -> dict:
    return parse_config_text(read_utf8(path), path)


def apply_overrides(cfg: dict, pairs) -> dict:
    """``cfg`` with ``key=value`` strings (--set flags) merged in; a key's last pair wins."""
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
