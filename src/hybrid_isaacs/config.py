"""Reader/writer for the plain-text problem-definition format.

The format is TOML 1.0, read by the standard library's ``tomllib``.  A game
definition uses ``[section]`` headers, optionally with one quoted subkey as
in ``[dynamics."run,on"]``, ``key = value`` lines and ``#`` comments.  Values
are integers, floats (``inf`` and ``-inf`` included), strings, or (nested)
arrays of those.  Refused although TOML allows them: booleans, dates and
times, ``nan``, tables nested below a subkey, and keys outside any
``[section]``.  The writer emits a canonical form so that load -> save ->
load round-trips byte-stably.
"""

from __future__ import annotations

import tomllib
from typing import Any

__all__ = ["ConfigError", "loads", "dumps", "read_file", "write_file"]


class ConfigError(ValueError):
    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path is not None else message)


def loads(text: str, path: str | None = None) -> dict[str, dict[str, Any]]:
    """Parse config text into ``{section: {key: value}}``.

    A subkeyed section is named as its header is written: ``dynamics."a,b"``.
    """
    try:
        tables = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc), path) from None
    doc: dict[str, dict[str, Any]] = {}
    for name, table in tables.items():
        if not isinstance(table, dict):
            raise ConfigError(f"key {name!r} is outside any [section]", path)
        subs = {key: value for key, value in table.items() if isinstance(value, dict)}
        if len(subs) < len(table) or not subs:
            doc[name] = {key: value for key, value in table.items() if key not in subs}
        for sub, entries in subs.items():
            doc[f'{name}."{sub}"'] = entries
    for name, entries in doc.items():
        for key, value in entries.items():
            _check_value(value, f"[{name}] {key}", path)
    return doc


def _check_value(value: Any, where: str, path: str | None) -> None:
    if isinstance(value, list):
        for item in value:
            _check_value(item, where, path)
    elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: {type(value).__name__} is not a number, string or array",
                          path)
    elif value != value:
        raise ConfigError(f"{where}: nan is not a number the format accepts", path)


def dumps(doc: dict[str, dict[str, Any]]) -> str:
    """Serialize in the canonical form (insertion order, one key per line)."""
    lines = []
    for section, entries in doc.items():
        if lines:
            lines.append("")
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {_format_value(value)}")
    lines.append("")
    return "\n".join(lines)


def _format_value(value: Any) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        raise TypeError("booleans are not part of the format")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise TypeError(f"unsupported config value type {type(value)!r}")


def read_file(path) -> dict[str, dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), path=str(path))


def write_file(path, doc: dict[str, dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
