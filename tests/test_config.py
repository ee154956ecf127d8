"""Spec files are read with ``tomllib``.  These tests hold the reader to the
hand-written parser it replaced, kept below as the reference: every spec the
project ships or generates must read to an equal document with equal value
types."""

import re
from pathlib import Path

import pytest

from hybrid_isaacs import config

from conftest import SHIPPED_SPECS, benchmark_generator

ROOT = Path(__file__).resolve().parents[1]

_SECTION_RE = re.compile(r'^\[([A-Za-z_][A-Za-z_0-9]*)(?:\."([^"]*)")?\]$')
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[-+]?inf")


def reference_loads(text):
    doc = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if m is None:
                raise ValueError(f"{lineno}: malformed section header {line!r}")
            name = m.group(1) if m.group(2) is None else f'{m.group(1)}."{m.group(2)}"'
            if name in doc:
                raise ValueError(f"{lineno}: duplicate section [{name}]")
            section = {}
            doc[name] = section
            continue
        if "=" not in line:
            raise ValueError(f"{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ValueError(f"{lineno}: key/value pair before any section header")
        key, _, rest = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ValueError(f"{lineno}: malformed key {key!r}")
        if key in section:
            raise ValueError(f"{lineno}: duplicate key {key!r}")
        value, tail = _parse_value(rest.strip(), lineno)
        if tail.strip():
            raise ValueError(f"{lineno}: trailing text after value: {tail.strip()!r}")
        section[key] = value
    return doc


def _strip_comment(line):
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(text, lineno):
    if not text:
        raise ValueError(f"{lineno}: missing value")
    if text[0] == '"':
        end = text.find('"', 1)
        if end < 0:
            raise ValueError(f"{lineno}: unterminated string")
        return text[1:end], text[end + 1:]
    if text[0] == "[":
        items = []
        rest = text[1:].lstrip()
        if rest.startswith("]"):
            return items, rest[1:]
        while True:
            value, rest = _parse_value(rest, lineno)
            items.append(value)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:].lstrip()
                continue
            if rest.startswith("]"):
                return items, rest[1:]
            raise ValueError(f"{lineno}: expected ',' or ']' in array")
    m = _NUM_RE.match(text)
    if m is None:
        raise ValueError(f"{lineno}: unparseable value {text!r}")
    token = m.group()
    rest = text[m.end():]
    if re.fullmatch(r"[-+]?\d+", token):
        return int(token), rest
    return float(token), rest


def typed(value):
    """``value`` with every leaf tagged by its type and written bit-exactly."""
    if isinstance(value, dict):
        return {key: typed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_specs_read_as_the_reference_reads_them(path):
    text = path.read_text(encoding="utf-8")
    assert typed(config.loads(text)) == typed(reference_loads(text))


@pytest.mark.parametrize("points", [21, 41, 81])
def test_generated_specs_read_as_the_reference_reads_them(points):
    gen = benchmark_generator()
    for seed in range(1, 21):
        text = gen.grid2d_spec_text(seed, points)
        assert typed(config.loads(text)) == typed(reference_loads(text)), seed


def test_sections_keep_their_written_names():
    doc = config.loads('[grid]\n[dynamics."a,b"]\nf = ["0"]\n[dynamics."a,c"]\nf = ["1"]\n')
    assert doc == {"grid": {}, 'dynamics."a,b"': {"f": ["0"]}, 'dynamics."a,c"': {"f": ["1"]}}
