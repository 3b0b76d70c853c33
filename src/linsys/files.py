"""Reading and writing instances: a versioned JSON format plus a hand-author
friendly whitespace text format (one line of point ids per system line,
``#`` comments)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .core import LinearSystem, _is_int, new_linear_system


class InstanceFormatError(Exception):
    """Structured parse failure: carries the offending location and reason."""

    def __init__(self, reason: str, line_index: Optional[int] = None):
        self.reason = reason
        self.line_index = line_index
        where = f" (line entry {line_index})" if line_index is not None else ""
        super().__init__(f"{reason}{where}")


FORMAT_VERSION = 1


def to_instance_dict(
    sys: LinearSystem,
    name: Optional[str] = None,
    comments: Optional[str] = None,
) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "n_points": sys.n_points,
        "lines": [list(line) for line in sys.lines],
    }
    if name is not None:
        doc["name"] = name
    if comments is not None:
        doc["comments"] = comments
    return doc


def from_instance_dict(doc: dict) -> LinearSystem:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format_version {version!r}")
    n_points = doc.get("n_points")
    if not _is_int(n_points) or n_points < 0:
        raise InstanceFormatError(f"n_points must be a nonnegative integer, got {n_points!r}")
    lines = doc.get("lines")
    if not isinstance(lines, list):
        raise InstanceFormatError("lines must be an array of arrays")
    for i, line in enumerate(lines):
        if not isinstance(line, list) or not all(_is_int(p) for p in line):
            raise InstanceFormatError("each line must be an array of integers", i)
    return new_linear_system(n_points, lines)


def _parse_text(text: str) -> LinearSystem:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            pts = [int(tok) for tok in body.split()]
        except ValueError:
            raise InstanceFormatError(f"non-integer token in text input at line {lineno}")
        lines.append(pts)
    n_points = 1 + max((p for line in lines for p in line), default=-1)
    return new_linear_system(n_points, lines)


def load_instance(path: str | Path) -> LinearSystem:
    """Load an instance file; JSON when the content starts with '{', the
    whitespace text format otherwise."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            )
        return from_instance_dict(doc)
    return _parse_text(text)


def save_instance(
    path: str | Path,
    sys: LinearSystem,
    name: Optional[str] = None,
    comments: Optional[str] = None,
) -> None:
    doc = to_instance_dict(sys, name=name, comments=comments)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
