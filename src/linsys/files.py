"""Reading and writing instances: a versioned JSON format plus a hand-author
friendly whitespace text format (one line of point ids per system line,
``#`` comments)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .core import LinearSystem, _is_int, new_linear_system


class InstanceFormatError(Exception):
    """An instance file or document in neither format; the message says where."""


FORMAT_VERSION = 1

# The largest ground set an instance file may declare or the random sampler
# may draw on.  Every construction here is far smaller (pi:11 has 133 points);
# the bound stops a file from asking the solvers for one list per point of a
# huge ground set, and the sampler from building its n_points**2-bit masks.
MAX_POINTS = 10_000


def _check_ground_set(n_points: int) -> None:
    if n_points > MAX_POINTS:
        raise InstanceFormatError(
            f"n_points {n_points} exceeds the supported limit of {MAX_POINTS}"
        )


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
    if not _is_int(version) or version != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format_version {version!r}")
    n_points = doc.get("n_points")
    if not _is_int(n_points) or n_points < 0:
        raise InstanceFormatError(f"n_points must be a nonnegative integer, got {n_points!r}")
    _check_ground_set(n_points)
    lines = doc.get("lines")
    if not isinstance(lines, list):
        raise InstanceFormatError("lines must be an array of arrays")
    for i, line in enumerate(lines):
        if not isinstance(line, list) or not all(_is_int(p) for p in line):
            raise InstanceFormatError(f"each line must be an array of integers (line entry {i})")
    return new_linear_system(n_points, lines)


def _parse_text(text: str) -> LinearSystem:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        pts = []
        for tok in body.split():
            try:
                pts.append(int(tok))
            except ValueError:
                # int() refuses a signed run of decimal digits only past its digit limit
                huge = (tok[1:] if tok[0] in "+-" else tok).isdecimal()
                reason = "a number has too many digits" if huge else "non-integer token"
                raise InstanceFormatError(f"{reason} in text input at line {lineno}") from None
        lines.append(pts)
    # clamped at 0, so that a file of negative ids reports its first bad id
    n_points = max(0, 1 + max((p for line in lines for p in line), default=-1))
    _check_ground_set(n_points)
    return new_linear_system(n_points, lines)


def load_instance(path: str | Path) -> LinearSystem:
    """Load a UTF-8 instance file, with or without a byte-order mark; JSON
    when the content starts with '{', the whitespace text format otherwise."""
    text = Path(path).read_text(encoding="utf-8-sig")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            )
        except RecursionError:
            raise InstanceFormatError("invalid JSON: nested too deeply") from None
        except ValueError:  # an integer past Python's digit limit
            raise InstanceFormatError("invalid JSON: a number has too many digits") from None
        return from_instance_dict(doc)
    return _parse_text(text)


def save_instance(
    path: str | Path,
    sys: LinearSystem,
    name: Optional[str] = None,
    comments: Optional[str] = None,
) -> None:
    doc = to_instance_dict(sys, name=name, comments=comments)
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """``Path(path).write_text(text)``; an error in ``write()`` names no file, so name it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise
