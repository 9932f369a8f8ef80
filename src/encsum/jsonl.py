"""JSON and JSON Lines helpers shared by the wire formats, and the atomic
writer behind every output file."""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open a new UTF-8 text file next to ``path`` for writing; it replaces
    ``path`` when the block ends, and is removed if the block raises.

    A reader of ``path`` sees the old file or the whole new one, never a part.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = tmp.open("x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_json(path: str | Path, obj: Any) -> None:
    """Write one JSON value as an indented, key-sorted UTF-8 file, atomically."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# One encoder for every JSON line: ``json.dumps`` with options builds a new
# one per call.
_encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON line per record, atomically: if ``records`` raises, the
    file at ``path`` is left as it was."""
    with _atomic_open(path) as fh:
        for record in records:
            fh.write(_encode_line(record))
            fh.write("\n")


# What the surrogateescape error handler decodes a byte that is not UTF-8 to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# A JSON escape of a surrogate, U+D800 to U+DFFF: only such an escape can put
# one in a parsed string, as the line itself was decoded as UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, parsed object) for each non-blank line, as
    universal newlines split them; a line that is not UTF-8, not JSON, or
    whose strings escape an unpaired surrogate (``"\\ud800"``, which UTF-8
    cannot encode) yields (lineno, None)."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii() and _UNDECODABLE.search(line):
                yield lineno, None
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                yield lineno, None
                continue
            if _SURROGATE_ESCAPE.search(line) and not _encodable(obj):
                obj = None
            yield lineno, obj


def _encodable(obj: Any) -> bool:
    try:
        _encode_line(obj).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_json(text: str) -> Any:
    """Parse a whole JSON file's text, as ``json.loads`` does, and reject two
    things it lets pass: a key repeated within one object, where the later
    value would win, and a string escaping an unpaired surrogate. Either is a
    ValueError."""
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    if _SURROGATE_ESCAPE.search(text) and not _encodable(obj):
        raise ValueError("a string escapes an unpaired surrogate, which UTF-8 cannot encode")
    return obj


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_jsonl(path: str | Path, add: Callable[[Any], None] | None = None) -> list:
    """Read every JSONL record, skipping blank lines, into the returned list.

    An undecodable (or ``null``) line is fatal: ``ValueError("<path>:<lineno>: ...")``.
    With ``add``, each record goes to ``add(record)`` instead and the list
    stays empty; a ValueError it raises is fatal with the same
    ``<path>:<lineno>:`` prefix.
    Loaders that skip bad lines with a counted warning use ``iter_jsonl``.
    """
    out: list = []
    if add is None:
        add = out.append
    for lineno, obj in iter_jsonl(path):
        if obj is None:
            raise ValueError(f"{path}:{lineno}: not a JSON record")
        try:
            add(obj)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def read_jsonl_keyed(
    path: str | Path, parse: Callable[[Any], tuple[Hashable, Any]], key_name: str
) -> dict:
    """Read a JSONL file whose records each carry a unique key into a dict.

    ``parse(record)`` returns ``(key, value)``. Errors are as for
    ``read_jsonl``, and a key seen on an earlier line is fatal too:
    ``ValueError("<path>:<lineno>: repeated <key_name> ...")``.
    """
    out: dict = {}

    def add(record) -> None:
        key, value = parse(record)
        if key in out:
            raise ValueError(f"repeated {key_name} {key!r}")
        out[key] = value

    read_jsonl(path, add)
    return out
