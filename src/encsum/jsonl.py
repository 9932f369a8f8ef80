"""JSON and JSON Lines helpers shared by the wire formats: the one rule by
which every input file becomes text and records (``read_text``,
``parse_json``), and the atomic writer behind every output file."""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from importlib import resources
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


# One encoder, built once, writes every JSON line: ``JSONEncoder.encode``
# builds a new C encoder on every call. These are the arguments it passes,
# but for the markers of its circular-reference check: None, as every record
# is a tree. CPython's ``json`` always has ``c_make_encoder``, so there is no
# fallback. ``parse_json`` keeps ``_encode`` for its surrogate check.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_encode = _ENCODER.encode
_encode_tree = json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.c_encode_basestring, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)
# JSON escapes every character at which ``str.splitlines`` breaks a line but
# U+0085, U+2028 and U+2029; ``encode_line`` escapes those too, which a JSON
# text can hold only inside a string.
_UNESCAPED_BREAK = re.compile("[\x85\u2028\u2029]")


def encode_line(record: Any) -> str:
    """``record`` as one line of a JSON Lines output, without its newline."""
    line = "".join(_encode_tree(record, 0))
    if line.isascii():
        return line
    return _UNESCAPED_BREAK.sub(lambda m: f"\\u{ord(m[0]):04x}", line)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one JSON line per record, atomically, and return their number.

    ``records`` may be a generator that builds each record as it is written;
    if it raises, the file at ``path`` is left as it was.
    """
    return write_lines(path, map(encode_line, records))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line, as ``encode_line`` makes one, and a newline after
    it, atomically, and return their number.

    ``lines`` may be a generator; if it raises, the file at ``path`` is left
    as it was.
    """
    count = 0
    with _atomic_open(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


# A surrogate, U+D800 to U+DFFF, which UTF-8 cannot encode: the
# surrogateescape error handler decodes a byte that is not UTF-8 to one.
_SURROGATE = re.compile("[\ud800-\udfff]")
# A JSON escape of a surrogate: only such an escape can put one in a parsed
# string of a text that holds none.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_text(path: str | Path | None, packaged: str = "") -> str:
    """The text of the input file at ``path`` or, with no path, of the
    packaged data file ``packaged``, read as UTF-8 with a leading byte-order
    mark ignored; bytes that are not UTF-8 raise UnicodeDecodeError, a
    ValueError."""
    file = resources.files("encsum").joinpath(f"data/{packaged}") if path is None else Path(path)
    return file.read_text("utf-8-sig")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, parsed object) for each non-blank line, as
    universal newlines split them. The file is read as ``read_text`` reads
    one, and a line that is not UTF-8 or that ``parse_json`` rejects yields
    (lineno, None)."""
    with Path(path).open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = parse_json(line)
            except ValueError:
                obj = None
            yield lineno, obj


def parse_json(text: str) -> Any:
    """Parse one JSON text, as ``json.loads`` does, and reject what UTF-8
    cannot encode or where a later value would win: a surrogate in the text,
    a string escaping an unpaired one (``"\\ud800"``), or a key repeated
    within one object. Each is a ValueError."""
    if not text.isascii() and _SURROGATE.search(text):
        raise ValueError("not UTF-8 text")
    obj = _decode(text)
    if _SURROGATE_ESCAPE.search(text):
        try:
            _encode(obj).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(
                "a string escapes an unpaired surrogate, which UTF-8 cannot encode"
            ) from None
    return obj


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


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
