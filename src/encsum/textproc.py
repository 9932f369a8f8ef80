"""Deterministic tokenization, sentence segmentation, and n-gram extraction.

All scorers and pipeline stages share these conventions so that results are
reproducible within the toolkit:

* tokens are lowercased, split on whitespace, with leading/trailing
  punctuation peeled off as separate single-character tokens;
* sentence boundaries fall after ``.``/``!``/``?`` followed by whitespace,
  at blank lines, and before list-item markers (``#`` or ``-`` after
  whitespace, or a line-initial ``1.``-style number);
* bracketed de-identification placeholders such as ``[ country 4952 ]``
  are kept verbatim unless masking is requested.

No abbreviation handling is attempted: all systems are segmented the same
way, so comparisons stay fair even where the segmentation is noisy.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass

_PUNCT = set(string.punctuation)
_SENT_END = ".!?"
_DEID_RE = re.compile(r"\[[^\[\]]*\]")
DEID_MASK_TOKEN = "xxdeid"

# A header-style marker may be indented by at most this many spaces/tabs.
_MAX_MARKER_INDENT = 3


@dataclass(frozen=True)
class Token:
    """A lowercased surface form with its (start, end) span in the source text."""

    surface: str
    char_span: tuple[int, int]


@dataclass(frozen=True)
class Sentence:
    """A segmented sentence; (doc_index, sent_index) keys it within an encounter."""

    tokens: tuple[Token, ...]
    doc_index: int
    sent_index: int
    raw_text: str

    @property
    def key(self) -> tuple[int, int]:
        return (self.doc_index, self.sent_index)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def to_record(self) -> dict:
        return {
            "doc_index": self.doc_index,
            "sent_index": self.sent_index,
            "text": self.raw_text,
        }


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace runs to single spaces."""
    return " ".join(text.lower().split())


def tokenize(text: str, mask_deid: bool = False) -> list[Token]:
    """Split ``text`` into lowercased tokens with character spans.

    Whitespace separates chunks; punctuation at the head or tail of a chunk
    becomes its own single-character token. With ``mask_deid`` each bracketed
    placeholder collapses to one ``xxdeid`` token spanning the whole bracket.
    """
    if mask_deid:
        return _tokenize_masked(text, 0)
    return _tokenize_plain(text, 0)


def _tokenize_plain(text: str, offset: int) -> list[Token]:
    tokens: list[Token] = []
    for m in re.finditer(r"\S+", text):
        tokens.extend(_split_chunk(m.group(0), offset + m.start()))
    return tokens


def _tokenize_masked(text: str, offset: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    for m in _DEID_RE.finditer(text):
        tokens.extend(_tokenize_plain(text[pos:m.start()], offset + pos))
        tokens.append(Token(DEID_MASK_TOKEN, (offset + m.start(), offset + m.end())))
        pos = m.end()
    tokens.extend(_tokenize_plain(text[pos:], offset + pos))
    return tokens


def _split_chunk(chunk: str, start: int) -> list[Token]:
    if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
        return [Token(chunk.lower(), (start, start + len(chunk)))]
    lo, hi = 0, len(chunk)
    head: list[Token] = []
    tail: list[Token] = []
    while lo < hi and chunk[lo] in _PUNCT:
        head.append(Token(chunk[lo], (start + lo, start + lo + 1)))
        lo += 1
    while hi > lo and chunk[hi - 1] in _PUNCT:
        tail.append(Token(chunk[hi - 1], (start + hi - 1, start + hi)))
        hi -= 1
    core = []
    if lo < hi:
        core = [Token(chunk[lo:hi].lower(), (start + lo, start + hi))]
    return head + core + list(reversed(tail))


def split_sentences(text: str, doc_index: int = 0, mask_deid: bool = False) -> list[Sentence]:
    """Segment ``text`` into sentences; whitespace-only segments are dropped."""
    tokenize_at = _tokenize_masked if mask_deid else _tokenize_plain
    sentences: list[Sentence] = []
    for span_start, span_end in _sentence_spans(text):
        raw = text[span_start:span_end]
        stripped = raw.strip()
        if not stripped:
            continue
        trim_start = span_start + (len(raw) - len(raw.lstrip()))
        tokens = tuple(tokenize_at(stripped, trim_start))
        sentences.append(Sentence(tokens, doc_index, len(sentences), stripped))
    return sentences


def count_sentences(text: str) -> int:
    """``len(split_sentences(text, mask_deid=...))`` without tokenizing, for any masking."""
    return sum(1 for lo, hi in _sentence_spans(text) if text[lo:hi].strip())


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        c = text[i]
        if c in _SENT_END:
            at_end = i + 1 >= n or text[i + 1].isspace()
            if at_end and not (c == "." and _is_list_number_period(text, start, i)):
                spans.append((start, i + 1))
                start = i + 1
                i += 1
                continue
        elif c == "\n":
            j = i + 1
            while j < n and text[j] in " \t\r":
                j += 1
            if j < n and text[j] == "\n":
                spans.append((start, i))
                start = j + 1
                i = j + 1
                continue
        if i > start and _marker_starts_at(text, i):
            spans.append((start, i))
            start = i
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def _is_list_number_period(text: str, sent_start: int, dot: int) -> bool:
    # "1." at the head of a sentence is a list marker, not a boundary.
    head = text[sent_start:dot].strip()
    return head.isdigit() and head != ""


def _marker_starts_at(text: str, i: int) -> bool:
    c = text[i]
    if c in "#-":
        return text[i - 1].isspace()
    if c.isdigit():
        return _numbered_marker_at_line_start(text, i)
    return False


def _numbered_marker_at_line_start(text: str, i: int) -> bool:
    # Numbered markers ("1." + whitespace) only count at the start of a line.
    j = i - 1
    indent = 0
    while j >= 0 and text[j] in " \t":
        indent += 1
        j -= 1
    if indent > _MAX_MARKER_INDENT or (j >= 0 and text[j] != "\n"):
        return False
    k = i
    while k < len(text) and text[k].isdigit():
        k += 1
    return k < len(text) and text[k] == "." and (k + 1 >= len(text) or text[k + 1].isspace())


def ngrams(surfaces: list[str], n: int) -> Counter:
    """All contiguous n-grams of ``surfaces`` with multiplicity."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(surfaces[i:i + n]) for i in range(len(surfaces) - n + 1))
