"""Deterministic tokenization, sentence segmentation, and n-gram extraction.

All scorers and pipeline stages share these conventions so that results are
reproducible within the toolkit:

* a token is a plain lowercased string with no character offsets, found
  by one regex over the lowercased text: a non-whitespace run that starts
  and ends outside ASCII punctuation, or one punctuation character, so
  punctuation at the head or tail of a chunk becomes a token of its own;
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

_PUNCT = re.escape(string.punctuation)
_TOKEN_RE = re.compile(rf"[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?|[{_PUNCT}]")
_SENT_END = ".!?"
_DEID_RE = re.compile(r"\[[^\[\]]*\]")
DEID_MASK_TOKEN = "xxdeid"

# A header-style marker may be indented by at most this many spaces/tabs.
_MAX_MARKER_INDENT = 3


@dataclass(frozen=True)
class Sentence:
    """A segmented sentence; (doc_index, sent_index) keys it within an encounter."""

    tokens: tuple[str, ...]
    doc_index: int
    sent_index: int
    raw_text: str

    @property
    def key(self) -> tuple[int, int]:
        return (self.doc_index, self.sent_index)


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace runs to single spaces."""
    return " ".join(text.lower().split())


def tokenize(text: str, mask_deid: bool = False) -> list[str]:
    """Split ``text`` into lowercased tokens.

    Whitespace separates chunks; punctuation at the head or tail of a chunk
    becomes its own single-character token. With ``mask_deid`` each bracketed
    placeholder collapses to one ``xxdeid`` token.
    """
    return _tokenize(text, mask_deid)


# split_sentences calls this rather than ``tokenize``, so that a perfbench
# trace of ``tokenize`` counts the calls from other modules, not one per
# sentence.
def _tokenize(text: str, mask_deid: bool) -> list[str]:
    if not mask_deid:
        return _TOKEN_RE.findall(text.lower())
    gaps = _DEID_RE.split(text)
    tokens = _TOKEN_RE.findall(gaps[0].lower())
    for gap in gaps[1:]:
        tokens.append(DEID_MASK_TOKEN)
        tokens += _TOKEN_RE.findall(gap.lower())
    return tokens


def split_sentences(text: str, doc_index: int = 0, mask_deid: bool = False) -> list[Sentence]:
    """Segment ``text`` into sentences; whitespace-only segments are dropped."""
    sentences: list[Sentence] = []
    for span_start, span_end in _sentence_spans(text):
        stripped = text[span_start:span_end].strip()
        if stripped:
            tokens = tuple(_tokenize(stripped, mask_deid))
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
