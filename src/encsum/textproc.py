"""Deterministic tokenization, sentence segmentation, and n-gram extraction.

All scorers and pipeline stages share these conventions so that results are
reproducible within the toolkit:

* a token is a plain lowercased string with no character offsets, found
  by one regex over the lowercased text: a non-whitespace run that starts
  and ends outside ASCII punctuation, or one punctuation character, so
  punctuation at the head or tail of a chunk becomes a token of its own;
* sentence boundaries fall after ``.``/``!``/``?`` followed by whitespace or
  the end of the text, at blank lines, and before list-item markers: ``#`` or
  ``-`` after whitespace, or a numbered marker (``str.isdigit`` digits, ``.``,
  then whitespace) at the start of a line indented by at most three spaces or
  tabs. The period of a number such as ``1.`` at the head of a sentence does
  not end it. One compiled regex finds the candidate boundaries: it fires at
  a line start only where a word, ``.`` and whitespace follow, and captures
  that word, so that a line not opening with such a marker (a lab-table
  row, say) costs the loop nothing. A loop over the matches applies these
  rules, checking that a captured marker is a number;
* bracketed de-identification placeholders such as ``[ country 4952 ]``
  are kept verbatim unless masking is requested.

No abbreviation handling is attempted: all systems are segmented the same
way, so comparisons stay fair even where the segmentation is noisy.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import NamedTuple

_PUNCT = re.escape(string.punctuation)
_TOKEN_RE = re.compile(rf"[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?|[{_PUNCT}]")
_DEID_RE = re.compile(r"\[[^\[\]]*\]")
DEID_MASK_TOKEN = "xxdeid"

# Sentence-boundary events, in text order: ``.``/``!``/``?`` before
# whitespace or the end; a blank line; a line start after at most three spaces
# or tabs where a word, ``.`` and whitespace follow, with the word as group 1
# (the loop checks that it is a number); ``#`` or ``-`` after whitespace. Each
# event starts with one of ``.!?\n#-``, so the regex opens with that class
# and a lookbehind picks the event's rule: the regex engine's search then
# skips every other character without starting a match there.
_EVENT_RE = re.compile(
    r"[.!?\n#-](?:(?<=[.!?])(?!\S)|(?<=\n)[ \t\r]*\n"
    r"|(?<=\n)[ \t]{0,3}(?=(\w+)\.(?!\S))|(?<=\s[#-]))"
)


class Sentence(NamedTuple):
    """A segmented sentence; (doc_index, sent_index) keys it within an encounter."""

    tokens: tuple[str, ...]
    doc_index: int
    sent_index: int
    raw_text: str

    @property
    def key(self) -> tuple[int, int]:
        return (self.doc_index, self.sent_index)


# ``tuple.__new__(Sentence, fields)`` builds a Sentence without the
# NamedTuple's Python ``__new__``.
_new_tuple = tuple.__new__


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
            sentence = (tokens, doc_index, len(sentences), stripped)
            sentences.append(_new_tuple(Sentence, sentence))
    return sentences


def count_sentences(text: str) -> int:
    """``len(split_sentences(text, mask_deid=...))`` without tokenizing, for any masking."""
    return sum(1 for lo, hi in _sentence_spans(text) if text[lo:hi].strip())


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    # One pass over the boundary events; the loop keeps only the running
    # sentence start. Spans may be whitespace-only; callers drop those. A
    # numbered marker indented at the start of the text or after a blank line
    # is not an event: only whitespace would precede it in its sentence.
    spans: list[tuple[int, int]] = []
    start = 0
    for m in _EVENT_RE.finditer(text):
        i, end = m.span()
        c = text[i]
        if c == "\n":
            if m[1] is None:  # a blank line
                spans.append((start, i))
                start = end
            # A numbered marker: str.isdigit digits, "." and whitespace. The
            # regex takes the whole word, as ``\d`` misses digits such as "²".
            elif end > start and m[1].isdigit():
                spans.append((start, end))
                start = end
        elif c in "#-":
            if i > start:
                spans.append((start, i))
                start = i
        # "1." at the head of a sentence is a list marker, not a boundary.
        elif c != "." or not text[start:i].strip().isdigit():
            spans.append((start, end))
            start = end
    if start < len(text):
        spans.append((start, len(text)))
    return spans


def ngrams(surfaces: list[str], n: int) -> Counter:
    """All contiguous n-grams of ``surfaces`` with multiplicity."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(zip(*(surfaces[i:] for i in range(n))))
