import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from encsum.textproc import (
    DEID_MASK_TOKEN,
    Sentence,
    _sentence_spans,
    count_sentences,
    ngrams,
    split_sentences,
    tokenize,
)

# Reference tokenizer: the straightforward peel loop. Each whitespace-separated
# chunk loses its leading and trailing punctuation one character at a time, and
# only the core left over is lowercased.
_PUNCT = set(string.punctuation)
_DEID_RE = re.compile(r"\[[^\[\]]*\]")


def reference_tokenize(text, mask_deid=False):
    if mask_deid:
        tokens = []
        pos = 0
        for m in _DEID_RE.finditer(text):
            tokens.extend(_reference_plain(text[pos:m.start()]))
            tokens.append(DEID_MASK_TOKEN)
            pos = m.end()
        tokens.extend(_reference_plain(text[pos:]))
        return tokens
    return _reference_plain(text)


def _reference_plain(text):
    tokens = []
    for chunk in re.findall(r"\S+", text):
        lo, hi = 0, len(chunk)
        head, tail = [], []
        while lo < hi and chunk[lo] in _PUNCT:
            head.append(chunk[lo])
            lo += 1
        while hi > lo and chunk[hi - 1] in _PUNCT:
            tail.append(chunk[hi - 1])
            hi -= 1
        core = [chunk[lo:hi].lower()] if lo < hi else []
        tokens.extend(head + core + list(reversed(tail)))
    return tokens


# Reference segmenter: the character walk that the boundary-event regex
# replaced. It visits every character and asks whether a boundary falls there.
_SENT_END = ".!?"
_MAX_MARKER_INDENT = 3


def reference_sentence_spans(text: str) -> list[tuple[int, int]]:
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


def trimmed(text, spans):
    """Each span that holds more than whitespace, less its edge whitespace.

    Before a number indented at offset 0 or after a blank line, the character
    walk splits off a whitespace-only span where the event loop does not, so
    spans are equal only once trimmed; every caller strips them.
    """
    out = []
    for lo, hi in spans:
        span = text[lo:hi]
        if span.strip():
            out.append((lo + len(span) - len(span.lstrip()), hi - len(span) + len(span.rstrip())))
    return out


def reference_split_sentences(text, doc_index=0, mask_deid=False):
    sentences = []
    for span_start, span_end in reference_sentence_spans(text):
        stripped = text[span_start:span_end].strip()
        if not stripped:
            continue
        tokens = tuple(reference_tokenize(stripped, mask_deid=mask_deid))
        sentences.append(Sentence(tokens, doc_index, len(sentences), stripped))
    return sentences


# Text dense in what the tokenizer and segmenter react to: punctuation at chunk
# ends, sentence enders, list markers, placeholders, blank lines and Unicode
# whitespace.
clinical_text = st.text(
    alphabet=st.sampled_from(list("ab Z1.!?#-[](),:\n\t\r\x0b\x85\u2028\u00a0")) | st.characters(),
    max_size=160,
)

# Text dense in what the segmenter reacts to, up to 2,000 characters: the
# characters where ``str.isdigit`` and ``\d`` disagree ("²", "①"), non-ASCII
# digits, Unicode whitespace, CRLF, blank lines holding spaces, tabs and CRs,
# and "1." after a newline and 0-5 spaces or tabs, around the 3-character
# indent limit.
segmenter_text = st.lists(
    st.sampled_from(
        ["a", "b", " ", ".", "!", "?", "#", "-", "\n", "\t", "\r", "\r\n", "1", "12", "1.",
         "²", "①", "٣", "\x1c", "\x85", "\u2028", "\u00a0", "\u3000"]
    )
    | st.text(alphabet=" \t", max_size=5).map(lambda indent: f"\n{indent}1.")
    | st.text(alphabet=" \t\r", max_size=5).map(lambda blank: f"\n{blank}\n")
    | st.characters(),
    max_size=600,
).map(lambda parts: "".join(parts)[:2000])

# Text where lowercasing the whole text could differ from lowercasing each
# chunk's core: final sigma is context-sensitive, "İ" lowers to two code
# points, "ß" and "ﬁ" stay as they are under lower() but expand under
# casefold(), U+0307 and the soft hyphen are case-ignorable, and NBSP and the
# ideographic space are whitespace.
unicode_text = st.text(
    alphabet=st.sampled_from(
        ["Σ", "ς", "σ", "İ", "ß", "ﬁ", "\u0307", "\u00ad", "\u00a0", "\u3000", "A", "b",
         " ", "\n", *string.punctuation]
    ),
    max_size=80,
)


class TestTokenize:
    def test_lowercase_and_trailing_punct(self):
        assert tokenize("Chest pain.") == ["chest", "pain", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_leading_punct_split(self):
        assert tokenize("(see note)") == ["(", "see", "note", ")"]

    def test_internal_punct_kept(self):
        assert tokenize("cr 1.3 nc") == ["cr", "1.3", "nc"]
        assert tokenize("45-year-old") == ["45-year-old"]

    def test_deid_placeholder_kept_literal(self):
        surfaces = tokenize("from [ country 4952 ] today")
        assert surfaces == ["from", "[", "country", "4952", "]", "today"]

    def test_deid_masking(self):
        toks = tokenize("from [ country 4952 ] today", mask_deid=True)
        assert toks == ["from", DEID_MASK_TOKEN, "today"]

    @given(st.text(max_size=120))
    def test_surface_roundtrip(self, text):
        surfaces = tokenize(text)
        again = tokenize(" ".join(surfaces))
        assert again == surfaces


class TestSplitSentences:
    def test_period_boundaries(self):
        assert [s.raw_text for s in split_sentences("no fever. no cough.")] == [
            "no fever.",
            "no cough.",
        ]

    def test_hash_list_markers(self):
        assert [s.raw_text for s in split_sentences("# htn # cad")] == ["# htn", "# cad"]

    def test_empty(self):
        assert split_sentences("") == []

    def test_blank_line_boundary(self):
        texts = [s.raw_text for s in split_sentences("chief complaint:\n\nchest pain")]
        assert texts == ["chief complaint:", "chest pain"]

    def test_single_newline_not_boundary(self):
        assert len(split_sentences("line one\nline two")) == 1

    def test_numbered_markers_at_line_start(self):
        texts = [s.raw_text for s in split_sentences("meds:\n1. aspirin 81 mg daily\n2. plavix")]
        assert texts == ["meds:", "1. aspirin 81 mg daily", "2. plavix"]

    def test_numbered_marker_not_mid_line(self):
        # "2005." mid-line ends the sentence like any period would.
        texts = [s.raw_text for s in split_sentences("diagnosed in 2005. doing well")]
        assert texts == ["diagnosed in 2005.", "doing well"]

    def test_dash_list_marker(self):
        texts = [s.raw_text for s in split_sentences("- lisinopril - metoprolol")]
        assert texts == ["- lisinopril", "- metoprolol"]

    def test_sentence_indices_sequential(self):
        sents = split_sentences("a. b. c.", doc_index=3)
        assert [(s.doc_index, s.sent_index) for s in sents] == [(3, 0), (3, 1), (3, 2)]

    @given(st.text(max_size=200))
    def test_char_coverage(self, text):
        # Every non-whitespace char lies inside exactly one sentence's raw_text.
        sents = split_sentences(text)
        got = [ch for s in sents for ch in s.raw_text if not ch.isspace()]
        assert got == [ch for ch in text if not ch.isspace()]

    @given(st.text(max_size=200))
    def test_tokens_nonempty(self, text):
        for s in split_sentences(text):
            assert s.tokens
            assert s.raw_text.strip() == s.raw_text


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(clinical_text, st.booleans())
    def test_tokenize(self, text, mask_deid):
        assert tokenize(text, mask_deid=mask_deid) == reference_tokenize(text, mask_deid)

    @settings(max_examples=300, deadline=None)
    @given(segmenter_text)
    def test_sentence_spans(self, text):
        assert trimmed(text, _sentence_spans(text)) == trimmed(
            text, reference_sentence_spans(text)
        )

    @settings(max_examples=300, deadline=None)
    @given(clinical_text | segmenter_text, st.integers(0, 3), st.booleans())
    def test_split_sentences(self, text, doc_index, mask_deid):
        assert split_sentences(text, doc_index, mask_deid) == reference_split_sentences(
            text, doc_index, mask_deid
        )

    @settings(max_examples=300, deadline=None)
    @given(unicode_text, st.booleans())
    def test_tokenize_unicode(self, text, mask_deid):
        assert tokenize(text, mask_deid=mask_deid) == reference_tokenize(text, mask_deid)

    @settings(max_examples=300, deadline=None)
    @given(unicode_text, st.booleans())
    def test_split_sentences_unicode(self, text, mask_deid):
        assert split_sentences(text, 0, mask_deid) == reference_split_sentences(
            text, 0, mask_deid
        )

    @pytest.mark.parametrize("text", [
        "ΑΣ.", "ΑΣ. Β", ".Σ", "aΣ\u00ad", "aΣ\u00adb", "Σ'b", "a'Σ", "İ.", "(İΣ)", "ß-ﬁ.",
        "aΣ[x]", "[ aΣ ]b", "Σ\u00a0Σa",
    ])
    def test_unicode_examples(self, text):
        for mask_deid in (False, True):
            assert tokenize(text, mask_deid=mask_deid) == reference_tokenize(text, mask_deid)

    @settings(max_examples=300, deadline=None)
    @given(clinical_text | segmenter_text)
    def test_count_sentences(self, text):
        expected = len(reference_split_sentences(text))
        assert count_sentences(text) == len(split_sentences(text)) == expected
        assert count_sentences(text) == len(split_sentences(text, mask_deid=True))

    @pytest.mark.parametrize("text", [
        "\n. ", "a. 2. b", "  1. x", "\n    1. x", "1 . x", "a\n\n 1. x", "a\n² . x\n²1. y",
        "a\r\n \r\n\t\r\nb", "1! x 2? y", "² . x\u3000y.\x85z",
    ])
    def test_segmenter_examples(self, text):
        assert trimmed(text, _sentence_spans(text)) == trimmed(
            text, reference_sentence_spans(text)
        )
        assert split_sentences(text) == reference_split_sentences(text)
        assert count_sentences(text) == len(reference_split_sentences(text))

    # A line start is an event only where a word, "." and whitespace follow;
    # the loop then checks that the word is a number.
    @pytest.mark.parametrize("text, expected", [
        ("labs:\nphos 104.6 ref 1 to 98\nna 140 ref 135 to 145\n  k 4.1 ref 3.5",
         ["labs:\nphos 104.6 ref 1 to 98\nna 140 ref 135 to 145\n  k 4.1 ref 3.5"]),
        ("meds\n   3. x", ["meds", "3. x"]),
        # The period still ends the sentence, but no break comes before "3".
        ("meds\n    3. x", ["meds\n    3.", "x"]),
        # "²".isdigit() holds, though ``\d`` misses it; "½".isdigit() does not.
        ("meds\n\t². x\n½. y", ["meds", "². x\n½.", "y"]),
        ("dose\n1.5 mg\n2.\tb", ["dose\n1.5 mg", "2.\tb"]),
        ("a\nb. c\n12a. d", ["a\nb.", "c\n12a.", "d"]),
    ], ids=["lab table", "3-space indent", "4-space indent", "superscript two", "decimal",
            "word markers"])
    def test_line_start_markers(self, text, expected):
        sentences = split_sentences(text)
        assert sentences == reference_split_sentences(text)
        assert [s.raw_text for s in sentences] == expected
        assert count_sentences(text) == len(expected)

    def test_count_sentences_examples(self):
        assert count_sentences("") == 0
        assert count_sentences(" \n\n \n") == 0
        assert count_sentences("no fever. no cough.\n\n# htn # cad") == 4


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == {("a", "b"): 1, ("b", "c"): 1}

    def test_too_short(self):
        assert ngrams(["a"], 2) == {}

    def test_multiplicity(self):
        assert ngrams(["a", "a"], 1) == {("a",): 2}

    def test_zero_order_fatal(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    @given(st.lists(st.sampled_from("abcd"), max_size=30), st.integers(1, 5))
    def test_count_law(self, tokens, n):
        assert sum(ngrams(tokens, n).values()) == max(0, len(tokens) - n + 1)

    @given(st.lists(st.sampled_from("abcd"), max_size=30), st.integers(1, 5))
    def test_matches_slices(self, tokens, n):
        # The one-slice-per-n-gram construction that ngrams replaces.
        slices = Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        got = ngrams(tokens, n)
        assert got == slices and list(got) == list(slices)
