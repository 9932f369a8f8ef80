import re
import string

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

# Reference tokenizer and segmenter: the straightforward peel loop. Each
# whitespace-separated chunk loses its leading and trailing punctuation one
# character at a time, and only the core left over is lowercased.
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


def reference_split_sentences(text, doc_index=0, mask_deid=False):
    sentences = []
    for span_start, span_end in _sentence_spans(text):
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
    @given(clinical_text, st.integers(0, 3), st.booleans())
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
    @given(clinical_text)
    def test_count_sentences(self, text):
        expected = len(reference_split_sentences(text))
        assert count_sentences(text) == len(split_sentences(text)) == expected
        assert count_sentences(text) == len(split_sentences(text, mask_deid=True))

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
