import random
from pathlib import Path

import pytest

from encsum.corpus import ClinicalNote
from encsum.textproc import Sentence, tokenize


def make_sentence(text: str, doc_index: int = 0, sent_index: int = 0) -> Sentence:
    return Sentence(tuple(tokenize(text)), doc_index, sent_index, text)


def make_note(note_id="n1", subject_id="s1", encounter_id="e1",
              chart_date="2040-01-01T08:00:00", category="admission note",
              text="hello.") -> ClinicalNote:
    return ClinicalNote(note_id, subject_id, encounter_id, chart_date, category, text)


def output_bytes(out: Path):
    """The bytes of the file at ``out``, or of each file under it by relative path."""
    if out.is_file():
        return out.read_bytes()
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture
def rng():
    return random.Random(12345)
