"""Memory that follows the split.

A command holds only the encounters of its split, ``chunk`` writes its
segments encounter by encounter, and ``pseudo-labels`` holds each row it
sorts as its encoded line. On a 200-stay synthetic dataset (160 train,
20 validation, 20 test stays), the tracemalloc peak of a command is compared
with the peak of loading every split's encounters into one dict. Both
peaks count Python allocations only, so the ratio does not depend on the
machine.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from encsum.corpus import SPLIT_NAMES
from encsum.dataset import build_dataset, load_encounters
from encsum.evaluate import write_evaluation
from encsum.labeling import write_oracle_summaries, write_pseudo_labels
from encsum.pipeline import write_segments
from encsum.sections import SectionName, load_rules
from encsum.synthetic import write_corpus


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    write_corpus(root / "notes.jsonl", n_encounters=200, seed=7)
    build_dataset(root / "notes.jsonl", load_rules(), root / "data", seed=13)
    return root / "data"


def _load_everything(data) -> dict:
    return {k: v for split in SPLIT_NAMES for k, v in load_encounters(data, split).items()}


def _peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of ``fn(*args)`` run a second time.

    The first run is untraced, so that one-time allocations such as compiled
    regexes count on neither side of a ratio. A full collection then resets
    the collector's counts, so that the traced run frees its cyclic garbage
    at the same points whichever tests ran before it.
    """
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each bound lies between the ratio of a chunk that holds every encounter
# and then every segment (1.12 for test, 2.53 for train) and the measured
# one (0.18, 0.86).
@pytest.mark.parametrize("split, bound", [("test", 0.5), ("train", 1.2)])
def test_chunk_peak_follows_split(data, tmp_path, split, bound):
    everything = _peak(_load_everything, data)
    chunk = _peak(write_segments, data, split, 1024, tmp_path / "segments.jsonl")
    assert chunk / everything < bound


# The bound lies between the ratio of an evaluate that holds every
# encounter (1.31) and the measured one (0.53).
def test_evaluate_peak_follows_split(data, tmp_path):
    sections = list(SectionName)
    write_oracle_summaries(data, sections, "test", tmp_path / "sys_oracle.jsonl")
    everything = _peak(_load_everything, data)
    evaluate = _peak(
        write_evaluation, data, str(tmp_path / "sys_*.jsonl"), "test", sections,
        tmp_path / "report",
    )
    assert evaluate / everything < 0.75


# The bound lies between the ratio of a command that holds its rows as dicts
# until it writes them (3.08) and the measured one, which holds them as
# encoded lines (1.84). Oracle rows are short: its ratio moved less when its
# rows became lines (1.84 to 1.73) than it may across Python versions, so it
# is not checked here.
def test_sorted_rows_held_as_lines(data, tmp_path):
    sections = list(SectionName)
    everything = _peak(_load_everything, data)
    rows = _peak(write_pseudo_labels, data, sections, "train", tmp_path / "rows.jsonl")
    assert rows / everything < 2.4
