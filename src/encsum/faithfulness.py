"""Entity-set construction and faithfulness measures over source/reference/system.

The three texts of an evaluation instance are reduced to sets of normalized
entity strings, and the measures are plain set algebra over the regions of
their Venn diagram: writing C for the entities shared by all three sets,
B for those in reference and source but not the system output, and G for
system entities found in neither source nor reference, the measures need
only four set sizes, C, B + C = |Source ∩ Reference|, G and |System|:

* faithfulness-adjusted precision   = C / |System|
* faithfulness-adjusted recall      = C / (B + C) = C / |Source ∩ Reference|
* faithfulness-adjusted F_beta      = (1 + b^2) P R / (b^2 P + R), beta = 3
  by default (recall weighted three times precision)
* incorrect hallucination rate      = G / |System|

An entity set is a ``frozenset`` of normalized strings, and two entities are
the same when their strings are equal. The sets come from the gazetteer matcher
(``extract_entities_gazetteer`` on a text, ``match_gazetteer`` on its tokens)
or from an annotations file
(``ingest_entity_annotations``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

from .jsonl import iter_jsonl, read_text
from .textproc import normalize, tokenize

logger = logging.getLogger(__name__)

DEFAULT_BETA = 3.0


@dataclass(frozen=True)
class FaithfulnessScores:
    fa_precision: float
    fa_recall: float
    fa_f_beta: float
    incorrect_hallucination_rate: float
    empty_system: bool
    empty_relevant: bool


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Van Rijsbergen F_beta, which lies between P and R; returns precision
    exactly at the P == R fixed point."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if precision == recall:
        return precision
    beta2 = beta * beta
    if beta2 == math.inf:
        # beta above about 1.3e154, which ``--beta`` accepts: the beta -> infinity limit.
        return recall if precision > 0 else 0.0
    denominator = beta2 * precision + recall
    if denominator <= 0:
        # Only when recall is 0 and beta * beta underflows to 0 (beta below
        # about 1e-162, which ``--beta`` accepts); the numerator is 0 too.
        return 0.0
    # Rounding a subnormal P * R can leave the [P, R] envelope; clamp to it.
    low, high = sorted((precision, recall))
    return min(max((1 + beta2) * precision * recall / denominator, low), high)


@dataclass(frozen=True)
class Gazetteer:
    """Dictionary of known entity terms, stored as normalized token tuples."""

    terms: frozenset[tuple[str, ...]]

    @staticmethod
    def from_terms(terms: Iterable[str]) -> "Gazetteer":
        tokenized = {tuple(tokenize(term)) for term in terms} - {()}
        if not tokenized:
            raise ValueError("gazetteer has no usable terms")
        return Gazetteer(frozenset(tokenized))

    @cached_property
    def lengths_by_first_token(self) -> dict[str, tuple[int, ...]]:
        """Each term's first token -> the lengths of the terms it starts, longest first."""
        lengths: dict[str, set[int]] = {}
        for term in self.terms:
            lengths.setdefault(term[0], set()).add(len(term))
        return {first: tuple(sorted(found, reverse=True)) for first, found in lengths.items()}


def load_gazetteer(path: str | Path | None = None) -> Gazetteer:
    """Load a term file, one term per line, read by ``read_text``; with no
    path, the packaged general-purpose clinical term list. A file that is not
    UTF-8 or has no usable term is a ValueError naming it."""
    source = "packaged data/gazetteer.txt" if path is None else str(path)
    try:
        lines = read_text(path, "gazetteer.txt").splitlines()
        return Gazetteer.from_terms(line for line in lines if line.strip())
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def extract_entities_gazetteer(text: str, gaz: Gazetteer) -> frozenset[str]:
    """``match_gazetteer`` on the tokens of ``text``."""
    return match_gazetteer(tokenize(text), gaz)


def match_gazetteer(tokens: Sequence[str], gaz: Gazetteer) -> frozenset[str]:
    """Greedy leftmost-longest scan of the token stream against the gazetteer.

    At each position the longest term starting there is taken and the scan
    resumes after it. Only the positions whose token starts a term are
    visited, and only the lengths of the terms that it starts are tried.
    """
    lengths_by_first, terms = gaz.lengths_by_first_token, gaz.terms
    found: set[str] = set()
    resume = 0
    for i in compress(range(len(tokens)), map(lengths_by_first.__contains__, tokens)):
        if i < resume:
            continue
        for length in lengths_by_first[tokens[i]]:
            # A slice cut short by the end of the stream is the longest
            # candidate that fits, so matching it is still longest-first.
            candidate = tuple(tokens[i:i + length])
            if candidate in terms:
                found.add(" ".join(candidate))
                resume = i + len(candidate)
                break
    return frozenset(found)


def _is_annotation_key(key: str) -> bool:
    # enc:<id>:src | enc:<id>:<section>:ref | enc:<id>:<section>:sys:<system>
    parts = key.split(":")
    return parts[0] == "enc" and (
        (len(parts) == 3 and parts[2] == "src")
        or (len(parts) == 4 and parts[3] == "ref")
        or (len(parts) >= 5 and parts[3] == "sys")
    )


def ingest_entity_annotations(path: str | Path) -> dict[str, frozenset[str]]:
    """Read externally produced entity annotations keyed per document/summary.

    Malformed lines, one with an entity that is not a string among them, and
    malformed keys are skipped with a warning that gives the line number. A
    key seen on an earlier line is fatal:
    ``ValueError("<path>:<lineno>: repeated key ...")``.
    """
    out: dict[str, frozenset[str]] = {}
    for lineno, obj in iter_jsonl(path):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("key"), str)
            or not isinstance(obj.get("entities"), list)
            or not all(isinstance(e, str) for e in obj["entities"])
        ):
            logger.warning("%s:%d: skipping malformed annotation line", path, lineno)
            continue
        key = obj["key"]
        if not _is_annotation_key(key):
            logger.warning("%s:%d: skipping annotation with malformed key %r", path, lineno, key)
            continue
        if key in out:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = frozenset(normalize(e) for e in obj["entities"] if e.strip())
    return out


def score_sets(
    source: frozenset[str], reference: frozenset[str], system: frozenset[str],
    beta: float = DEFAULT_BETA,
) -> FaithfulnessScores:
    """Faithfulness-adjusted P/R/F_beta and incorrect hallucination rate.

    Degenerate denominators (empty system output, or no relevant-and-faithful
    entities to recall) score zero and set the matching flag.
    """
    relevant = source & reference
    c = len(relevant & system)
    g = len(system - source - reference)
    system_size = len(system)
    precision = c / system_size if system_size else 0.0
    hallucination = g / system_size if system_size else 0.0
    recall = c / len(relevant) if relevant else 0.0
    return FaithfulnessScores(
        fa_precision=precision,
        fa_recall=recall,
        fa_f_beta=f_beta(precision, recall, beta),
        incorrect_hallucination_rate=hallucination,
        empty_system=system_size == 0,
        empty_relevant=not relevant,
    )
