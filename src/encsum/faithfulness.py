"""Entity-set construction and faithfulness measures over source/reference/system.

The three texts of an evaluation instance are reduced to sets of normalized
entity strings, and the measures are plain set algebra over the regions of
their Venn diagram: writing C for the entities shared by all three sets,
B for those in reference and source but not the system output, and G for
system entities found in neither source nor reference,

* faithfulness-adjusted precision   = C / |System|
* faithfulness-adjusted recall      = C / (B + C)
* faithfulness-adjusted F_beta      = (1 + b^2) P R / (b^2 P + R), beta = 3
  by default (recall weighted three times precision)
* incorrect hallucination rate      = G / |System|

Entity identity is normalized-string equality; the backend that produces the
sets is pluggable (built-in gazetteer matcher, or externally produced
annotations ingested from file).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from statistics import fmean
from typing import Iterable, Sequence

from .jsonl import iter_jsonl
from .textproc import normalize, tokenize

logger = logging.getLogger(__name__)

DEFAULT_BETA = 3.0

EMPTY_SYSTEM = "empty_system"
EMPTY_RELEVANT = "empty_relevant"


@dataclass(frozen=True)
class EntitySet:
    entities: frozenset[str]
    origin: str  # one of: source, reference, system

    @staticmethod
    def from_strings(entities: Iterable[str], origin: str) -> "EntitySet":
        return EntitySet(
            frozenset(normalize(e) for e in entities if e.strip()), origin
        )


@dataclass(frozen=True)
class EntityVennRegions:
    """Cardinalities of the seven regions of the (source, reference, system) diagram."""

    source_only: int
    reference_only: int
    system_only: int
    source_reference: int
    source_system: int
    reference_system: int
    all_three: int

    @property
    def b(self) -> int:
        """|(reference ∩ source) \\ system| — relevant, faithful, but missed."""
        return self.source_reference

    @property
    def c(self) -> int:
        """|system ∩ reference ∩ source| — relevant, faithful, and produced."""
        return self.all_three

    @property
    def f(self) -> int:
        """|(system ∩ reference) \\ source| — relevant but unsupported."""
        return self.reference_system

    @property
    def g(self) -> int:
        """|system \\ (source ∪ reference)| — neither supported nor relevant."""
        return self.system_only

    @property
    def source_size(self) -> int:
        return self.source_only + self.source_reference + self.source_system + self.all_three

    @property
    def reference_size(self) -> int:
        return self.reference_only + self.source_reference + self.reference_system + self.all_three

    @property
    def system_size(self) -> int:
        return self.system_only + self.source_system + self.reference_system + self.all_three


def venn_regions(source: EntitySet, reference: EntitySet, system: EntitySet) -> EntityVennRegions:
    """Exact set-algebra cardinalities for all seven Venn regions."""
    src, ref, sys_ = source.entities, reference.entities, system.entities
    return EntityVennRegions(
        source_only=len(src - ref - sys_),
        reference_only=len(ref - src - sys_),
        system_only=len(sys_ - src - ref),
        source_reference=len((src & ref) - sys_),
        source_system=len((src & sys_) - ref),
        reference_system=len((ref & sys_) - src),
        all_three=len(src & ref & sys_),
    )


@dataclass(frozen=True)
class FaithfulnessScores:
    fa_precision: float
    fa_recall: float
    fa_f_beta: float
    beta: float
    incorrect_hallucination_rate: float
    degenerate_flags: frozenset[str]


def f_beta(precision: float, recall: float, beta: float) -> float:
    """Van Rijsbergen F_beta; returns precision exactly at the P == R fixed point."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if precision == recall:
        return precision
    denominator = beta * beta * precision + recall
    if denominator <= 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def faithfulness_scores(regions: EntityVennRegions, beta: float = DEFAULT_BETA) -> FaithfulnessScores:
    """Faithfulness-adjusted P/R/F_beta and incorrect hallucination rate.

    Degenerate denominators (empty system output, or no relevant-and-faithful
    entities to recall) score zero and raise the matching flag.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    flags = set()
    system_size = regions.system_size
    relevant = regions.b + regions.c
    if system_size == 0:
        flags.add(EMPTY_SYSTEM)
        precision = 0.0
        hallucination = 0.0
    else:
        precision = regions.c / system_size
        hallucination = regions.g / system_size
    if relevant == 0:
        flags.add(EMPTY_RELEVANT)
        recall = 0.0
    else:
        recall = regions.c / relevant
    return FaithfulnessScores(
        fa_precision=precision,
        fa_recall=recall,
        fa_f_beta=f_beta(precision, recall, beta),
        beta=beta,
        incorrect_hallucination_rate=hallucination,
        degenerate_flags=frozenset(flags),
    )


@dataclass(frozen=True)
class Gazetteer:
    """Dictionary of known entity terms, stored as normalized token tuples."""

    terms: frozenset[tuple[str, ...]]
    max_term_tokens: int

    @staticmethod
    def from_terms(terms: Iterable[str]) -> "Gazetteer":
        tokenized = {tuple(tokenize(term)) for term in terms} - {()}
        if not tokenized:
            raise ValueError("gazetteer has no usable terms")
        return Gazetteer(frozenset(tokenized), max(len(t) for t in tokenized))

    @staticmethod
    def from_file(path: str | Path) -> "Gazetteer":
        lines = Path(path).read_text("utf-8").splitlines()
        return Gazetteer.from_terms(line for line in lines if line.strip())


def load_default_gazetteer() -> Gazetteer:
    """The packaged general-purpose clinical term list."""
    text = resources.files("encsum").joinpath("data/gazetteer.txt").read_text("utf-8")
    return Gazetteer.from_terms(line for line in text.splitlines() if line.strip())


def extract_entities_gazetteer(text: str, gaz: Gazetteer, origin: str = "system") -> EntitySet:
    """Greedy longest-match scan of the token stream against the gazetteer."""
    tokens = tokenize(text)
    found: set[str] = set()
    i = 0
    n = len(tokens)
    while i < n:
        matched = 0
        for length in range(min(gaz.max_term_tokens, n - i), 0, -1):
            candidate = tuple(tokens[i:i + length])
            if candidate in gaz.terms:
                found.add(" ".join(candidate))
                matched = length
                break
        i += matched if matched else 1
    return EntitySet(frozenset(found), origin)


def _origin_for_key(key: str) -> str | None:
    # enc:<id>:src | enc:<id>:<section>:ref | enc:<id>:<section>:sys:<system>
    parts = key.split(":")
    if parts[0] != "enc":
        return None
    if len(parts) == 3 and parts[-1] == "src":
        return "source"
    if len(parts) == 4 and parts[-1] == "ref":
        return "reference"
    if len(parts) >= 5 and parts[3] == "sys":
        return "system"
    return None


def ingest_entity_annotations(path: str | Path) -> dict[str, EntitySet]:
    """Read externally produced entity annotations keyed per document/summary.

    Malformed lines and malformed keys are skipped with a warning that gives
    the line number.
    """
    out: dict[str, EntitySet] = {}
    for lineno, obj in iter_jsonl(path):
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("key"), str)
            or not isinstance(obj.get("entities"), list)
        ):
            logger.warning("%s:%d: skipping malformed annotation line", path, lineno)
            continue
        key = obj["key"]
        origin = _origin_for_key(key)
        if origin is None:
            logger.warning("%s:%d: skipping annotation with malformed key %r", path, lineno, key)
            continue
        out[key] = EntitySet.from_strings(map(str, obj["entities"]), origin)
    return out


@dataclass(frozen=True)
class AggregateFaithfulness:
    """Macro-average over instances, with degenerate-instance counts."""

    count: int
    fa_precision: float
    fa_recall: float
    fa_f_beta: float
    beta: float
    incorrect_hallucination_rate: float
    empty_system_count: int
    empty_relevant_count: int


def aggregate_scores(scores: Sequence[FaithfulnessScores], beta: float) -> AggregateFaithfulness:
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    return AggregateFaithfulness(
        count=len(scores),
        fa_precision=fmean(s.fa_precision for s in scores),
        fa_recall=fmean(s.fa_recall for s in scores),
        fa_f_beta=fmean(s.fa_f_beta for s in scores),
        beta=beta,
        incorrect_hallucination_rate=fmean(s.incorrect_hallucination_rate for s in scores),
        empty_system_count=sum(EMPTY_SYSTEM in s.degenerate_flags for s in scores),
        empty_relevant_count=sum(EMPTY_RELEVANT in s.degenerate_flags for s in scores),
    )


def score_sets(
    source: EntitySet, reference: EntitySet, system: EntitySet, beta: float = DEFAULT_BETA
) -> FaithfulnessScores:
    return faithfulness_scores(venn_regions(source, reference, system), beta)
