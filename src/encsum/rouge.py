"""From-scratch ROUGE-1/2/L scorers (precision, recall, F1).

Conventions fixed here and relied on everywhere else in the toolkit:
an empty candidate or reference scores all zeros, no stemming or stopword
removal is applied, and ROUGE-L runs on flat token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .textproc import ngrams


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


_ZERO = RougeScore(0.0, 0.0, 0.0)


def _score(overlap: int, candidate_total: int, reference_total: int) -> RougeScore:
    if candidate_total == 0 or reference_total == 0:
        return _ZERO
    p = overlap / candidate_total
    r = overlap / reference_total
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return RougeScore(p, r, f1)


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """Multiset n-gram overlap between two token sequences."""
    cand = ngrams(list(candidate), n)
    ref = ngrams(list(reference), n)
    overlap = sum((cand & ref).values())
    return _score(overlap, sum(cand.values()), sum(ref.values()))


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence overlap between two token sequences."""
    return _score(lcs_length(candidate, reference), len(candidate), len(reference))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Exact LCS length by the bit-parallel recurrence.

    Allison & Dix, "A bit-string longest-common-subsequence algorithm" (IPL
    1986), in the form of Hyyrö, "Bit-parallel LCS-length computation
    revisited" (AWOCA 2004). Bit i of a Python int stands for position i of
    the shorter side; each token of the longer side updates the whole row in
    a few big-int operations. The LCS is the number of zero bits left in the
    row vector.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict[str, int] = {}
    for i, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()
