"""From-scratch ROUGE-1/2/L scorers (precision, recall, F1).

Conventions fixed here and relied on everywhere else in the toolkit:
an empty candidate or reference scores all zeros, no stemming or stopword
removal is applied, and ROUGE-L runs on flat token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .textproc import ngrams


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def prf(overlap: int, candidate_total: int, reference_total: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of an overlap count: the one ROUGE formula.

    Either side empty scores all zeros.
    """
    if candidate_total == 0 or reference_total == 0:
        return (0.0, 0.0, 0.0)
    p = overlap / candidate_total
    r = overlap / reference_total
    return (p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0)


def _score(overlap: int, candidate_total: int, reference_total: int) -> RougeScore:
    return RougeScore(*prf(overlap, candidate_total, reference_total))


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
    """Exact LCS length of two token sequences, the shorter one pooled."""
    if len(a) < len(b):
        a, b = b, a
    pool = LcsPool((b,))
    return pool.lcs(pool.masks_of(a))[0]


class LcsPool:
    """Exact LCS lengths of one query against every sequence of a pool at once.

    The bit-parallel recurrence of Allison & Dix, "A bit-string
    longest-common-subsequence algorithm" (IPL 1986), in the form of Hyyrö,
    "Bit-parallel LCS-length computation revisited" (AWOCA 2004). The pool's
    sequences lie side by side in one Python int, each followed by a zero
    guard bit: bit ``offset + i`` stands for token i of the sequence at
    ``offset``. Each query token updates every sequence's row in a few
    big-int operations. The carry of ``v + u`` out of a sequence's top bit
    lands in its guard bit, and ``& full`` clears it again, so no sequence
    sees its neighbour's carry. A sequence's LCS is the number of zero bits
    left in its part of the row vector. ``lengths`` holds the pooled
    sequences' token counts, in pool order.
    """

    __slots__ = ("_masks", "_full", "_spans", "lengths")

    def __init__(self, sequences: Iterable[Sequence[str]]):
        masks: dict[str, int] = {}
        spans: list[tuple[int, int, int]] = []
        full = 0
        offset = 0
        for seq in sequences:
            n = len(seq)
            for i, token in enumerate(seq, offset):
                masks[token] = masks.get(token, 0) | (1 << i)
            ones = (1 << n) - 1
            spans.append((offset, n, ones))
            full |= ones << offset
            offset += n + 1
        self._masks = masks
        self._full = full
        self._spans = spans
        self.lengths = [n for _, n, _ in spans]

    @classmethod
    def tiled(cls, sequence: Sequence[str], copies: int) -> LcsPool:
        """``LcsPool([sequence] * copies)``, built from one copy's masks.

        Copy j lies at ``j * stride``, ``stride = len(sequence) + 1``, so each
        of its masks is one copy's mask times the repunit of ``copies`` ones
        at that stride: one multiply per distinct token.
        """
        pool = cls((sequence,))
        [(_, n, ones)] = pool._spans
        stride = n + 1
        repunit = ((1 << stride * copies) - 1) // ((1 << stride) - 1)
        pool._masks = {token: mask * repunit for token, mask in pool._masks.items()}
        pool._full *= repunit
        pool._spans = [(offset, n, ones) for offset in range(0, stride * copies, stride)]
        pool.lengths = [n] * copies
        return pool

    def window(self, first: int, stop: int) -> int:
        """The bits of pooled sequences ``first`` to ``stop - 1``; 0 when
        ``stop <= first``.

        A query mask ANDed with it matches nothing in the other sequences,
        and a zero match leaves a sequence's row as it was, so the query
        token counts only for the sequences in the window.
        """
        if stop <= first:
            return 0
        low = self._spans[first][0]
        offset, n, _ = self._spans[stop - 1]
        return ((1 << (offset + n)) - (1 << low)) & self._full

    def masks_of(self, tokens: Iterable[str]) -> list[int]:
        """The query's match masks; tokens the pool lacks are dropped, as
        they never change the row vector."""
        return [m for m in map(self._masks.get, tokens) if m]

    def lcs(self, masks: Iterable[int]) -> list[int]:
        """The LCS length of the query ``masks`` with each pooled sequence, in pool order."""
        full = self._full
        v = full
        for match in masks:
            u = v & match
            v = ((v + u) | (v - u)) & full
        return [n - ((v >> offset) & ones).bit_count() for offset, n, ones in self._spans]
