"""Seeded input generation for the benchmark workloads.

encsum only ever sees the files written here. Short-stay encounters come
straight from ``encsum.synthetic.generate_notes``; long-stay encounters pad
each of those with extra nursing notes, a fixed share of which carry an
unpunctuated lab table longer than the chunking budget. Every padding note is
charted before its encounter's discharge summary, because
``assemble_encounters`` drops notes charted after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

# Per long stay: this many padding notes, two of which end with a lab table.
PADDING_NOTES = 12
TABLES_PER_ENCOUNTER = 2
PADDING_SENTENCES = (4, 8)
LAB_TABLE_ROWS = (180, 200)
LONG_STAY_BASE_SEED = 7

_NURSING = (
    "patient resting comfortably in bed.",
    "vital signs stable overnight.",
    "denies chest pain at this time.",
    "ambulated in the hallway with assistance.",
    "tolerating a regular diet.",
    "pain controlled on current regimen.",
    "lungs clear to auscultation bilaterally.",
    "no acute events overnight.",
    "family updated at the bedside.",
    "continue to monitor on telemetry.",
    "blood sugars within goal range.",
    "mild edema noted in the lower extremities.",
    "encouraged incentive spirometry use.",
    "patient reports nausea after breakfast.",
    "urine output adequate.",
    "skin intact without breakdown.",
    "oxygen saturation stable on room air.",
    "medications given as ordered.",
    "fall precautions maintained.",
    "awaiting physical therapy evaluation.",
)
_LABS = (
    "wbc", "hgb", "hct", "plt", "na", "k", "cl", "hco3", "bun", "creat",
    "glucose", "ca", "mg", "phos", "alt", "ast", "alk phos", "tbili",
    "albumin", "inr", "ptt", "lactate", "troponin", "bnp",
)


@dataclass(frozen=True)
class InputSizes:
    """Size of one workload's generated input."""

    encounters: int
    notes: int
    sentences_per_encounter: float
    tokens_per_encounter: float


def short_stay_notes(n_encounters: int, seed: int) -> list:
    from encsum.synthetic import generate_notes

    return generate_notes(n_encounters=n_encounters, seed=seed)


def long_stay_notes(n_encounters: int, seed: int) -> list:
    """Short-stay encounters, each padded with ``PADDING_NOTES`` nursing notes.

    The short-stay base comes from a fixed synthetic seed: the sweep's work
    scales with the reference lengths, whose sum over a few dozen encounters
    swings by about 8% between synthetic seeds. ``seed`` drives the padding,
    the lab tables and the planted scores. ``TABLES_PER_ENCOUNTER`` padding
    notes per encounter, at seeded positions, end with a lab table, so the
    count of hard-windowed sentences does not vary by seed.
    """
    notes = short_stay_notes(n_encounters, LONG_STAY_BASE_SEED)
    rng = random.Random(f"perfbench-long-{seed}")
    admissions = {n.encounter_id: n for n in notes if n.category == "admission note"}
    padded = list(notes)
    for encounter_id, admission in sorted(admissions.items()):
        day = admission.chart_date[:10]
        with_table = rng.sample(range(PADDING_NOTES), TABLES_PER_ENCOUNTER)
        for j in range(PADDING_NOTES):
            text = " ".join(rng.choice(_NURSING) for _ in range(rng.randint(*PADDING_SENTENCES)))
            if j in with_table:
                text += "\n\n" + _lab_table(rng)
            # Admission is charted at 08:00 and the discharge summary after
            # 09:30, so 08:01..08:59 keeps padding between the two.
            padded.append(
                replace(
                    admission,
                    note_id=f"{admission.note_id}-pad{j:02d}",
                    chart_date=f"{day}T08:{1 + j:02d}:00",
                    category="nursing",
                    text="nursing note.\n\n" + text,
                )
            )
    return padded


def _lab_table(rng: random.Random) -> str:
    """Lab rows with no sentence-ending punctuation: one sentence of ~1.2k tokens."""
    rows = []
    for _ in range(rng.randint(*LAB_TABLE_ROWS)):
        lab = rng.choice(_LABS)
        rows.append(f"{lab} {rng.uniform(0.5, 150):.1f} ref {rng.randint(1, 9)} to {rng.randint(10, 99)}")
    return "labs\n" + "\n".join(rows)


def write_notes(path: Path, notes: list) -> None:
    from encsum.jsonl import write_jsonl

    write_jsonl(path, (n.to_record() for n in notes))


def measure_sizes(notes: list) -> InputSizes:
    """Encounters, plus mean source sentences and tokens per encounter.

    Source sentences are those of the notes charted before each discharge
    summary, segmented as encsum segments them.
    """
    from encsum.corpus import assemble_encounters, source_sentences

    encounters, _ = assemble_encounters(notes)
    sentences = tokens = 0
    for encounter in encounters:
        pool = source_sentences(encounter)
        sentences += len(pool)
        tokens += sum(len(s.tokens) for s in pool)
    n = len(encounters)
    return InputSizes(n, len(notes), sentences / n, tokens / n)
