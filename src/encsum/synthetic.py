"""Deterministic synthetic note corpus for demos, tests, and the end-to-end run.

Every synthetic discharge summary carries all seven target sections, and every
section body also appears verbatim (with its header) in the encounter's
admission note, so reference sentences are always recoverable from the source
pool. Extra admission-note-only sentences and filler notes add realistic noise
for the rule-based baseline and the entity measures. Bodies use gazetteer
vocabulary so the faithfulness columns are populated.
"""

from __future__ import annotations

import random
from pathlib import Path

from .corpus import ClinicalNote
from .jsonl import write_jsonl
from .sections import SectionName

_CONDITIONS = (
    "hypertension", "hyperlipidemia", "diabetes mellitus", "cad", "copd",
    "asthma", "atrial fibrillation", "chf", "ckd", "gerd", "anemia", "gout",
    "hypothyroidism", "dementia", "stable angina", "osteoarthritis",
)
_COMPLAINTS = (
    "chest pain", "shortness of breath", "abdominal pain", "fever",
    "altered mental status", "syncope", "back pain", "cough", "dizziness",
    "nausea", "gi bleed", "weakness",
)
_MEDICATIONS = (
    "aspirin 81 mg daily", "lisinopril 10 mg daily", "metoprolol 25 mg twice daily",
    "atorvastatin 40 mg at bedtime", "furosemide 40 mg daily", "insulin sliding scale",
    "metformin 500 mg twice daily", "pantoprazole 40 mg daily",
    "albuterol inhaler as needed", "warfarin 5 mg daily",
    "gabapentin 300 mg three times daily", "levothyroxine 50 mcg daily",
)
_SOCIAL = (
    "lives alone.", "lives with spouse.", "retired.", "denies tobacco use.",
    "quit smoking [ year 10 ] ago.", "denies alcohol abuse.",
    "occasional alcohol use.", "former tobacco use.", "works as a teacher.",
)
_FAMILY = (
    "mother with hypertension.", "father with cad.", "no family history of cancer.",
    "non-contributory.", "sister with diabetes mellitus.",
    "father had myocardial infarction.", "no known family history of arrhythmia.",
)
_EVENTS = (
    "patient was admitted with {complaint}.",
    "an ekg showed sinus rhythm.",
    "chest x-ray showed no consolidation.",
    "troponin was negative.",
    "creatinine remained at baseline.",
    "patient was started on ceftriaxone for pneumonia.",
    "blood pressure was controlled on lisinopril.",
    "patient remained afebrile.",
    "symptoms improved with supportive care.",
    "patient was monitored on telemetry.",
    "an echocardiogram showed no pleural effusion.",
    "physical therapy evaluated the patient.",
)
_HPI_TEMPLATES = (
    "patient is a [ age ] year old with {conditions} presenting with {complaint}.",
    "the patient reports {complaint} beginning two days prior to admission.",
    "symptoms were associated with {symptom}.",
    "patient denies {symptom}.",
    "in the emergency department vitals were stable.",
)
_SYMPTOMS = ("nausea", "vomiting", "fever", "chills", "dyspnea", "headache", "edema")
_FILLER = (
    "vital signs stable overnight.",
    "patient resting comfortably.",
    "continue current plan of care.",
    "labs reviewed without acute change.",
    "no acute events overnight.",
    "nursing note reviewed.",
)

SECTION_LAYOUT = tuple(name.value for name in SectionName)


def _sentence_pool(rng: random.Random, complaint: str) -> dict[str, list[str]]:
    conditions = rng.sample(_CONDITIONS, k=rng.randint(2, 4))
    meds = rng.sample(_MEDICATIONS, k=rng.randint(2, 4))
    hpi = [
        t.format(
            conditions=" and ".join(conditions[:2]),
            complaint=complaint,
            symptom=rng.choice(_SYMPTOMS),
        )
        for t in rng.sample(_HPI_TEMPLATES, k=rng.randint(2, 3))
    ]
    course = [
        t.format(complaint=complaint)
        for t in rng.sample(_EVENTS, k=rng.randint(3, 5))
    ]
    return {
        "chief_complaint": [f"{complaint}."],
        "family_history": rng.sample(_FAMILY, k=rng.randint(1, 2)),
        "social_history": rng.sample(_SOCIAL, k=rng.randint(1, 3)),
        "medications_on_admission": [f"# {m}." for m in meds],
        "past_medical_history": [f"# {c}." for c in conditions],
        "history_of_present_illness": hpi,
        "brief_hospital_course": course,
    }


def _render_note(sections: dict[str, list[str]], order=SECTION_LAYOUT, trailer: str = "") -> str:
    parts = []
    for name in order:
        if name in sections:
            parts.append(name.replace("_", " ") + ":")
            parts.append("")
            parts.append(" ".join(sections[name]))
            parts.append("")
    if trailer:
        parts.extend([trailer, ""])
    return "\n".join(parts)


def generate_notes(n_encounters: int = 50, seed: int = 7) -> list[ClinicalNote]:
    """Build a deterministic corpus of admission/progress/discharge notes."""
    rng = random.Random(seed)
    notes: list[ClinicalNote] = []
    for i in range(n_encounters):
        subject_id = f"subj-{i:04d}"
        encounter_id = f"enc-{i:04d}"
        day = (i % 27) + 1
        complaint = rng.choice(_COMPLAINTS)
        pool = _sentence_pool(rng, complaint)

        def stamp(hour: int, minute: int = 0) -> str:
            return f"2040-01-{day:02d}T{hour:02d}:{minute:02d}:00"

        # Admission note: the reference bodies plus admission-only extras.
        admission_sections = {name: list(body) for name, body in pool.items()}
        admission_sections["history_of_present_illness"] = (
            admission_sections["history_of_present_illness"]
            + [f"patient also reports {rng.choice(_SYMPTOMS)} at home."]
        )
        admission_text = _render_note(
            admission_sections,
            order=[s for s in SECTION_LAYOUT if s != "brief_hospital_course"],
            trailer="allergies:\n\nno known drug allergies.",
        )
        notes.append(
            ClinicalNote(
                note_id=f"note-{i:04d}-adm",
                subject_id=subject_id,
                encounter_id=encounter_id,
                chart_date=stamp(8),
                category="admission note",
                text=admission_text,
            )
        )

        # Progress notes: hospital-course sentences plus filler, no headers.
        hour = 8
        for j, chunk in enumerate(_chunks(pool["brief_hospital_course"], 2)):
            hour = 9 + j
            body = chunk + rng.sample(_FILLER, k=rng.randint(1, 2))
            notes.append(
                ClinicalNote(
                    note_id=f"note-{i:04d}-prog{j}",
                    subject_id=subject_id,
                    encounter_id=encounter_id,
                    chart_date=stamp(hour),
                    category="nursing",
                    text="progress note.\n\n" + " ".join(body),
                )
            )

        discharge_text = _render_note(
            pool, trailer="discharge disposition:\n\nhome."
        )
        notes.append(
            ClinicalNote(
                note_id=f"note-{i:04d}-ds",
                subject_id=subject_id,
                encounter_id=encounter_id,
                chart_date=stamp(hour + 1, 30),
                category="discharge summary",
                text=discharge_text,
            )
        )
    return notes


def _chunks(items: list[str], size: int) -> list[list[str]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def write_corpus(path: str | Path, n_encounters: int = 50, seed: int = 7) -> int:
    notes = generate_notes(n_encounters=n_encounters, seed=seed)
    write_jsonl(path, (n.to_record() for n in notes))
    return len(notes)
