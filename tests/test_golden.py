"""Golden output digests: the sha256 of every file of a fixed 60-stay synthetic
run and of a small edge-case run.

The run (:func:`golden_run`) goes through ``encsum.cli.main``: synth-corpus,
build-dataset, oracle, pseudo-labels, rule-baseline, chunk (the validation
split also under a 6-token budget, so that its long sentences are
hard-windowed), a deterministic scorer written here, merge-scores, sweep,
cutoff and evaluate (packaged gazetteer, ``--gazetteer FILE``,
``--annotations FILE`` and ``--beta 1``), then build-dataset, oracle,
pseudo-labels, chunk, sweep and evaluate again with ``--mask-deid``. The
cutoff system gives the report partial-credit ROUGE and entity arithmetic,
which the oracle and the rule baseline barely reach on the synthetic corpus.
The edge run (:func:`_edge_run`, under ``edge/``) takes the stays of
``EDGE_STAYS`` through every command, with and without ``--mask-deid``: they
hold the data paths that the synthetic corpus never takes, and
``test_edge_paths_run`` checks in the outputs that each was taken. The run
is checked in-process and once more in a subprocess under another
``PYTHONHASHSEED``.

A change that alters output bytes on purpose regenerates the digests with::

    PYTHONPATH=src python tests/test_golden.py --regenerate

which prints each added, removed and changed digest; name each of them, and
why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean

import pytest

import encsum
from encsum.cli import main
from encsum.jsonl import read_jsonl
from encsum.pipeline import ScoredSentence, apply_cutoff, summary_text
from encsum.rouge import rouge_l
from encsum.sections import SectionName
from encsum.textproc import normalize, tokenize

GOLDEN = Path(__file__).with_name("golden_digests.json")

# The section that the sweep and the cutoff system run on.
SWEEP_SECTION = SectionName.HISTORY_OF_PRESENT_ILLNESS.value
GAZETTEER_TERMS = ("hypertension", "chest pain", "aspirin", "copd", "fever", "lives alone")


def _run(*argv) -> None:
    argv = ["--quiet", *map(str, argv)]
    code = main(argv)
    if code != 0:
        raise AssertionError(f"encsum {' '.join(argv)} exited {code}")


def _write_scores(segments: Path, out: Path) -> None:
    """A score file that depends only on each segment's number and sentence keys."""
    rows = []
    for line in segments.read_text("utf-8").splitlines():
        segment = json.loads(line)
        number = int(segment["segment_id"].rsplit("/", 1)[1])
        rows.append({
            "segment_id": segment["segment_id"],
            "scores": [
                {"doc": s["doc"], "sent": s["sent"],
                 "score": ((7 * s["doc"] + 3 * s["sent"] + number) % 11) / 10}
                for s in segment["sentences"]
            ],
        })
    out.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


def _write_annotations(data: Path, out: Path) -> None:
    """Entity annotations for every test encounter, from its position in encounter-id order."""
    section_file = data / "sections" / f"{SWEEP_SECTION}__test.jsonl"
    ids = sorted(
        json.loads(line)["encounter_id"] for line in section_file.read_text("utf-8").splitlines()
    )
    rows = []
    for i, encounter_id in enumerate(ids):
        rows.append({"key": f"enc:{encounter_id}:src", "entities": ["htn", "cad", f"x{i % 3}"]})
        for section in SectionName:
            prefix = f"enc:{encounter_id}:{section.value}"
            rows.append({"key": f"{prefix}:ref", "entities": ["htn", f"x{i % 2}"]})
            rows.append({"key": f"{prefix}:sys:oracle_ext", "entities": ["htn", "cad"]})
            rows.append({"key": f"{prefix}:sys:cutoff_ext", "entities": [f"x{i % 4}", "gout"]})
    out.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


def _extract_run(data: Path, out: Path, mask: tuple[str, ...]) -> None:
    """oracle, pseudo-labels, chunk, scores, merge-scores, sweep and cutoff into
    ``out``; the validation split is also chunked under a 6-token budget, which
    hard-windows its longer sentences, and merged from its scores."""
    systems = out / "systems"
    _run(*mask, "oracle", "--dataset", data, "--split", "test",
         "--out", systems / "sys_oracle.jsonl")
    _run(*mask, "pseudo-labels", "--dataset", data, "--split", "train",
         "--out", out / "labels.jsonl")
    for split in ("validation", "test"):
        segments = out / f"segments_{split}.jsonl"
        _run(*mask, "chunk", "--dataset", data, "--split", split, "--max-tokens", 48,
             "--out", segments)
        _write_scores(segments, out / f"scores_{split}.jsonl")
        _run("merge-scores", "--segments", segments, "--scores", out / f"scores_{split}.jsonl",
             "--out", out / f"merged_{split}.jsonl")
    windowed = out / "segments_validation_windowed.jsonl"
    _run(*mask, "chunk", "--dataset", data, "--split", "validation", "--max-tokens", 6,
         "--out", windowed)
    _write_scores(windowed, out / "scores_validation_windowed.jsonl")
    _run("merge-scores", "--segments", windowed,
         "--scores", out / "scores_validation_windowed.jsonl",
         "--out", out / "merged_validation_windowed.jsonl")
    _run(*mask, "sweep", "--dataset", data, "--section", SWEEP_SECTION,
         "--merged", out / "merged_validation.jsonl", "--out", out / "sweep.json")
    _run("cutoff", "--merged", out / "merged_test.jsonl", "--section", SWEEP_SECTION,
         "--system", "cutoff_ext", "--sweep", out / "sweep.json",
         "--out", systems / "sys_cutoff.jsonl")


# The edge-case corpus: each stay is (encounter_id, its notes as (chart_date,
# category, text)). A stay's subject is its encounter_id with "subj-" in
# front; a note's id is the encounter_id and the note's position. The comment
# above a stay names the data path it takes; test_edge_paths_run checks each.
EDGE_STAYS = (
    # Assembly drops the first three stays, one per diagnostic, under
    # --require-admission.
    ("edge-01-no-discharge", (
        ("2041-03-01T08:00", "admission note",
         "Chief Complaint: cough.\n\nHPI:\nCough for a week."),
        ("2041-03-02T09:00", "nursing", "Patient resting comfortably."),
    )),
    ("edge-02-two-discharges", (
        ("2041-03-01T08:00", "admission note",
         "Chief Complaint: fever.\n\nHPI:\nFever since Monday."),
        ("2041-03-03T10:00", "discharge summary",
         "Chief Complaint: fever.\n\nHPI:\nFever since Monday."),
        ("2041-03-03T11:00", " Discharge Summary",
         "Chief Complaint: fever.\n\nHPI:\nFever resolved."),
    )),
    ("edge-03-no-admission", (
        ("2041-03-01T08:00", "nursing", "Patient admitted overnight with dizziness."),
        ("2041-03-02T10:00", "discharge summary",
         "Chief Complaint: dizziness.\n\nHPI:\nDizziness on standing."),
    )),
    # A note charted after the discharge summary leaves the stay.
    ("edge-04-late-note", (
        ("2041-03-04T08:00", "admission note",
         "Chief Complaint: chest pain.\n\nHistory of Present Illness:\nPatient is a [ age ] year"
         " old with hypertension presenting with chest pain. Pain began two days prior to"
         " admission.\n\nPast Medical History:\n# hypertension\n# cad\n\nAllergies:\nNone."),
        ("2041-03-05T09:00", "nursing", "Progress note.\n\nTroponin was negative. Pain resolved."),
        ("2041-03-06T10:00", "discharge summary",
         "Chief Complaint: chest pain.\n\nHistory of Present Illness:\nPatient is a [ age ] year"
         " old with hypertension presenting with chest pain.\n\nPast Medical History:\n"
         "# hypertension\n# cad\n\nBrief Hospital Course:\nTroponin was negative. Pain"
         " resolved.\n\nDischarge Disposition:\nHome."),
        ("2041-03-07T11:00", "nursing", "Follow-up call: patient doing well at home."),
    )),
    # A header line holding U+0130, which lowercases to two characters, in
    # the discharge summary and in the admission note.
    ("edge-05-dotted-capital-i", (
        ("2041-03-08T08:00", "admission note",
         "Chief Complaint: \u0130leus and abdominal pain.\nHistory of Present Illness:\n\u0130leus after"
         " surgery. Abdominal pain began yesterday.\nSocial History:\nLives with spouse."),
        ("2041-03-10T10:00", "discharge summary",
         "Admission Date: 2041-03-08\nChief Complaint: \u0130leus and abdominal pain.\nHistory of"
         " Present Illness:\n\u0130leus after surgery. Abdominal pain began yesterday.\nSocial"
         " History:\nLives with spouse.\nBrief Hospital Course:\nBowel rest and fluids."
         " Symptoms improved with supportive care.\nDischarge Disposition:\nHome."),
    )),
    # Headers after "\r\n", "\u2028" and "\x85" line breaks.
    ("edge-06-crlf", (
        ("2041-03-11T08:00", "admission note",
         "Chief Complaint: syncope.\r\n\r\nHistory of Present Illness:\r\nSyncope while"
         " walking. No chest pain.\r\n\r\nFamily History:\r\nFather with cad."),
        ("2041-03-12T10:00", "discharge summary",
         "Chief Complaint: syncope.\r\n\r\nHistory of Present Illness:\r\nSyncope while"
         " walking. No chest pain.\r\n\r\nFamily History:\r\nFather with cad.\r\n\r\nBrief"
         " Hospital Course:\r\nMonitored on telemetry.\r\n\r\nDischarge Disposition:\r\nHome."),
    )),
    ("edge-07-line-separator", (
        ("2041-03-13T08:00", "admission note",
         "Chief Complaint: weakness.\u2028History of Present Illness:\u2028Weakness for three"
         " days. Poor oral intake.\u2028Social History:\u2028Retired."),
        ("2041-03-14T10:00", "discharge summary",
         "Chief Complaint: weakness.\u2028History of Present Illness:\u2028Weakness for three"
         " days. Poor oral intake.\u2028Social History:\u2028Retired.\u2028Brief Hospital"
         " Course:\u2028Given fluids.\u2028Discharge Disposition:\u2028Home."),
    )),
    ("edge-08-next-line", (
        ("2041-03-15T08:00", "admission note",
         "Chief Complaint: nausea.\x85History of Present Illness:\x85Nausea after meals."
         " Denies fever.\x85Family History:\x85Mother with gerd."),
        ("2041-03-16T10:00", "discharge summary",
         "Chief Complaint: nausea.\x85History of Present Illness:\x85Nausea after meals."
         " Denies fever.\x85Family History:\x85Mother with gerd.\x85Brief Hospital Course:"
         "\x85Started pantoprazole.\x85Discharge Disposition:\x85Home."),
    )),
    # Numbered list lines, "#" and "-" lines and a lab table.
    ("edge-09-lists-and-labs", (
        ("2041-03-17T08:00", "admission note",
         "Chief Complaint: edema.\n\nHistory of Present Illness:\nLeg edema for a month.\n\n"
         "Medications on Admission:\n1. aspirin 81 mg daily\n2. metoprolol 25 mg twice daily\n"
         " 3. atorvastatin 40 mg at bedtime\n\nPast Medical History:\n# atrial fibrillation\n"
         "# ckd\n- hypothyroidism\n\nLabs:\nNa 139  K 4.4  Cl 101  HCO3 24\n"
         "BUN 32  Cr 1.9  Glu 110\nWBC 7.2  Hgb 10.9  Plt 210"),
        ("2041-03-19T10:00", "discharge summary",
         "Chief Complaint: edema.\n\nHistory of Present Illness:\nLeg edema for a month.\n\n"
         "Medications on Admission:\n1. aspirin 81 mg daily\n2. metoprolol 25 mg twice daily\n"
         " 3. atorvastatin 40 mg at bedtime\n\nPast Medical History:\n# atrial fibrillation\n"
         "# ckd\n- hypothyroidism\n\nBrief Hospital Course:\nDiuresed with furosemide.\n\n"
         "Discharge Disposition:\nHome."),
    )),
    # A de-identification bracket that a sentence boundary splits: "[ Dr." ends
    # a sentence, so the masked sweep tokenises each lane's joined text.
    ("edge-10-split-bracket", (
        ("2041-03-20T08:00", "admission note",
         "Chief Complaint: dyspnea.\n\nHistory of Present Illness:\nSeen by [ Dr. Smith ] in"
         " clinic last week. Reports worsening dyspnea.\n\nSocial History:\nQuit smoking"
         " [ year 10 ] ago."),
        ("2041-03-22T10:00", "discharge summary",
         "Chief Complaint: dyspnea.\n\nHistory of Present Illness:\nSeen by [ Dr. Smith ] in"
         " clinic last week. Reports worsening dyspnea.\n\nSocial History:\nQuit smoking"
         " [ year 10 ] ago.\n\nBrief Hospital Course:\nTreated for copd exacerbation.\n\n"
         "Discharge Disposition:\nHome."),
    )),
    # One sentence in three notes, twice with other case and spacing: the
    # sweep and the cutoff keep one of them by its dedup key.
    ("edge-11-repeated-sentence", (
        ("2041-03-23T08:00", "admission note",
         "Chief Complaint: fever.\n\nHistory of Present Illness:\nFever and chills. Patient"
         " remained afebrile overnight."),
        ("2041-03-24T09:00", "nursing", "Progress note.\n\nPatient remained afebrile overnight."
         " Ambulating in the hallway."),
        ("2041-03-24T21:00", "nursing", "Progress note.\n\npatient  remained AFEBRILE overnight."
         " Tolerating diet."),
        ("2041-03-25T10:00", "discharge summary",
         "Chief Complaint: fever.\n\nHistory of Present Illness:\nFever and chills.\n\nBrief"
         " Hospital Course:\nPatient remained afebrile overnight. Ambulating in the hallway."
         " Tolerating diet.\n\nDischarge Disposition:\nHome."),
    )),
    # A sentence longer than the chunk budget of 48 tokens, hard-windowed.
    ("edge-12-long-sentence", (
        ("2041-03-26T08:00", "admission note",
         "Chief Complaint: chest pressure.\n\nHistory of Present Illness:\nPatient describes a"
         " long history of intermittent chest pressure radiating to the left arm with exertion"
         " and at rest accompanied by diaphoresis and nausea and lightheadedness and shortness"
         " of breath that has progressively worsened over the last three months despite"
         " adherence to aspirin and metoprolol and atorvastatin and the lifestyle changes"
         " recommended by the cardiology clinic at the previous visit in the spring. Stress"
         " test was positive."),
        ("2041-03-28T10:00", "discharge summary",
         "Chief Complaint: chest pressure.\n\nHistory of Present Illness:\nIntermittent chest"
         " pressure radiating to the left arm for three months. Stress test was positive.\n\n"
         "Brief Hospital Course:\nCardiac catheterization showed cad.\n\nDischarge"
         " Disposition:\nHome."),
    )),
)
EDGE_SPLIT = "validation"


def _write_edge_notes(out: Path) -> None:
    rows = [
        {"note_id": f"{encounter_id}/{i}", "subject_id": f"subj-{encounter_id}",
         "encounter_id": encounter_id, "chart_date": chart_date, "category": category,
         "text": text}
        for encounter_id, notes in EDGE_STAYS
        for i, (chart_date, category, text) in enumerate(notes)
    ]
    out.write_text("".join(json.dumps(r) + "\n" for r in rows), "utf-8")


def _edge_run(root: Path) -> None:
    """Every command on the edge-case corpus into ``root``, with and without
    ``--mask-deid``. All stays go to one split, which every command reads, so
    that each stay takes every path."""
    root.mkdir(parents=True, exist_ok=True)
    notes = root / "notes.jsonl"
    _write_edge_notes(notes)
    data = root / "data"
    build = ("build-dataset", "--notes", notes, "--seed", 13, "--ratios", "0,1,0",
             "--require-admission")
    _run(*build, "--out", data)
    _run("--mask-deid", *build, "--out", root / "data_masked")
    split = ("--dataset", data, "--split", EDGE_SPLIT)
    for mask, out in (((), root / "plain"), (("--mask-deid",), root / "masked")):
        systems = out / "systems"
        _run(*mask, "oracle", *split, "--out", systems / "sys_oracle.jsonl")
        _run(*mask, "pseudo-labels", *split, "--out", out / "labels.jsonl")
        _run(*mask, "rule-baseline", *split, "--out", systems / "sys_rule.jsonl")
        _run(*mask, "chunk", *split, "--max-tokens", 48, "--out", out / "segments.jsonl")
        _write_scores(out / "segments.jsonl", out / "scores.jsonl")
        _run("merge-scores", "--segments", out / "segments.jsonl",
             "--scores", out / "scores.jsonl", "--out", out / "merged.jsonl")
        _run(*mask, "sweep", *split, "--section", SWEEP_SECTION,
             "--merged", out / "merged.jsonl", "--out", out / "sweep.json")
        _run("cutoff", "--merged", out / "merged.jsonl", "--section", SWEEP_SECTION,
             "--system", "cutoff_ext", "--sweep", out / "sweep.json",
             "--out", systems / "sys_cutoff.jsonl")
        _run(*mask, "evaluate", *split, "--systems", systems / "sys_*.jsonl",
             "--out", out / "report")


def golden_run(root: Path) -> dict[str, str]:
    """Run every command into ``root``; map each file's relative path to its sha256."""
    root = Path(root)
    _edge_run(root / "edge")
    notes = root / "notes.jsonl"
    _run("synth-corpus", "--out", notes, "--encounters", 60, "--seed", 7)
    data = root / "data"
    _run("build-dataset", "--notes", notes, "--out", data, "--seed", 13)
    _run("--mask-deid", "build-dataset", "--notes", notes, "--out", root / "data_masked",
         "--seed", 13)

    plain = root / "plain"
    _extract_run(data, plain, ())
    _run("rule-baseline", "--dataset", data, "--split", "test",
         "--out", plain / "systems" / "sys_rule.jsonl")
    systems = plain / "systems" / "sys_*.jsonl"
    (root / "terms.txt").write_text("\n".join(GAZETTEER_TERMS) + "\n", "utf-8")
    _write_annotations(data, root / "annotations.jsonl")
    _run("evaluate", "--dataset", data, "--systems", systems, "--out", plain / "report")
    _run("evaluate", "--dataset", data, "--systems", systems,
         "--gazetteer", root / "terms.txt", "--out", plain / "report_gazetteer")
    _run("evaluate", "--dataset", data, "--systems", systems,
         "--annotations", root / "annotations.jsonl", "--out", plain / "report_annotations")
    _run("evaluate", "--dataset", data, "--systems", systems, "--beta", 1,
         "--out", plain / "report_beta1")

    masked = root / "masked"
    _extract_run(data, masked, ("--mask-deid",))
    _run("--mask-deid", "evaluate", "--dataset", data,
         "--systems", masked / "systems" / "sys_*.jsonl", "--out", masked / "report")

    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text("utf-8"))


def _differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def _changes(new: dict[str, str], old: dict[str, str]) -> list[str]:
    """One line per digest that ``new`` adds to, removes from or changes in ``old``."""
    return [
        f"{'added' if name not in old else 'removed' if name not in new else 'changed'} {name}"
        for name in _differences(new, old)
    ]


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The root of one golden run and its digests."""
    root = tmp_path_factory.mktemp("golden")
    return root, golden_run(root)


def test_digests_match_golden(golden):
    assert _differences(golden[1], _golden()) == []


def test_jsonl_outputs_survive_splitlines(golden):
    # JSON escapes every line break but U+0085, U+2028 and U+2029, which the
    # writer escapes too: ``str.splitlines`` then breaks a file only at "\n".
    root, digests = golden
    names = [name for name in digests if name.endswith(".jsonl")]
    assert any(name.startswith("edge/") for name in names)
    for name in names:
        text = (root / name).read_text("utf-8")
        lines = text.splitlines()
        assert len(lines) == text.count("\n"), name
        assert all(isinstance(json.loads(line), dict) for line in lines), name


def test_digests_independent_of_hash_seed(tmp_path):
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(encsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, __file__, "--print", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert _differences(json.loads(done.stdout), _golden()) == []


def _by_encounter(path: Path) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in read_jsonl(path):
        out.setdefault(record["encounter_id"], []).append(record)
    return out


def test_edge_paths_run(tmp_path):
    """Each edge stay's path shows in the outputs of the edge run."""
    _edge_run(tmp_path)
    data = tmp_path / "data"
    manifest = json.loads((data / "manifest.json").read_text("utf-8"))
    assert manifest["assembly_diagnostics"] == {
        "no_discharge": 1, "multiple_discharge": 1, "missing_admission": 1,
        "notes_after_discharge": 1,
    }
    records = read_jsonl(data / f"encounters__{EDGE_SPLIT}.jsonl")
    encounters = {r["encounter_id"]: r for r in records}
    assert sorted(encounters) == [stay for stay, _ in EDGE_STAYS[3:]]
    assert [n["chart_date"] for n in encounters["edge-04-late-note"]["prior_notes"]] == [
        "2041-03-04T08:00", "2041-03-05T09:00"
    ]

    # Every header is found after a U+0130 or an unusual line break, and each
    # instance's span slices its reference out of the discharge summary.
    found: dict[str, set[str]] = {}
    for section in SectionName:
        for record in read_jsonl(data / "sections" / f"{section.value}__{EDGE_SPLIT}.jsonl"):
            summary = encounters[record["encounter_id"]]["discharge_summary"]["text"]
            assert summary[record["start"]:record["end"]] == record["text"]
            found.setdefault(record["encounter_id"], set()).add(section.value)
    for stay in ("edge-05-dotted-capital-i", "edge-06-crlf", "edge-07-line-separator",
                 "edge-08-next-line"):
        assert {"chief_complaint", "history_of_present_illness",
                "brief_hospital_course"} <= found[stay], stay
    rule = {(r["encounter_id"], r["section"]): r["text"]
            for r in read_jsonl(tmp_path / "plain" / "systems" / "sys_rule.jsonl")}
    assert rule["edge-05-dotted-capital-i", "social_history"] == "Lives with spouse."

    # Numbered, "#" and "-" lines are sentences of their own; the lab table
    # is one; the long sentence is windowed.
    segments = _by_encounter(tmp_path / "plain" / "segments.jsonl")
    texts = [s["text"] for seg in segments["edge-09-lists-and-labs"] for s in seg["sentences"]]
    for line in ("1. aspirin 81 mg daily", "2. metoprolol 25 mg twice daily",
                 "3. atorvastatin 40 mg at bedtime", "# ckd", "- hypothyroidism"):
        assert line in texts
    assert [t for t in texts if "Na 139" in t] == [
        "Labs:\nNa 139  K 4.4  Cl 101  HCO3 24\nBUN 32  Cr 1.9  Glu 110\nWBC 7.2  Hgb 10.9  Plt 210"
    ]
    keys = [tuple(map(s.get, ("doc", "sent")))
            for seg in segments["edge-12-long-sentence"] for s in seg["sentences"]]
    assert len(keys) > len(set(keys))

    # Each sweep equals the slow path: the ROUGE-L F1 of the deduplicated
    # summary's joined text at every threshold. The merged scores hold a
    # sentence ending inside a bracket, which masking joins with the next
    # one, and a sentence under three dedup-equal texts.
    for out, mask in ((tmp_path / "plain", False), (tmp_path / "masked", True)):
        merged = {
            r["encounter_id"]: [ScoredSentence((s["doc"], s["sent"]), s["score"], s["text"])
                                for s in r["sentences"]]
            for r in read_jsonl(out / "merged.jsonl")
        }
        assert any(s.text.rfind("[") > s.text.rfind("]")
                   for s in merged["edge-10-split-bracket"])
        repeated = [s for s in merged["edge-11-repeated-sentence"]
                    if s.dedup_key == "patient remained afebrile overnight."]
        assert len({s.text for s in repeated}) == 2 and len(repeated) == 3
        references = read_jsonl(data / "sections" / f"{SWEEP_SECTION}__{EDGE_SPLIT}.jsonl")
        sweep = json.loads((out / "sweep.json").read_text("utf-8"))
        slow = [
            fmean(
                rouge_l(
                    tokenize(summary_text(apply_cutoff(merged[r["encounter_id"]], t)), mask),
                    tokenize(r["text"], mask),
                ).f1
                for r in references
            )
            for t in sweep["thresholds"]
        ]
        assert sweep["mean_rouge_l_f1"] == slow
        cutoff = _by_encounter(out / "systems" / "sys_cutoff.jsonl")
        lines = cutoff["edge-11-repeated-sentence"][0]["text"].split("\n")
        assert sum(normalize(line) == repeated[0].dedup_key for line in lines) == 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--print"] and len(sys.argv) == 3:
        print(json.dumps(golden_run(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--regenerate"]:
        with tempfile.TemporaryDirectory() as tmp:
            digests = golden_run(Path(tmp))
        old = _golden() if GOLDEN.exists() else {}
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
        print("\n".join([*_changes(digests, old), f"wrote {len(digests)} digests to {GOLDEN}"]))
    else:
        sys.exit("usage: test_golden.py --regenerate | --print DIR")
