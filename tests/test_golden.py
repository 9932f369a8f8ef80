"""Golden output digests: the sha256 of every file of a fixed 60-stay synthetic run.

The run (:func:`golden_run`) goes through ``encsum.cli.main``: synth-corpus,
build-dataset, oracle, pseudo-labels, rule-baseline, chunk (the validation
split also under a 6-token budget, so that its long sentences are
hard-windowed), a deterministic scorer written here, merge-scores, sweep,
cutoff and evaluate (packaged gazetteer, ``--gazetteer FILE``,
``--annotations FILE`` and ``--beta 1``), then build-dataset, oracle,
pseudo-labels, chunk, sweep and evaluate again with ``--mask-deid``. The cutoff system gives the report partial-credit ROUGE
and entity arithmetic, which the oracle and the rule baseline barely reach on
the synthetic corpus. The run is checked in-process and once more in a
subprocess under another ``PYTHONHASHSEED``.

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

import encsum
from encsum.cli import main
from encsum.sections import SectionName

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


def golden_run(root: Path) -> dict[str, str]:
    """Run every command into ``root``; map each file's relative path to its sha256."""
    root = Path(root)
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


def test_digests_match_golden(tmp_path):
    assert _differences(golden_run(tmp_path), _golden()) == []


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
