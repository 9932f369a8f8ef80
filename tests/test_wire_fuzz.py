"""Malformed wire-format inputs end in exit 0 or 1, never in a traceback.

For notes, an encounter file, a section file, system summaries, entity
annotations and the sweep file, one field of one record is
replaced or deleted, or one line gets a byte that is not UTF-8 or a repeated
key, and a command that reads the file runs in-process. The header rules file
gets one value or list element replaced or deleted, or a key repeated, and a
gazetteer file one line replaced. An exception that ``main`` does not catch
fails the test. A command that fails logs one error, naming the file, and the
line when one record is at fault. A leading byte-order mark on any input
leaves every output as it was.
"""

from __future__ import annotations

import codecs
import json
import logging
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from encsum import cli
from encsum.cli import main
from encsum.corpus import NOTE_FIELDS
from encsum.jsonl import read_jsonl, write_jsonl
from tests.conftest import output_bytes

# What the fuzz puts in place of one field.
FUZZ_VALUES = [None, True, 0, -1, 1e30, float("nan"), "", "Ünïcødé ✓", [1], {"a": 1}]

NOTE_PATHS = tuple((name,) for name in NOTE_FIELDS)
ENCOUNTER_PATHS = (
    ("subject_id",), ("encounter_id",), ("prior_notes",), ("discharge_summary",),
    *(("prior_notes", 0, name) for name in NOTE_FIELDS),
    *(("discharge_summary", name) for name in NOTE_FIELDS),
)
SECTION = "chief_complaint"

# name: (the file, relative to the workspace; its field paths; whether its
# readers skip a bad line with a warning; the commands that read it)
TARGETS = {
    "notes": ("notes.jsonl", NOTE_PATHS, True, [
        ("build-dataset", "--notes", "{file}", "--out", "{out}", "--seed", "11",
         "--require-admission"),
    ]),
    "encounters": ("data/encounters__test.jsonl", ENCOUNTER_PATHS, False, [
        ("chunk", "--dataset", "{data}", "--split", "test", "--out", "{out}"),
        *((command, "--dataset", "{data}", "--split", "test", "--out", "{out}")
          for command in ("rule-baseline", "oracle", "pseudo-labels")),
        ("evaluate", "--dataset", "{data}", "--systems", "{root}/sys_oracle.jsonl",
         "--split", "test", "--out", "{out}"),
    ]),
    "sections": (
        f"data/sections/{SECTION}__test.jsonl",
        tuple((name,) for name in ("encounter_id", "section", "text", "start", "end")),
        False,
        [
            *((command, "--dataset", "{data}", "--section", SECTION, "--split", "test",
               "--out", "{out}")
              for command in ("rule-baseline", "oracle", "pseudo-labels")),
            ("evaluate", "--dataset", "{data}", "--systems", "{root}/sys_oracle.jsonl",
             "--section", SECTION, "--split", "test", "--out", "{out}"),
            ("sweep", "--dataset", "{data}", "--section", SECTION, "--split", "test",
             "--merged", "{root}/merged.jsonl", "--out", "{out}"),
        ],
    ),
    "summaries": (
        "sys_oracle.jsonl",
        tuple((name,) for name in ("encounter_id", "section", "system", "text")),
        False,
        [("evaluate", "--dataset", "{data}", "--systems", "{file}", "--split", "test",
          "--out", "{out}")],
    ),
    "annotations": ("annotations.jsonl", (("key",), ("entities",)), True, [
        ("evaluate", "--dataset", "{data}", "--systems", "{root}/sys_oracle.jsonl",
         "--split", "test", "--annotations", "{file}", "--out", "{out}"),
    ]),
    "sweep": (
        "sweep.json",
        tuple((name,) for name in ("section", "thresholds", "mean_rouge_l_f1",
                                   "chosen_threshold")),
        False,
        [("cutoff", "--merged", "{root}/merged.jsonl", "--section", SECTION,
          "--sweep", "{file}", "--out", "{out}")],
    ),
}
RULES_READERS = [
    ("build-dataset", "--notes", "{root}/notes.jsonl", "--rules", "{file}", "--out", "{out}",
     "--seed", "11", "--require-admission"),
    ("rule-baseline", "--dataset", "{data}", "--split", "test", "--rules", "{file}",
     "--out", "{out}"),
]
GAZETTEER_READER = ("evaluate", "--dataset", "{data}", "--systems", "{root}/sys_oracle.jsonl",
                    "--split", "test", "--gazetteer", "{file}", "--out", "{out}")

def run(*argv) -> tuple[int, list[str]]:
    """``main``'s exit code (2 for a usage error) and the errors it logged."""
    errors: list[str] = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = lambda record: errors.append(record.getMessage())
    logging.getLogger("encsum").addHandler(handler)
    try:
        return main(["--quiet", *map(str, argv)]), errors
    except SystemExit as exc:
        return exc.code, errors
    finally:
        logging.getLogger("encsum").removeHandler(handler)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 12-stay dataset with an oracle system on its test split, entity
    annotations for it, a sweep over scored test segments, and copies of the
    packaged header rules and gazetteer."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert run("synth-corpus", "--out", root / "notes.jsonl", "--encounters", 12,
               "--seed", 3) == (0, [])
    assert run("build-dataset", "--notes", root / "notes.jsonl", "--out", data,
               "--seed", 11, "--require-admission") == (0, [])
    assert run("oracle", "--dataset", data, "--split", "test",
               "--out", root / "sys_oracle.jsonl") == (0, [])
    summaries = read_jsonl(root / "sys_oracle.jsonl")
    keys = sorted({f"enc:{r['encounter_id']}:src" for r in summaries}) + [
        f"enc:{r['encounter_id']}:{r['section']}:sys:{r['system']}" for r in summaries
    ]
    write_jsonl(root / "annotations.jsonl", (
        {"key": key, "entities": ["chest pain", "htn"][:1 + i % 2]} for i, key in enumerate(keys)
    ))
    segments = root / "segments.jsonl"
    assert run("chunk", "--dataset", data, "--split", "test", "--max-tokens", 32,
               "--out", segments) == (0, [])
    write_jsonl(root / "scores.jsonl", (
        {"segment_id": row["segment_id"], "scores": [
            {"doc": s["doc"], "sent": s["sent"], "score": (3 * s["doc"] + s["sent"]) % 5 / 4}
            for s in row["sentences"]
        ]}
        for row in read_jsonl(segments)
    ))
    assert run("merge-scores", "--segments", segments, "--scores", root / "scores.jsonl",
               "--out", root / "merged.jsonl") == (0, [])
    assert run("sweep", "--dataset", data, "--section", SECTION, "--split", "test",
               "--merged", root / "merged.jsonl", "--out", root / "sweep.json") == (0, [])
    packaged = Path(cli.__file__).parent / "data"
    shutil.copy(packaged / "section_headers.json", root / "rules.json")
    shutil.copy(packaged / "gazetteer.txt", root / "gazetteer.txt")
    return root


def _fresh_copy(workspace, relative):
    """A copy of the workspace's file at ``relative`` (within a copy of the
    dataset, for a dataset file), and the values its readers' argv fill in."""
    trial = workspace / "trial"
    shutil.rmtree(trial, ignore_errors=True)
    shutil.copytree(workspace / "data", trial / "data")
    path = trial / relative
    if not path.exists():
        shutil.copy(workspace / relative, path)
    return path, {"file": path, "data": trial / "data", "root": workspace, "trial": trial}


def _argv(reader, fill):
    """The reader's argv, writing to an output of its own."""
    return [arg.format(**fill, out=fill["trial"] / f"out_{reader[0]}") for arg in reader]


def _check(path, line, code, errors):
    """Exit 0, 1 or 2, and on exit 1 one error, at ``<path>:<line>:``, or at
    ``<path>:`` when ``line`` is None."""
    assert code in (0, 1, 2)
    assert len(errors) == (code == 1), errors
    where = f"{path}: " if line is None else f"{path}:{line}: "
    for message in errors:
        assert message.startswith(where), message


@pytest.mark.parametrize("name", sorted(TARGETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_field(workspace, name, data):
    relative, fields, _, readers = TARGETS[name]
    path, fill = _fresh_copy(workspace, relative)
    records = [json.loads(path.read_text("utf-8"))] if name == "sweep" else read_jsonl(path)
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    field = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(st.sampled_from(["delete", *FUZZ_VALUES]), label="value")
    reader = data.draw(st.sampled_from(readers), label="command")
    owner = records[index]
    for step in field[:-1]:
        owner = owner[step]
    if value == "delete":
        del owner[field[-1]]
    else:
        owner[field[-1]] = value
    text = "".join(json.dumps(record) + "\n" for record in records)
    path.write_text(text, encoding="utf-8")
    code, errors = run(*_argv(reader, fill))
    _check(path, None if name == "sweep" else index + 1, code, errors)


# One value or list element of the header rules replaced or deleted, or one
# key given twice. A repeated key used to let the later value win, and a
# pattern escaping a lone surrogate loaded and matched nothing.
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_rules(workspace, data):
    path, fill = _fresh_copy(workspace, "rules.json")
    rules = json.loads(path.read_text("utf-8"))
    key = data.draw(st.sampled_from(sorted(rules)), label="key")
    value = data.draw(st.sampled_from(["delete", "repeat", *FUZZ_VALUES, "\ud800:"]),
                      label="value")
    owner, field = rules, key
    if data.draw(st.booleans(), label="element"):
        owner, field = rules[key], data.draw(st.integers(0, len(rules[key]) - 1), label="index")
    if value == "repeat":
        text = "{" + f"{json.dumps(key)}: {json.dumps(rules[key])}, " + json.dumps(rules)[1:]
    else:
        if value == "delete":
            del owner[field]
        else:
            owner[field] = value
        text = json.dumps(rules)
    path.write_text(text, encoding="utf-8")
    reader = data.draw(st.sampled_from(RULES_READERS), label="command")
    code, errors = run(*_argv(reader, fill))
    _check(path, None, code, errors)
    if value in ("repeat", "\ud800:"):
        assert code == 1


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fuzzed_gazetteer(workspace, data):
    path, fill = _fresh_copy(workspace, "gazetteer.txt")
    lines = path.read_text("utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[index] = data.draw(st.sampled_from(["", "   ", "-- ; ...", "Ünïcødé ✓", "\ufeff"]),
                             label="value")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, errors = run(*_argv(GAZETTEER_READER, fill))
    _check(path, None, code, errors)


# A line with a byte that is not UTF-8 used to end every command with the
# decoder's message, whose position is an offset into a read buffer, and no
# file or line. Notes and annotations skip the line with a warning.
@pytest.mark.parametrize("name", sorted(set(TARGETS) - {"sweep"}))
def test_undecodable_line(workspace, name, caplog):
    relative, _, skips, readers = TARGETS[name]
    path, fill = _fresh_copy(workspace, relative)
    lines = path.read_bytes().splitlines(keepends=True)
    line = len(lines) // 2 + 1
    lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))
    for reader in readers:
        with caplog.at_level(logging.WARNING, logger="encsum"):
            code, errors = run(*_argv(reader, fill))
        assert code == (0 if skips else 1)
        if skips:
            assert f"{path}:{line}: skipping" in caplog.text
        else:
            assert errors == [f"{path}:{line}: not a JSON record"]


# A string escaping an unpaired surrogate ("\\ud800") used to be read; the
# first command to write it out as UTF-8 then failed, naming no input file or
# line. Such a line is now malformed, as one that is not UTF-8 is.
@pytest.mark.parametrize("name", sorted(set(TARGETS) - {"sweep"}))
def test_unpaired_surrogate_line(workspace, name, caplog):
    relative, fields, skips, readers = TARGETS[name]
    path, fill = _fresh_copy(workspace, relative)
    records = read_jsonl(path)
    line = len(records) // 2 + 1
    record = records[line - 1]
    field = next(f for (f, *rest) in fields if not rest and type(record.get(f)) is str)
    record[field] += "\ud800"
    # json.dumps escapes every non-ASCII character, so each line holds a \u escape.
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    for reader in readers:
        with caplog.at_level(logging.WARNING, logger="encsum"):
            code, errors = run(*_argv(reader, fill))
        assert code == (0 if skips else 1)
        if skips:
            assert f"{path}:{line}: skipping" in caplog.text
        else:
            assert errors == [f"{path}:{line}: not a JSON record"]


# A key given twice in one record used to let its later value win: a summary
# line with a second "text": "" was scored as an empty summary, with exit 0.
# One record repeats one of its keys, with the same value, so only the
# repeat is at fault.
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_repeated_key_line(workspace, name, caplog):
    relative, fields, skips, readers = TARGETS[name]
    path, fill = _fresh_copy(workspace, relative)
    records = [json.loads(path.read_text("utf-8"))] if name == "sweep" else read_jsonl(path)
    line = len(records) // 2 + 1
    record = records[line - 1]
    field = next(f for (f, *rest) in fields if not rest and f in record)
    lines = [json.dumps(r) for r in records]
    lines[line - 1] = lines[line - 1][:-1] + f", {json.dumps(field)}: {json.dumps(record[field])}}}"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    for reader in readers:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="encsum"):
            code, errors = run(*_argv(reader, fill))
        if name == "sweep":
            assert (code, errors) == (1, [f"{path}: repeated key {field!r}"])
        elif skips:
            assert code == 0
            assert f"{path}:{line}: skipping" in caplog.text
        else:
            assert (code, errors) == (1, [f"{path}:{line}: not a JSON record"])
    if name == "notes":
        manifest = json.loads((fill["trial"] / "out_build-dataset" / "manifest.json").read_text())
        assert manifest["notes_skipped"] == 1


# A leading byte-order mark used to make the first notes or annotations line
# malformed, and to be fatal in every other input but a gazetteer.
@pytest.mark.parametrize("name", [*sorted(TARGETS), "rules", "gazetteer"])
def test_byte_order_mark_ignored(workspace, name):
    if name == "rules":
        relative, readers = "rules.json", RULES_READERS
    elif name == "gazetteer":
        relative, readers = "gazetteer.txt", [GAZETTEER_READER]
    else:
        relative, readers = TARGETS[name][0], TARGETS[name][3]
    path, fill = _fresh_copy(workspace, relative)
    plain = path.read_bytes()
    for reader in readers:
        argv = _argv(reader, fill)
        out = fill["trial"] / f"out_{reader[0]}"
        outputs = []
        for mark in (b"", codecs.BOM_UTF8):
            path.write_bytes(mark + plain)
            assert run(*argv) == (0, [])
            outputs.append(output_bytes(out))
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink()
        assert outputs[0] == outputs[1]
        path.write_bytes(plain)


def test_unpaired_surrogate_notes_line_counted(workspace, tmp_path):
    notes = tmp_path / "notes.jsonl"
    records = read_jsonl(workspace / "notes.jsonl")
    records[0]["text"] += "\ud800"
    notes.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run("build-dataset", "--notes", notes, "--out", tmp_path / "data", "--seed", 11,
               "--require-admission") == (0, [])
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text("utf-8"))
    assert manifest["notes_skipped"] == 1
    assert manifest["notes_ingested"] == len(records) - 1


def test_undecodable_notes_line_counted(workspace, tmp_path):
    notes = tmp_path / "notes.jsonl"
    lines = (workspace / "notes.jsonl").read_bytes().splitlines(keepends=True)
    lines[3] = b"\xff" + lines[3]
    notes.write_bytes(b"".join(lines))
    assert run("build-dataset", "--notes", notes, "--out", tmp_path / "data", "--seed", 11,
               "--require-admission") == (0, [])
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text("utf-8"))
    assert manifest["notes_skipped"] == 1
    assert manifest["notes_ingested"] == len(lines) - 1


@pytest.mark.parametrize("option", ["--rules", "--gazetteer", "--sweep"])
def test_undecodable_rules_or_gazetteer_names_file(workspace, tmp_path, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes({
        "--rules": b'{"chief_complaint": ["CC\xff:"]}',
        "--gazetteer": b"htn\n\xff\n",
        "--sweep": b'{"chosen_threshold": 0.5, "section": "chief_complaint\xff"}',
    }[option])
    if option == "--rules":
        argv = ["build-dataset", "--notes", workspace / "notes.jsonl", "--rules", bad,
                "--out", tmp_path / "data"]
    elif option == "--sweep":
        argv = ["cutoff", "--merged", workspace / "merged.jsonl", "--section", SECTION,
                "--sweep", bad, "--out", tmp_path / "cut.jsonl"]
    else:
        argv = ["evaluate", "--dataset", workspace / "data", "--systems",
                workspace / "sys_oracle.jsonl", "--gazetteer", bad, "--out", tmp_path / "r"]
    code, errors = run(*argv)
    assert code == 1
    [message] = errors
    assert message.startswith(f"{bad}: ") and "can't decode byte 0xff" in message
