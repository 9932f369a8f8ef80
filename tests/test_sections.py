import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from encsum.corpus import Encounter, assemble_encounters
from encsum.dataset import (
    encounter_file, load_encounters, load_section_instances, section_file, summary_record,
)
from encsum.jsonl import read_jsonl, write_jsonl
from encsum.labeling import RULE_SYSTEM, write_rule_summaries
from encsum.sections import (
    HeaderMatch,
    HeaderRuleSet,
    SectionInstance,
    SectionName,
    extract_section,
    extract_sections,
    find_headers,
    load_rules,
    rule_based_extract_from_priors,
)
from tests.conftest import make_note


def reference_find_headers(document_text, rules):
    """The straightforward scan that ``find_headers`` replaces: every pattern
    tried on every line with ``startswith``, the longest match kept."""
    patterns = rules.all_patterns()
    matches = []
    offset = 0
    for line in document_text.splitlines(keepends=True):
        stripped = line.lstrip(" \t")
        indent = len(line) - len(stripped)
        if indent <= 3:
            lowered = stripped.lower()
            best = None
            for pattern, section in patterns:
                if lowered.startswith(pattern):
                    if best is None or len(pattern) > best[0]:
                        best = (len(pattern), section)
            if best is not None:
                start = offset + indent
                matches.append(HeaderMatch(start, start + best[0], best[1]))
        offset += len(line)
    return matches


def spelled(section: SectionName) -> str:
    """The section's name with spaces, as a header says it."""
    return section.value.replace("_", " ")


def overlapping_rules():
    """Rules where one variant is a prefix of another and patterns are shared:
    "hx:" by two sections and the terminators, "plan:" by a section and the
    terminators."""
    variants = {s: (f"{spelled(s)}:",) for s in SectionName}
    variants[SectionName.CHIEF_COMPLAINT] = ("cc:", "CC: Brief:")
    variants[SectionName.FAMILY_HISTORY] = ("family history:", "hx:")
    variants[SectionName.SOCIAL_HISTORY] = ("hx:", "social:")
    variants[SectionName.BRIEF_HOSPITAL_COURSE] = ("cc: brief: course:", "plan:")
    return HeaderRuleSet(variants, ("plan:", "hx:", "allergies:", "cc"))


def unicode_rules():
    """Rules whose patterns hold characters that lowercase unusually: "İ"
    becomes two characters, the Kelvin sign "K" becomes "k", and a capital
    sigma becomes "ς" or "σ" by what surrounds it. A pattern that starts with
    a space or tab never matches, as a line's indent is never its header."""
    variants = {s: (f"{spelled(s)}:",) for s in SectionName}
    variants[SectionName.CHIEF_COMPLAINT] = ("İcu:", "cc:", " cc:", "\tk:")
    variants[SectionName.FAMILY_HISTORY] = ("kin:", "ok:")
    variants[SectionName.SOCIAL_HISTORY] = ("σa:", "aς:", "aσa:")
    return HeaderRuleSet(variants, ("İ:", "k"))


RULE_SETS = {"packaged": load_rules, "overlapping": overlapping_rules, "unicode": unicode_rules}

DOC = (
    "chief complaint:\nchest pain\n\n"
    "history of present illness:\npatient reports chest pain for two days.\n"
)


@pytest.fixture(scope="module")
def rules():
    return load_rules()


class TestExtractSection:
    def test_body_stops_at_next_header(self, rules):
        instance = extract_section(DOC, SectionName.CHIEF_COMPLAINT, rules)
        assert instance.reference_text == "chest pain"

    def test_char_span_matches_text(self, rules):
        instance = extract_section(DOC, SectionName.CHIEF_COMPLAINT, rules)
        lo, hi = instance.char_span
        assert DOC[lo:hi] == instance.reference_text

    def test_absent_header(self, rules):
        assert extract_section(DOC, SectionName.FAMILY_HISTORY, rules) is None

    def test_last_section_runs_to_end(self, rules):
        instance = extract_section(DOC, SectionName.HISTORY_OF_PRESENT_ILLNESS, rules)
        assert instance.reference_text == "patient reports chest pain for two days."

    def test_case_insensitive(self, rules):
        instance = extract_section(
            "CHIEF COMPLAINT: Fever\n\nHPI:\nstuff", SectionName.CHIEF_COMPLAINT, rules
        )
        assert instance.reference_text == "Fever"

    def test_not_anchored_mid_line(self, rules):
        doc = "her past medical history includes htn.\n"
        assert extract_section(doc, SectionName.PAST_MEDICAL_HISTORY, rules) is None

    def test_indented_header_within_limit(self, rules):
        doc = "   social history:\nlives alone\n"
        instance = extract_section(doc, SectionName.SOCIAL_HISTORY, rules)
        assert instance.reference_text == "lives alone"

    def test_deeply_indented_ignored(self, rules):
        doc = "        social history:\nlives alone\n"
        assert extract_section(doc, SectionName.SOCIAL_HISTORY, rules) is None

    def test_first_match_wins(self, rules):
        doc = "cc: first\n\nchief complaint:\nsecond\n"
        instance = extract_section(doc, SectionName.CHIEF_COMPLAINT, rules)
        assert instance.reference_text == "first"

    def test_inline_body_after_colon(self, rules):
        doc = "chief complaint: chest pain\nfamily history:\nnone\n"
        instance = extract_section(doc, SectionName.CHIEF_COMPLAINT, rules)
        assert instance.reference_text == "chest pain"

    def test_empty_body(self, rules):
        doc = "social history:\nfamily history:\nnone\n"
        instance = extract_section(doc, SectionName.SOCIAL_HISTORY, rules)
        assert instance.reference_text == ""

    def test_terminator_ends_section(self, rules):
        doc = "social history:\nlives alone\nallergies:\nnkda\n"
        instance = extract_section(doc, SectionName.SOCIAL_HISTORY, rules)
        assert instance.reference_text == "lives alone"

    def test_idempotent_on_own_output(self, rules):
        body = extract_section(DOC, SectionName.CHIEF_COMPLAINT, rules).reference_text
        again = extract_section(
            f"chief complaint:\n{body}", SectionName.CHIEF_COMPLAINT, rules
        )
        assert again.reference_text == body

    def test_body_never_overlaps_later_headers(self, rules):
        for section in SectionName:
            instance = extract_section(DOC, section, rules)
            if instance is None:
                continue
            lo, hi = instance.char_span
            for match in find_headers(DOC, rules):
                assert match.end <= lo or match.start >= hi


# Line separators str.splitlines honours, plus a space that is not one.
SEPARATORS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", " ",
]


# Characters a header's own may be written as; all but "İ" lowercase back to
# the pattern's character.
_SPELLINGS = {"k": "kK\u212a", "σ": "σΣ", "ς": "ςΣ", "i": "iIİ"}


@st.composite
def header_documents(draw, rules):
    patterns = [p for p, _ in rules.all_patterns()]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            pattern = draw(st.sampled_from(patterns))
            cased = "".join(
                draw(st.sampled_from(_SPELLINGS.get(c, c + c.upper()))) for c in pattern
            )
            indent = draw(st.text(alphabet=" \t", max_size=5))
            tail = draw(st.sampled_from(["", " fever", ":", " course: x", "x", "Σ", "aΣ b"]))
            lines.append(indent + cased + tail)
        else:
            lines.append(draw(st.text(alphabet="ahc x:\t.ΣİK\u212a", max_size=12)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(SEPARATORS))
    return text


class TestFindHeadersMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_packaged_rules(self, data):
        rules = load_rules()
        doc = data.draw(header_documents(rules))
        assert find_headers(doc, rules) == reference_find_headers(doc, rules)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_overlapping_rules(self, data):
        rules = overlapping_rules()
        doc = data.draw(header_documents(rules))
        assert find_headers(doc, rules) == reference_find_headers(doc, rules)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unicode_rules(self, data):
        rules = unicode_rules()
        doc = data.draw(header_documents(rules))
        assert find_headers(doc, rules) == reference_find_headers(doc, rules)

    @pytest.mark.parametrize("doc", [
        "σa: x\nΣA: y\nAΣA: z\naΣ: w\nAΣ",
        "ΣA:x\u2028\u212aIN: y\r\n  OK: z\x85İCU: w\x1cİ:",
        "İ\nİcu: x\n \tİ: y\ncc: z\nİCU: w",
    ], ids=["sigma", "kelvin", "dotted capital i"])
    def test_unusual_lowercasing(self, doc):
        rules = unicode_rules()
        got = find_headers(doc, rules)
        assert got and got == reference_find_headers(doc, rules)

    # The scan maps every line break but "\n" to "\n" first; the drawn
    # documents above may miss a break that it leaves out.
    @pytest.mark.parametrize("separator", [s for s in SEPARATORS if s != " "],
                             ids=lambda s: repr(s).strip("'"))
    def test_header_after_each_line_break(self, separator):
        rules = load_rules()
        doc = f"note{separator}Chief Complaint: pain{separator}  Social History: alone"
        got = find_headers(doc, rules)
        assert got == reference_find_headers(doc, rules)
        assert [m.section for m in got] == [
            SectionName.CHIEF_COMPLAINT, SectionName.SOCIAL_HISTORY,
        ]

    def test_longest_variant_wins(self):
        rules = overlapping_rules()
        doc = "x\n  cc: brief: course: walked\nCC: BRIEF: fever\ncc: brief\n"
        assert find_headers(doc, rules) == [
            HeaderMatch(4, 22, SectionName.BRIEF_HOSPITAL_COURSE),
            HeaderMatch(30, 40, SectionName.CHIEF_COMPLAINT),
            HeaderMatch(47, 50, SectionName.CHIEF_COMPLAINT),
        ]

    def test_shared_pattern_belongs_to_first_owner(self):
        rules = overlapping_rules()
        doc = "hx: none\nplan: home\n"
        assert find_headers(doc, rules) == [
            HeaderMatch(0, 3, SectionName.FAMILY_HISTORY),
            HeaderMatch(9, 14, SectionName.BRIEF_HOSPITAL_COURSE),
        ]
        assert extract_section(doc, SectionName.SOCIAL_HISTORY, rules) is None


def trie_rules(section_patterns=(), terminators=()):
    """Rules where each section has its spelled-out variant, plus each
    (section, pattern) of ``section_patterns``."""
    variants = {s: [f"{spelled(s)}:"] for s in SectionName}
    for section, pattern in section_patterns:
        variants[section].append(pattern)
    return HeaderRuleSet({s: tuple(v) for s, v in variants.items()}, tuple(terminators))


def headers_found(doc, rules):
    """Each header's text and owner, once ``find_headers`` agrees with the reference."""
    got = find_headers(doc, rules)
    assert got == reference_find_headers(doc, rules)
    return [(doc[m.start:m.end], m.section) for m in got]


class TestTrieMatcher:
    """The header regex is a prefix trie of the patterns. These are the cases
    where a trie could pick another pattern than the line-by-line scan."""

    def test_pattern_that_prefixes_another(self):
        rules = trie_rules([(SectionName.BRIEF_HOSPITAL_COURSE, "hospital course:")],
                           ["hospital course: day"])
        doc = ("Hospital Course: Day 3 walked\nhospital course: dawn\n"
               "  HOSPITAL COURSE:\nhospital course: da\nhospital course day:\n")
        course = SectionName.BRIEF_HOSPITAL_COURSE
        assert headers_found(doc, rules) == [
            ("Hospital Course: Day", None),
            ("hospital course:", course),
            ("HOSPITAL COURSE:", course),
            ("hospital course:", course),
        ]

    @pytest.mark.parametrize("in_terminators", [False, True])
    def test_shared_pattern_keeps_first_owner(self, in_terminators):
        # "relatives:" is listed by social history, then by family history,
        # which comes first in all_patterns() order, and in one case by the
        # terminators too; "rel:" by a section and the terminators.
        rules = trie_rules(
            [(SectionName.SOCIAL_HISTORY, "relatives:"),
             (SectionName.FAMILY_HISTORY, "relatives:"),
             (SectionName.CHIEF_COMPLAINT, "RELATIVES: none"),
             (SectionName.PAST_MEDICAL_HISTORY, "rel:")],
            ("relatives:", "rel:") if in_terminators else ("rel:",),
        )
        doc = "relatives: mother\nRelatives: None known\nrel: x\nrelative: y\n"
        assert headers_found(doc, rules) == [
            ("relatives:", SectionName.FAMILY_HISTORY),
            ("Relatives: None", SectionName.CHIEF_COMPLAINT),
            ("rel:", SectionName.PAST_MEDICAL_HISTORY),
        ]

    def test_regex_metacharacters_are_literal(self):
        rules = trie_rules(
            [(SectionName.CHIEF_COMPLAINT, "a+b (c):"),
             (SectionName.SOCIAL_HISTORY, "a+b (c)|x:")],
            ["a.b:", "[x]*:", "^a\\d$:"],
        )
        doc = ("A+B (C): fever\naab (c): no\nab c: no\na+b (c)|x: lives alone\n"
               "axb: no\na.b: yes\n[X]*: yes\nxx: no\n^A\\d$: yes\n")
        assert headers_found(doc, rules) == [
            ("A+B (C):", SectionName.CHIEF_COMPLAINT),
            ("a+b (c)|x:", SectionName.SOCIAL_HISTORY),
            ("a.b:", None),
            ("[X]*:", None),
            ("^A\\d$:", None),
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_pattern_sets(self, data):
        # Short patterns over a few characters share prefixes, end inside one
        # another and repeat across owners.
        pattern = st.text(alphabet="ab: +(|.", min_size=1, max_size=5).filter(str.strip)
        variants = {s: tuple(data.draw(st.lists(pattern, min_size=1, max_size=3)))
                    for s in SectionName}
        rules = HeaderRuleSet(variants, tuple(data.draw(st.lists(pattern, max_size=4))))
        doc = data.draw(header_documents(rules))
        assert find_headers(doc, rules) == reference_find_headers(doc, rules)


class TestExtractSectionsMatchesExtractSection:
    @pytest.mark.parametrize("rule_set", list(RULE_SETS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_documents(self, rule_set, data):
        rules = RULE_SETS[rule_set]()
        doc = data.draw(header_documents(rules))
        expected = {
            section: instance for section in SectionName
            if (instance := extract_section(doc, section, rules, "e1")) is not None
        }
        assert extract_sections(doc, rules, "e1") == expected

    def test_first_occurrence_each(self, rules):
        doc = "cc: first\nsocial history:\nalone\nchief complaint:\nsecond\n"
        cc, social = SectionName.CHIEF_COMPLAINT, SectionName.SOCIAL_HISTORY
        assert extract_sections(doc, rules) == {
            cc: SectionInstance("", cc, "first", (4, 9)),
            social: SectionInstance("", social, "alone", (26, 31)),
        }


class TestRuleSet:
    def test_missing_section_variant_fatal(self):
        with pytest.raises(ValueError):
            HeaderRuleSet({SectionName.CHIEF_COMPLAINT: ("cc:",)}, ())

    def test_loads_custom_file(self, tmp_path):
        data = {s.value: [f"{spelled(s)}:"] for s in SectionName}
        data["terminators"] = ["allergies:"]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        rules = load_rules(path)
        assert rules.variants[SectionName.CHIEF_COMPLAINT] == ("chief complaint:",)
        assert rules.terminators == ("allergies:",)

    def test_terminators_optional(self, tmp_path):
        data = {s.value: [f"{spelled(s)}:"] for s in SectionName}
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        assert load_rules(path).terminators == ()

    @pytest.mark.parametrize("key, value", [
        ("chief_complaint", "cc:"),
        ("family_history", ["family history:", 3]),
        ("social_history", ["social history:", "  "]),
        ("past_medical_history", []),
        ("terminators", "allergies:"),
        ("terminators", [None]),
        ("chief_compliant", ["cc:"]),
        # A pattern with a line break used to load and match at a line end or never.
        ("chief_complaint", ["cc:\n"]),
        ("family_history", ["family\r\nhistory:"]),
        ("terminators", ["allergies:\u2028"]),
    ])
    def test_malformed_rules_fatal(self, tmp_path, key, value):
        data = {s.value: [f"{spelled(s)}:"] for s in SectionName}
        data[key] = value
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"rules.json: .*'{key}'"):
            load_rules(path)

    def test_missing_section_key_fatal(self, tmp_path):
        data = {s.value: [f"{spelled(s)}:"] for s in SectionName}
        del data["brief_hospital_course"]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="rules.json: .*'brief_hospital_course'"):
            load_rules(path)

    # A second list for a key used to replace the first without a word, and a
    # pattern escaping a lone surrogate loaded and matched nothing.
    @pytest.mark.parametrize("extra, message", [
        ('"chief_complaint": ["cc:"], ', "repeated key 'chief_complaint'"),
        ('"terminators": ["\\ud800:"], ', "escapes an unpaired surrogate"),
    ], ids=["repeated key", "lone surrogate"])
    def test_repeated_key_or_lone_surrogate_fatal(self, tmp_path, extra, message):
        data = {s.value: [f"{spelled(s)}:"] for s in SectionName}
        path = tmp_path / "rules.json"
        path.write_text("{" + extra + json.dumps(data)[1:])
        with pytest.raises(ValueError, match=f"rules.json: .*{message}"):
            load_rules(path)

    @pytest.mark.parametrize("text", ['["cc:"]', "{", "null"])
    def test_not_a_rules_object_fatal(self, tmp_path, text):
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="rules.json: "):
            load_rules(path)


def _two_prior_encounter(first_body="lives alone", second_body="retired"):
    notes = [
        make_note(note_id="a", chart_date="2040-01-01T08:00:00",
                  category="admission note",
                  text=f"social history:\n{first_body}\n\nallergies:\nnkda\n"),
        make_note(note_id="b", chart_date="2040-01-02T08:00:00",
                  category="nursing",
                  text=f"social history:\n{second_body}\n"),
        make_note(note_id="ds", chart_date="2040-01-03T08:00:00",
                  category="discharge summary", text="social history:\nboth\n"),
    ]
    encounters, _ = assemble_encounters(notes)
    return encounters[0]


class TestRuleBaseline:
    def test_hits_concatenated_in_date_order(self, rules):
        encounter = _two_prior_encounter()
        got = rule_based_extract_from_priors(encounter, SectionName.SOCIAL_HISTORY, rules)
        assert got == "lives alone\n\nretired"

    def test_no_hits(self, rules):
        encounter = _two_prior_encounter()
        assert rule_based_extract_from_priors(encounter, SectionName.FAMILY_HISTORY, rules) is None

    def test_empty_body_is_a_hit(self, rules):
        notes = [
            make_note(note_id="a", category="admission note",
                      text="social history:\nallergies:\nnkda\n"),
            make_note(note_id="ds", chart_date="2040-01-02T08:00:00",
                      category="discharge summary", text="x"),
        ]
        encounters, _ = assemble_encounters(notes)
        got = rule_based_extract_from_priors(encounters[0], SectionName.SOCIAL_HISTORY, rules)
        assert got == ""


@st.composite
def rule_datasets(draw, rules):
    """Encounter records whose prior notes are header documents, and for each
    section the encounters with an instance of it, in file order."""
    encounters = []
    for e in range(draw(st.integers(1, 4))):
        priors = tuple(
            make_note(note_id=f"e{e}-{i}", encounter_id=f"e{e}",
                      chart_date=f"2040-01-0{i + 1}", category="nursing",
                      text=draw(header_documents(rules)))
            for i in range(draw(st.integers(0, 3)))
        )
        summary = make_note(note_id=f"e{e}-ds", encounter_id=f"e{e}", chart_date="2040-01-09",
                            category="discharge summary", text="x")
        encounters.append(Encounter("s1", f"e{e}", priors, summary))
    ids = [e.encounter_id for e in encounters]
    members = {
        section: draw(st.permutations(ids).flatmap(lambda p: st.lists(
            st.sampled_from(p), unique=True, max_size=len(p)
        )))
        for section in SectionName
    }
    return encounters, members


class TestRuleSummariesMatchPerInstance:
    @pytest.mark.parametrize("rule_set", list(RULE_SETS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_datasets(self, rule_set, data):
        # One scan per prior note for all sections writes, in section order,
        # then file order, what rule_based_extract_from_priors gives for each
        # instance.
        rules = RULE_SETS[rule_set]()
        encounters, members = data.draw(rule_datasets(rules))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_jsonl(encounter_file(root, "test"), (e.to_record() for e in encounters))
            for section, ids in members.items():
                write_jsonl(section_file(root, section, "test"), (
                    SectionInstance(eid, section, "ref", (0, 3)).to_record() for eid in ids
                ))
            sections = list(SectionName)
            count = write_rule_summaries(root, sections, "test", rules, root / "rule.jsonl")
            expected = []
            by_id = load_encounters(root, "test")
            for section in sections:
                for instance in load_section_instances(root, section, "test"):
                    encounter = by_id[instance.encounter_id]
                    text = rule_based_extract_from_priors(encounter, section, rules)
                    if text is not None:
                        expected.append(
                            summary_record(encounter.encounter_id, section, RULE_SYSTEM, text)
                        )
            assert read_jsonl(root / "rule.jsonl") == expected and count == len(expected)
