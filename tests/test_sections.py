import json

import pytest

from encsum.corpus import assemble_encounters
from encsum.sections import (
    HeaderRuleSet,
    SectionName,
    extract_section,
    find_headers,
    load_rules,
    rule_based_extract_from_priors,
)
from tests.conftest import make_note

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


class TestRuleSet:
    def test_missing_section_variant_fatal(self):
        with pytest.raises(ValueError):
            HeaderRuleSet({SectionName.CHIEF_COMPLAINT: ("cc:",)}, ())

    def test_loads_custom_file(self, tmp_path):
        data = {s.value: [f"{s.display}:"] for s in SectionName}
        data["terminators"] = ["allergies:"]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        rules = load_rules(path)
        assert rules.variants[SectionName.CHIEF_COMPLAINT] == ("chief complaint:",)
        assert rules.terminators == ("allergies:",)


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
