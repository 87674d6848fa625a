"""Corpus loading, label consolidation, article splitting, temporal filter."""

import datetime
import json

import pytest

from tracer.corpus import (
    LABELS,
    ClaimRecord,
    Label,
    consolidate_label,
    label_counts,
    load_corpus,
    normalize_rating,
    record_from_article,
    save_corpus,
    temporal_filter,
)
from tracer.errors import EmptyTestDates, ParseError, UnknownRating, ValidationError
from tracer.fixtures import generate_synthetic_corpus

# The six source ratings and their consolidated targets, exhaustively.
CONSOLIDATION = {
    "True": Label.TRUE,
    "Mostly True": Label.HALF_TRUE,
    "Half True": Label.HALF_TRUE,
    "Mostly False": Label.FALSE,
    "False": Label.FALSE,
    "Pants on Fire": Label.FALSE,
}


def test_consolidation_exhaustive():
    for rating, expected in CONSOLIDATION.items():
        assert consolidate_label(rating) is expected


def test_consolidation_is_case_and_whitespace_insensitive():
    assert consolidate_label("  pants  ON   fire ") is Label.FALSE
    assert consolidate_label("HALF TRUE") is Label.HALF_TRUE
    assert consolidate_label("true\n") is Label.TRUE


def test_consolidation_rejects_unknown_ratings():
    for bad in ("Mostly", "Unknown", "TruE-ish", "half-true"):
        with pytest.raises(UnknownRating):
            consolidate_label(bad)


def test_consolidation_rejects_empty():
    with pytest.raises(ValueError):
        consolidate_label("")
    with pytest.raises(ValueError):
        consolidate_label("   ")


def test_normalize_rating():
    assert normalize_rating("  Half   True ") == "half true"


def test_label_values_are_the_canonical_strings():
    assert [label.value for label in LABELS] == ["True", "Half-True", "False"]


# -- article splitting ---------------------------------------------------


def _article(paragraphs):
    return record_from_article(record_id="r1", claim="c", paragraphs=paragraphs)


def test_split_article_on_cue():
    record = _article(["Evidence one.", "Evidence two.", "Our ruling", "It is true."])
    assert record.evidence == ["Evidence one.", "Evidence two."]
    assert record.ruling == ["Our ruling", "It is true."]


def test_split_article_cue_is_prefix_and_case_insensitive():
    record = _article(["body", "OUR RATING: False", "tail"])
    assert record.evidence == ["body"]
    assert record.ruling == ["OUR RATING: False", "tail"]


def test_split_article_without_cue_keeps_everything_as_evidence():
    record = _article(["one", "two"])
    assert record.evidence == ["one", "two"]
    assert record.ruling == []


def test_record_from_article_without_cue_has_an_empty_ruling():
    record = record_from_article(
        record_id="r1",
        claim="c",
        paragraphs=["no cue here"],
        raw_rating="True",
    )
    assert record.gold_label is Label.TRUE
    assert record.evidence == ["no cue here"]
    assert record.ruling == []


# -- temporal filter -----------------------------------------------------


def _dated(record_id, year, month=6, day=15) -> ClaimRecord:
    return ClaimRecord(
        id=record_id, claim="c", date=datetime.date(year, month, day), gold_label=Label.TRUE
    )


def test_temporal_filter_drops_train_records_inside_test_range():
    train = [_dated("a", 2019), _dated("b", 2020), _dated("c", 2021)]
    test = [_dated("t1", 2020), _dated("t2", 2021, 12, 31)]
    kept, diagnostics = temporal_filter(train, test)
    # range is closed: b sits exactly on the lower bound and is dropped
    assert [r.id for r in kept] == ["a"]
    assert diagnostics["removed_by_date"] == 2


def test_temporal_filter_retains_undated_records_with_diagnostic():
    undated = ClaimRecord(id="u", claim="c")
    train = [_dated("a", 2019), undated]
    test = [_dated("t1", 2019, 1, 1), _dated("t2", 2019, 12, 31)]
    kept, diagnostics = temporal_filter(train, test)
    assert [r.id for r in kept] == ["u"]
    assert diagnostics == {
        "undated_retained": 1,
        "removed_by_date": 1,
        "test_range": ("2019-01-01", "2019-12-31"),
    }


def test_temporal_filter_requires_dated_test_records():
    train = [_dated("a", 2019)]
    test = [ClaimRecord(id="u", claim="c")]
    with pytest.raises(EmptyTestDates):
        temporal_filter(train, test)


# -- file round-trip -----------------------------------------------------


def test_load_save_round_trip_is_fixpoint(tmp_path):
    corpus = generate_synthetic_corpus(seed=7, n=50)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    save_corpus(corpus, first)
    reloaded = load_corpus(first)
    save_corpus(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert len(reloaded) == 50


def test_save_writes_the_fields_in_declaration_order_less_the_none_ones(tmp_path):
    full = ClaimRecord(
        id="a",
        claim="Café prices doubled.",
        date=datetime.date(2019, 3, 4),
        raw_rating="Mostly True",
        gold_label=Label.HALF_TRUE,
        evidence=["e1", "e2"],
        ruling=["Our ruling", "r"],
    )
    path = tmp_path / "pinned.jsonl"
    save_corpus([full, ClaimRecord(id="b", claim="x")], path)
    assert path.read_text(encoding="utf-8") == (
        '{"id": "a", "claim": "Café prices doubled.", "date": "2019-03-04", '
        '"raw_rating": "Mostly True", "gold_label": "Half-True", '
        '"evidence": ["e1", "e2"], "ruling": ["Our ruling", "r"]}\n'
        '{"id": "b", "claim": "x", "evidence": [], "ruling": []}\n'
    )


def test_load_reports_bad_json_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "claim": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 2


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    row = '{"id": "a", "claim": "x", "evidence": [], "ruling": []}\n'
    path.write_text(row + row, encoding="utf-8")
    with pytest.raises(ValidationError) as excinfo:
        load_corpus(path)
    assert excinfo.value.record_id == "a"


def test_load_refuses_a_malformed_line_before_a_broken_invariant(tmp_path):
    # every line is read before any record is validated, so an empty id is
    # refused as a line (exit 1) even after a record with a blank claim
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "claim": " "}\n{"id": "", "claim": ""}\n', encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_corpus(path)
    assert (excinfo.value.line_number, excinfo.value.reason) == (2, "id must be a non-empty string")
    path.write_text('{"id": "a", "claim": " "}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="claim text is empty"):
        load_corpus(path)


def test_load_rejects_label_inconsistent_with_rating(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "claim": "x", "raw_rating": "True", "gold_label": "False", '
        '"evidence": [], "ruling": []}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValidationError):
        load_corpus(path)


def test_label_counts_counts_the_loaded_gold_labels(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic_corpus(seed=3, n=12), path)
    loaded = load_corpus(path)
    # the rating cycle hits each of the six ratings twice over 12 records
    assert label_counts(loaded) == {Label.TRUE: 2, Label.HALF_TRUE: 4, Label.FALSE: 6}
    unlabelled = [ClaimRecord(id="u", claim="c")]
    assert label_counts(loaded + unlabelled) == label_counts(loaded)


def _corpus_with_claim_escape(tmp_path, escape):
    """A two-record corpus whose second claim holds the JSON escape as written."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(seed=1, n=2), path)
    first, second = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(second)
    record["claim"] = "CLAIM"
    second = json.dumps(record).replace("CLAIM", f"jobs {escape} grew")
    path.write_text(f"{first}\n{second}\n", encoding="utf-8")
    return path


def test_load_rejects_a_lone_surrogate_naming_its_line(tmp_path):
    with pytest.raises(ParseError) as excinfo:
        load_corpus(_corpus_with_claim_escape(tmp_path, "\\ud800"))
    assert excinfo.value.line_number == 2
    assert excinfo.value.reason == "text is not valid Unicode"


def test_load_accepts_an_escaped_surrogate_pair(tmp_path):
    corpus = load_corpus(_corpus_with_claim_escape(tmp_path, "\\ud83d\\ude00"))
    assert corpus[1].claim == "jobs \U0001f600 grew"


@pytest.mark.parametrize("rating", ["", "  "])
def test_load_rejects_a_blank_rating_beside_a_gold_label_naming_the_record(tmp_path, rating):
    path = tmp_path / "blank.jsonl"
    row = {"id": "a", "claim": "x", "raw_rating": rating, "gold_label": "True"}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as excinfo:
        load_corpus(path)
    assert excinfo.value.record_id == "a"
    assert excinfo.value.reason == "raw_rating is blank"


def test_load_rejects_a_line_that_is_not_utf8_naming_it(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(seed=1, n=3), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"Synthetic claim", b"Synthetic \xff claim")
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 2
    assert excinfo.value.reason == "text is not UTF-8"
