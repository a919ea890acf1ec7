import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.tagging import (
    BIO2,
    IOBES,
    Span,
    detect_scheme,
    make_tagset,
    spans_to_tags,
    split_tag,
    tags_to_spans,
)

TYPES = ["LOC", "ORG", "PER"]


# --- independent oracle: transcription of the conlleval scorer's chunk
# boundary logic, kept deliberately separate from the implementation.

def _oracle_end(prev, cur):
    p1, t1 = split_tag(prev)
    p2, t2 = split_tag(cur)
    if p1 == "O":
        return False
    if p2 == "O":
        return True
    if t1 != t2:
        return True
    return p2 in ("B", "S") or p1 in ("E", "S")


def _oracle_start(prev, cur):
    p1, t1 = split_tag(prev)
    p2, t2 = split_tag(cur)
    if p2 == "O":
        return False
    if p1 == "O":
        return True
    if t1 != t2:
        return True
    return p2 in ("B", "S") or p1 in ("E", "S")


def oracle_spans(tags):
    spans = []
    prev = "O"
    start = None
    for i, tag in enumerate(tags):
        if start is not None and _oracle_end(prev, tag):
            spans.append(Span(start, i - 1, split_tag(prev)[1]))
            start = None
        if _oracle_start(prev, tag):
            start = i
        prev = tag
    if start is not None:
        spans.append(Span(start, len(tags) - 1, split_tag(prev)[1]))
    return spans


def test_split_tag():
    assert split_tag("B-PER") == ("B", "PER")
    assert split_tag("O") == ("O", None)
    assert split_tag("S-GPE") == ("S", "GPE")
    with pytest.raises(ValueError):
        split_tag("X-PER")
    with pytest.raises(ValueError):
        split_tag("BPER")


class TestSpansToTags:
    def test_bio2_basic(self):
        tags = spans_to_tags([Span(0, 1, "PER")], 4, BIO2)
        assert tags == ["B-PER", "I-PER", "O", "O"]

    def test_iobes_singleton(self):
        assert spans_to_tags([Span(2, 2, "ORG")], 3, IOBES) == ["O", "O", "S-ORG"]

    def test_iobes_mixed(self):
        tags = spans_to_tags([Span(0, 0, "PER"), Span(1, 2, "ORG")], 3, IOBES)
        assert tags == ["S-PER", "B-ORG", "E-ORG"]

    def test_overlap_rejected_with_pair(self):
        with pytest.raises(ValueError, match="overlapping"):
            spans_to_tags([Span(0, 2, "PER"), Span(2, 3, "ORG")], 5, BIO2)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            spans_to_tags([Span(0, 5, "PER")], 3, BIO2)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            spans_to_tags([], 1, "IOB1")


class TestTagsToSpans:
    def test_valid_bio2(self):
        spans = tags_to_spans(["B-PER", "I-PER", "O", "B-ORG"])
        assert spans == [Span(0, 1, "PER"), Span(3, 3, "ORG")]

    def test_orphan_continuation_opens_span(self):
        assert tags_to_spans(["O", "I-PER"]) == [Span(1, 1, "PER")]

    def test_type_change_splits(self):
        spans = tags_to_spans(["B-PER", "I-ORG"])
        assert spans == [Span(0, 0, "PER"), Span(1, 1, "ORG")]

    def test_unterminated_iobes(self):
        assert tags_to_spans(["B-PER", "I-PER"]) == [Span(0, 1, "PER")]

    def test_orphan_e_tag(self):
        assert tags_to_spans(["O", "E-LOC", "O"]) == [Span(1, 1, "LOC")]

    def test_unknown_tag_errors(self):
        with pytest.raises(ValueError, match="unknown tag"):
            tags_to_spans(["B-PER", "Q-PER"])

    def test_empty(self):
        assert tags_to_spans([]) == []


def spans_strategy(n, types=TYPES):
    """Random valid non-overlapping span sets over a length-n sentence."""

    @st.composite
    def build(draw):
        spans = []
        i = 0
        while i < n:
            if draw(st.booleans()):
                length = draw(st.integers(1, min(3, n - i)))
                spans.append(Span(i, i + length - 1, draw(st.sampled_from(types))))
                i += length
            i += 1
        return spans

    return build()


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), spans_strategy(n))))
def test_round_trip_identity_bio2(case):
    n, spans = case
    assert tags_to_spans(spans_to_tags(spans, n, BIO2)) == spans


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), spans_strategy(n))))
def test_round_trip_identity_iobes(case):
    n, spans = case
    assert tags_to_spans(spans_to_tags(spans, n, IOBES)) == spans


@settings(max_examples=300)
@given(st.lists(st.sampled_from(make_tagset(TYPES, IOBES)), min_size=0, max_size=15))
def test_total_and_matches_conlleval_oracle(tags):
    # never raises on grammar violations, and agrees with the reference
    assert tags_to_spans(tags) == oracle_spans(tags)


class TestConvertScheme:
    # converting is decoding under one scheme and encoding under another
    def test_bio2_to_iobes(self):
        spans = tags_to_spans(["B-PER", "I-PER"])
        assert spans_to_tags(spans, 2, IOBES) == ["B-PER", "E-PER"]

    def test_singleton_to_bio2(self):
        assert spans_to_tags(tags_to_spans(["S-LOC"]), 1, BIO2) == ["B-LOC"]

    def test_all_o_fixed_point(self):
        spans = tags_to_spans(["O", "O", "O"])
        assert spans_to_tags(spans, 3, IOBES) == ["O", "O", "O"]

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(make_tagset(TYPES, BIO2)), min_size=1, max_size=10))
    def test_idempotent_same_scheme(self, tags):
        once = spans_to_tags(tags_to_spans(tags), len(tags), BIO2)
        assert spans_to_tags(tags_to_spans(once), len(once), BIO2) == once


class TestTagSet:
    def test_order_o_first_type_major(self):
        ts = make_tagset(["PER", "ORG"], BIO2)
        assert ts == ["O", "B-ORG", "I-ORG", "B-PER", "I-PER"]

    def test_iobes_prefixes(self):
        ts = make_tagset(["GPE"], IOBES)
        assert ts == ["O", "B-GPE", "E-GPE", "I-GPE", "S-GPE"]

    def test_closed_under_scheme(self):
        ts = make_tagset(["A", "B"], IOBES)
        types = {split_tag(t)[1] for t in ts if t != "O"}
        for t in types:
            for p in ("B", "E", "I", "S"):
                assert "%s-%s" % (p, t) in ts


def test_detect_scheme():
    assert detect_scheme(["O", "B-PER", "I-PER"]) == BIO2
    assert detect_scheme(["O", "S-PER"]) == IOBES
    assert detect_scheme(["B-PER", "E-PER"]) == IOBES
    assert detect_scheme(["O"]) == BIO2
