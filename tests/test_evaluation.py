import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.evaluation import (
    EvalReport,
    format_kv,
    format_table,
    score,
)
from rnntagger.tagging import Span


def spans(*triples):
    return [Span(a, b, t) for a, b, t in triples]


def test_identity_scores_perfect():
    gold = [spans((0, 1, "PER"), (3, 3, "ORG")), spans((2, 4, "LOC"))]
    r = score(gold, gold)
    assert r.precision == 100.0
    assert r.recall == 100.0
    assert r.f1 == 100.0


def test_two_of_three_predicted_four_gold():
    gold = [spans((0, 0, "PER"), (2, 3, "ORG"), (5, 5, "PER"), (7, 8, "LOC"))]
    pred = [spans((0, 0, "PER"), (2, 3, "ORG"), (9, 9, "PER"))]
    r = score(gold, pred)
    assert r.n_gold == 4 and r.n_pred == 3 and r.n_correct == 2
    assert r.precision == pytest.approx(200.0 / 3.0, abs=1e-12)
    assert r.recall == 50.0
    assert r.f1 == pytest.approx(400.0 / 7.0, abs=1e-12)
    assert round(r.precision, 2) == 66.67
    assert round(r.f1, 2) == 57.14


def test_no_predictions_reports_zero():
    gold = [spans((0, 1, "PER"))]
    r = score(gold, [[]])
    assert r.precision == 0.0
    assert r.recall == 0.0
    assert r.f1 == 0.0


def test_no_gold_and_no_pred_is_all_zero():
    r = score([[]], [[]])
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    assert r.n_gold == r.n_pred == r.n_correct == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        score([[], []], [[]])


def test_type_must_match_for_credit():
    gold = [spans((0, 1, "PER"))]
    pred = [spans((0, 1, "ORG"))]
    assert score(gold, pred).n_correct == 0


def test_boundaries_must_match_for_credit():
    gold = [spans((0, 2, "PER"))]
    pred = [spans((0, 1, "PER"))]
    assert score(gold, pred).n_correct == 0


def test_gold_span_matched_at_most_once():
    gold = [spans((0, 1, "PER"))]
    pred = [spans((0, 1, "PER"), (0, 1, "PER"))]
    r = score(gold, pred)
    assert r.n_correct == 1
    assert r.n_pred == 2


def test_cross_sentence_spans_do_not_match():
    gold = [spans((0, 1, "PER")), []]
    pred = [[], spans((0, 1, "PER"))]
    assert score(gold, pred).n_correct == 0


def test_per_type_breakdown():
    gold = [spans((0, 0, "PER"), (2, 2, "ORG"), (4, 4, "ORG"))]
    pred = [spans((0, 0, "PER"), (2, 2, "ORG"), (6, 6, "ORG"), (8, 8, "LOC"))]
    r = score(gold, pred)
    assert set(r.per_type) == {"PER", "ORG", "LOC"}
    per = r.per_type["PER"]
    assert (per.precision, per.recall, per.f1) == (100.0, 100.0, 100.0)
    org = r.per_type["ORG"]
    assert org.n_gold == 2 and org.n_pred == 2 and org.n_correct == 1
    assert org.precision == 50.0 and org.recall == 50.0 and org.f1 == 50.0
    loc = r.per_type["LOC"]
    assert loc.n_gold == 0 and loc.n_pred == 1
    assert loc.precision == 0.0 and loc.recall == 0.0 and loc.f1 == 0.0


@st.composite
def span_corpus(draw):
    n_sents = draw(st.integers(min_value=1, max_value=5))
    corpus = []
    for _ in range(n_sents):
        triples = draw(st.sets(st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["PER", "ORG", "LOC"])), max_size=5))
        corpus.append([Span(a, a + w, t) for a, w, t in triples])
    return corpus


@settings(max_examples=60, deadline=None)
@given(span_corpus(), span_corpus())
def test_counts_match_brute_force_set_intersection(gold, pred):
    # span sets are duplicate-free here, so multiset matching reduces
    # to plain set intersection
    if len(gold) != len(pred):
        n = min(len(gold), len(pred))
        gold, pred = gold[:n], pred[:n]
    r = score(gold, pred)
    want = sum(len(set(g) & set(p)) for g, p in zip(gold, pred))
    assert r.n_correct == want
    assert r.n_gold == sum(len(g) for g in gold)
    assert r.n_pred == sum(len(p) for p in pred)
    types = {sp.type for spans_ in gold + pred for sp in spans_}
    assert sorted(r.per_type) == sorted(types)
    for typ, s in r.per_type.items():
        gs = [{sp for sp in g if sp.type == typ} for g in gold]
        ps = [{sp for sp in p if sp.type == typ} for p in pred]
        assert (s.n_gold, s.n_pred, s.n_correct) == (
            sum(map(len, gs)), sum(map(len, ps)), sum(len(g & p) for g, p in zip(gs, ps)))
    for field in ("n_gold", "n_pred", "n_correct"):
        assert getattr(r, field) == sum(getattr(s, field) for s in r.per_type.values())


@settings(max_examples=40, deadline=None)
@given(span_corpus())
def test_self_score_is_perfect(corpus):
    r = score(corpus, corpus)
    if r.n_gold:
        assert (r.precision, r.recall, r.f1) == (100.0, 100.0, 100.0)


def test_adding_a_correct_prediction_never_lowers_recall():
    gold = [spans((0, 0, "PER"), (2, 2, "ORG"), (4, 4, "LOC"))]
    pred = [spans((9, 9, "PER"))]
    before = score(gold, pred)
    pred2 = [pred[0] + spans((2, 2, "ORG"))]
    after = score(gold, pred2)
    assert after.recall >= before.recall
    assert after.n_correct == before.n_correct + 1


def test_format_table_two_decimals():
    gold = [spans((0, 0, "PER"), (2, 3, "ORG"), (5, 5, "PER"), (7, 8, "LOC"))]
    pred = [spans((0, 0, "PER"), (2, 3, "ORG"), (9, 9, "PER"))]
    text = format_table(score(gold, pred))
    lines = text.splitlines()
    assert lines[0].split() == ["type", "P", "R", "F1", "gold", "pred", "corr"]
    assert lines[1].split()[0] == "ALL"
    assert "66.67" in lines[1] and "50.00" in lines[1] and "57.14" in lines[1]
    assert {ln.split()[0] for ln in lines[2:]} == {"LOC", "ORG", "PER"}


def test_format_kv_is_full_precision():
    gold = [spans((0, 0, "PER"), (2, 3, "ORG"), (5, 5, "PER"), (7, 8, "LOC"))]
    pred = [spans((0, 0, "PER"), (2, 3, "ORG"), (9, 9, "PER"))]
    r = score(gold, pred)
    kv = dict(line.split("=", 1) for line in format_kv(r).splitlines())
    assert float(kv["f1"]) == r.f1
    assert int(kv["n_correct"]) == 2
    assert float(kv["type.ORG.precision"]) == r.per_type["ORG"].precision


# the two texts of the example above, as the scorer wrote them when it
# kept the overall and the per-type counts apart
PINNED_TABLE = """\
type        P        R       F1    gold    pred    corr
ALL    66.67    50.00    57.14       4       3       2
LOC     0.00     0.00     0.00       1       0       0
ORG   100.00   100.00   100.00       1       1       1
PER    50.00    50.00    50.00       2       2       1"""
PINNED_KV = """\
n_gold=4
n_pred=3
n_correct=2
precision=66.66666666666667
recall=50.0
f1=57.142857142857146
type.LOC.n_gold=1
type.LOC.n_pred=0
type.LOC.n_correct=0
type.LOC.precision=0.0
type.LOC.recall=0.0
type.LOC.f1=0.0
type.ORG.n_gold=1
type.ORG.n_pred=1
type.ORG.n_correct=1
type.ORG.precision=100.0
type.ORG.recall=100.0
type.ORG.f1=100.0
type.PER.n_gold=2
type.PER.n_pred=2
type.PER.n_correct=1
type.PER.precision=50.0
type.PER.recall=50.0
type.PER.f1=50.0"""


def test_format_table_and_kv_keep_their_text():
    gold = [spans((0, 0, "PER"), (2, 3, "ORG"), (5, 5, "PER"), (7, 8, "LOC"))]
    pred = [spans((0, 0, "PER"), (2, 3, "ORG"), (9, 9, "PER"))]
    r = score(gold, pred)
    assert format_table(r) == PINNED_TABLE
    assert format_kv(r) == PINNED_KV


def test_report_fields_are_percentages():
    gold = [spans((0, 0, "PER"))]
    pred = [spans((0, 0, "PER"), (1, 1, "PER"))]
    r = score(gold, pred)
    assert isinstance(r, EvalReport)
    assert 0.0 <= r.precision <= 100.0
    assert 0.0 <= r.recall <= 100.0
    assert 0.0 <= r.f1 <= 100.0
