import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import corpus
from rnntagger.corpus import (
    PAD_INDEX,
    UNK_INDEX,
    Lexicon,
    Sentence,
    Token,
    Vocabulary,
    build_vocab,
    documents,
    load_conll,
    load_lexicon,
    normalize,
    vocab_from_counts,
    write_conll,
)
from rnntagger.representation import gazetteer_mask


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_two_line_sentence(tmp_path):
    path = write(tmp_path, "a.conll", "John B-PER\nruns O\n\n")
    sents = load_conll(path)
    assert len(sents) == 1
    assert sents[0].surfaces() == ["John", "runs"]
    assert sents[0].tags() == ["B-PER", "O"]


def test_blank_only_file(tmp_path):
    path = write(tmp_path, "b.conll", "\n\n\n")
    assert load_conll(path) == []


def test_empty_file(tmp_path):
    path = write(tmp_path, "c.conll", "")
    assert load_conll(path) == []


def test_three_sentences_token_counts(tmp_path):
    text = "a O\nb O\nc O\n\nd O\n\ne O\nf O\n"
    path = write(tmp_path, "d.conll", text)
    sents = load_conll(path)
    assert [len(s) for s in sents] == [3, 1, 2]


def test_missing_column_reports_line_number(tmp_path):
    path = write(tmp_path, "e.conll", "fine O\nbroken\n")
    with pytest.raises(ValueError, match=r"e\.conll:2: no tag column after the token$"):
        load_conll(path)


def test_untagged_mode_ignores_columns(tmp_path):
    path = write(tmp_path, "f.conll", "just\ntokens\n")
    sents = load_conll(path, tagged=False)
    assert sents[0].surfaces() == ["just", "tokens"]
    assert sents[0].tags() == [None, None]


def test_docstart_separates_documents(tmp_path):
    text = "-DOCSTART- O\n\na O\n\nb O\n\n-DOCSTART- O\n\nc O\n"
    path = write(tmp_path, "g.conll", text)
    sents = load_conll(path)
    assert [s.doc_id for s in sents] == ["0", "0", "1"]


def test_column_selection(tmp_path):
    # the token is the first column and the tag the last
    path = write(tmp_path, "h.conll", "John NNP I-NP B-PER\n")
    sents = load_conll(path)
    assert sents[0].surfaces() == ["John"]
    assert sents[0].tags() == ["B-PER"]


def test_write_then_load_round_trip(tmp_path):
    text = "John B-PER\nruns O\n\nMary B-PER\n"
    src = write(tmp_path, "i.conll", text)
    sents = load_conll(src)
    out = str(tmp_path / "out.conll")
    write_conll(sents, out)
    again = load_conll(out)
    assert [(s.surfaces(), s.tags()) for s in again] == [
        (s.surfaces(), s.tags()) for s in sents
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=12))
def test_documents_are_the_maximal_runs_of_one_doc_id(ids):
    docs = documents([Sentence([Token("w")], doc_id=d) for d in ids])
    assert [i for doc in docs for i in doc] == list(range(len(ids)))
    assert all(doc and len({ids[i] for i in doc}) == 1 for doc in docs)
    assert all(ids[a[-1]] != ids[b[0]] for a, b in zip(docs, docs[1:]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.lists(st.tuples(st.sampled_from(["Anna", "x", "7"]),
                                             st.sampled_from(["O", "B-PER", "I-PER"])),
                                   min_size=1, max_size=4)),
                max_size=8))
def test_write_then_load_keeps_the_documents(rows):
    sents = [Sentence([Token(w, t) for w, t in toks], doc_id=d) for d, toks in rows]
    with tempfile.TemporaryDirectory() as d:
        out = str(Path(d, "out.conll"))
        write_conll(sents, out)
        again = load_conll(out)

    def grouped(ss):
        return [[(ss[i].surfaces(), ss[i].tags()) for i in doc] for doc in documents(ss)]
    assert grouped(again) == grouped(sents)


class TestVocabulary:
    def _sents(self, tmp_path, words):
        path = write(tmp_path, "v.conll", "".join("%s O\n" % w for w in words))
        return load_conll(path)

    def test_min_count_threshold(self):
        vocab = vocab_from_counts(Counter({"a": 2, "b": 1}), min_count=2)
        assert len(vocab) == 3  # PAD, UNK, a
        assert vocab.index("a") == 2
        assert vocab.index("b") == UNK_INDEX

    def test_min_count_one_keeps_all(self, tmp_path):
        sents = self._sents(tmp_path, ["x", "y", "z"])
        vocab = build_vocab(sents)
        assert all(vocab.index(w) != UNK_INDEX for w in ["x", "y", "z"])

    def test_frequency_then_lexicographic_order(self, tmp_path):
        sents = self._sents(tmp_path, ["bb", "bb", "aa", "cc"])
        vocab = build_vocab(sents)
        # bb has freq 2, then aa/cc tie resolved lexicographically
        assert vocab.index_to_word[2:] == ["bb", "aa", "cc"]

    def test_rebuild_identical(self, tmp_path):
        sents = self._sents(tmp_path, ["m", "n", "n", "o"])
        v1 = build_vocab(sents)
        v2 = build_vocab(sents)
        assert v1.word_to_index == v2.word_to_index

    def test_lookup_is_total(self, tmp_path):
        vocab = build_vocab(self._sents(tmp_path, ["hello"]))
        for s in ["hello", "never-seen", "", "  ", "123"]:
            idx = vocab.index(s)
            assert 0 <= idx < len(vocab)
        assert vocab.index("never-seen") == UNK_INDEX

    def test_reserved_indices(self):
        vocab = Vocabulary()
        assert vocab.index_to_word[PAD_INDEX] == corpus.PAD
        assert vocab.index_to_word[UNK_INDEX] == corpus.UNK

    def test_lookup_normalizes(self, tmp_path):
        vocab = build_vocab(self._sents(tmp_path, ["Madrid", "tel5551234"]))
        assert vocab.index("MADRID") == vocab.index("madrid")
        assert vocab.index("tel9999999") == vocab.index("tel5551234")

    def test_min_count_zero_rejected(self):
        with pytest.raises(ValueError):
            vocab_from_counts(Counter({"a": 1}), min_count=0)


def vocab_by_add(freq, min_count=1):
    """One add() per kept word in (-count, word) order: the reference
    vocab_from_counts builds in one pass."""
    vocab = Vocabulary()
    for w in sorted((w for w, c in freq.items() if c >= min_count),
                    key=lambda w: (-freq[w], w)):
        vocab.add(w)
    return vocab


@settings(max_examples=300, deadline=None)
@given(freq=st.dictionaries(st.sampled_from(["a", "b", "ab", "B", "\u00e9", "0", "<pad>x",
                                             corpus.PAD, corpus.UNK]) | st.text(max_size=3),
                            st.integers(1, 4), max_size=12),
       min_count=st.integers(1, 3))
def test_one_pass_vocabulary_equals_the_add_loop(freq, min_count):
    # counts from 1 to 4 tie often; a literal PAD or UNK keeps its row
    got = vocab_from_counts(Counter(freq), min_count)
    want = vocab_by_add(freq, min_count)
    assert (got.index_to_word, got.word_to_index) == (want.index_to_word, want.word_to_index)


def test_normalize_modes():
    assert normalize("Abc123") == "abc000"


class TestLexicon:
    def test_two_entries(self, tmp_path):
        path = write(tmp_path, "trig.txt", "Mr.\npresident\n")
        lex = load_lexicon(path)
        assert len(lex.entries) == 2
        assert "mr." in lex.entries

    def test_membership_case_insensitive(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.txt", "President\nPRESIDENT\n"))
        assert lex.entries == {"president"}
        assert "senator" not in lex.entries

    def test_duplicates_collapse(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "m.txt", "a\nA\na\n"))
        assert lex.entries == {"a"}

    def test_empty_file_valid(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "n.txt", ""))
        assert lex.entries == set()
        assert lex.max_len == 0

    def test_multiword_phrases(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "o.txt", "New York City\nParis\n"))
        assert lex.max_len == 3
        assert "new york city" in lex.entries

    def test_inner_whitespace_is_one_space(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "geo.txt",
                                 "new  york\nlos\tangeles\n  Rio \t de   Janeiro \n \t \n"))
        assert lex.entries == {"new york", "los angeles", "rio de janeiro"}
        assert lex.max_len == 3
        assert {"new", "los", "rio", "rio de"} <= lex.prefixes
        words = "in new york and los angeles".split()
        assert gazetteer_mask(words, lex).tolist() == [0, 1, 1, 0, 1, 1]

    @pytest.mark.parametrize("entry", ["new  york", "New York", "new\tyork", " new york\n"])
    def test_built_entries_follow_the_file_rule(self, entry):
        # a lexicon built from a model file's entries reads them as a
        # lexicon file's lines are read
        lex = Lexicon("g", {entry, " \t "})
        assert lex.entries == {"new york"}
        assert gazetteer_mask("in new york".split(), lex).tolist() == [0, 1, 1]

    def test_name_defaults_to_stem(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "cities.txt", "Paris\n"))
        assert lex.name == "cities"

    def test_unreadable_file_errors(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(str(tmp_path / "missing.txt"))
