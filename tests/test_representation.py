import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.corpus import PAD_INDEX, UNK_INDEX, Lexicon, Sentence, Token, Vocabulary
from rnntagger.linalg import SeededRng
from rnntagger.representation import (
    DocCache,
    EmbeddingTable,
    FeatureConfig,
    cache_feature,
    capitalization_features,
    encode_sentence,
    load_embeddings,
)


def sent(*words):
    return Sentence([Token(w) for w in words])


def small_vocab(*words):
    v = Vocabulary()
    for w in words:
        v.add(w)
    return v


class TestCapitalization:
    def test_all_lower(self):
        assert capitalization_features("paris").tolist() == [1, 0, 0, 0, 0]

    def test_all_upper(self):
        assert capitalization_features("NATO").tolist() == [0, 1, 0, 0, 0]

    def test_no_alpha(self):
        assert capitalization_features("1984").tolist() == [0, 0, 0, 0, 1]

    def test_init_cap(self):
        assert capitalization_features("Madrid").tolist() == [0, 0, 1, 0, 0]

    def test_mixed(self):
        assert capitalization_features("McDonald").tolist() == [0, 0, 0, 1, 0]

    def test_init_cap_with_punctuation(self):
        assert capitalization_features("Mr.").tolist() == [0, 0, 1, 0, 0]

    @given(st.text(min_size=1, max_size=12))
    def test_exactly_one_bit(self, s):
        assert capitalization_features(s).sum() == 1


def feature_columns(words, **features):
    """The feature columns of each word's w-vector, as encode_sentence
    builds them (v_c = 0, so x_i is w_i itself)."""
    table = EmbeddingTable.random(small_vocab(*words), 2, SeededRng(1))
    enc = encode_sentence(sent(*words), table, FeatureConfig(**features), v_c=0)
    return [x[table.dim:].tolist() for x in enc.xs]


class TestGazetteer:
    def test_phrase_match_marks_both_tokens(self):
        lex = Lexicon("geo", {"new york"})
        cols = feature_columns(["in", "New", "York"], gazetteers=[lex])
        assert cols == [[0], [1], [1]]

    def test_empty_lexicon_all_zero(self):
        lex = Lexicon("geo", set())
        assert feature_columns(["New", "York"], gazetteers=[lex]) == [[0], [0]]

    def test_longest_first_greedy(self):
        # both 2-token phrases known; greedy takes "new york" first,
        # leaving "City" unmatched since "york city" would overlap
        lex = Lexicon("geo", {"new york", "york city"})
        cols = feature_columns(["New", "York", "City"], gazetteers=[lex])
        assert cols == [[1], [1], [0]]

    def test_longer_beats_shorter_at_same_start(self):
        lex = Lexicon("geo", {"new", "new york"})
        assert feature_columns(["New", "York"], gazetteers=[lex]) == [[1], [1]]

    def test_case_insensitive(self):
        lex = Lexicon("geo", {"paris"})
        assert feature_columns(["PARIS"], gazetteers=[lex]) == [[1]]

    def test_one_bit_per_lexicon(self):
        g1 = Lexicon("a", {"paris"})
        g2 = Lexicon("b", {"london"})
        assert feature_columns(["paris"], gazetteers=[g1, g2]) == [[1, 0]]


class TestTrigger:
    def test_trigger_word_fires(self):
        lex = Lexicon("trig", {"mr."})
        assert feature_columns(["Mr.", "Smith"], trigger=lex) == [[1], [0]]

    def test_empty_list_never_fires(self):
        lex = Lexicon("trig", set())
        assert feature_columns(["Mr."], trigger=lex) == [[0]]

    def test_non_trigger(self):
        lex = Lexicon("trig", {"president"})
        assert feature_columns(["banana"], trigger=lex) == [[0]]


class TestCache:
    def test_first_occurrence_zero(self):
        cache = DocCache()
        assert cache_feature(cache, Token("Liverpool"), 3).sum() == 0

    def test_recent_label_one_hot(self):
        cache = DocCache()
        s = sent("Liverpool")
        cache.update_sentence(s, ["B-ORG"], {"O": 0, "B-ORG": 1, "I-ORG": 2})
        bits = cache_feature(cache, Token("liverpool"), 3)
        assert bits.tolist() == [0, 1, 0]

    def test_reset_clears(self):
        cache = DocCache()
        cache.update_sentence(sent("a"), ["B-X"], {"B-X": 1})
        cache.reset()
        assert cache_feature(cache, Token("a"), 2).sum() == 0

    def test_most_recent_wins(self):
        cache = DocCache()
        tagmap = {"O": 0, "B-ORG": 1}
        cache.update_sentence(sent("Jordan"), ["B-ORG"], tagmap)
        cache.update_sentence(sent("Jordan"), ["O"], tagmap)
        assert cache_feature(cache, Token("Jordan"), 2).tolist() == [1, 0]


class TestEmbeddingTable:
    def test_pad_row_zero_after_init(self):
        vocab = small_vocab("a", "b")
        t = EmbeddingTable.random(vocab, 8, SeededRng(1))
        assert np.all(t.matrix[PAD_INDEX] == 0)

    def test_pad_row_frozen_under_updates(self):
        vocab = small_vocab("a")
        t = EmbeddingTable.random(vocab, 4, SeededRng(1))
        for i in range(len(vocab)):
            t.add_grad(i, np.ones(4), lr=0.5)
        assert np.all(t.matrix[PAD_INDEX] == 0)

    def test_random_init_radius(self):
        t = EmbeddingTable.random(small_vocab("a", "b", "c"), 10, SeededRng(2))
        assert np.all(np.abs(t.matrix) <= 0.5 / 10)

    def test_vector_lookup_unknown_goes_to_unk(self):
        vocab = small_vocab("known")
        t = EmbeddingTable.random(vocab, 4, SeededRng(3))
        assert np.array_equal(t.matrix[vocab.index("zzz")], t.matrix[UNK_INDEX])

    def test_save_load_round_trip_exact(self, tmp_path):
        vocab = small_vocab("alpha", "beta")
        t = EmbeddingTable.random(vocab, 6, SeededRng(4))
        path = str(tmp_path / "emb.txt")
        t.save_text(path)
        back = load_embeddings(path)
        assert back.dim == 6
        assert np.array_equal(back.matrix, t.matrix)
        assert back.vocab.index_to_word == vocab.index_to_word

    def test_load_headerless(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hello 1.0 2.0\nworld 3.0 4.0\n", encoding="utf-8")
        t = load_embeddings(str(path))
        assert t.dim == 2
        assert np.array_equal(t.matrix[t.vocab.index("hello")], [1.0, 2.0])
        # absent reserved rows are synthesized: PAD zero, UNK mean
        assert np.array_equal(t.matrix[PAD_INDEX], [0.0, 0.0])
        assert np.array_equal(t.matrix[t.vocab.index("unseen")], [2.0, 3.0])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0 2.0\nb 3.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_embeddings(str(path))

    @pytest.mark.parametrize("text,message", [
        ("a 1.0 2.0\nb 3.0\n", ":2: row for 'b' has 1 values, expected 2"),
        ("3 2\na 1.0 2.0\n\nb 0.5 nan\n", ":4: row for 'b' holds a non-finite value"),
        ("a 1.0 -inf\nb 0.5 0.5\n", ":1: row for 'a' holds a non-finite value"),
        ("a 1.0 2.0\nb x 0.5\n", ":2: row for 'b': could not convert string to float: 'x'"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == str(path) + message


class TestEncodeSentence:
    def _table(self, words, dim=4, seed=7):
        return EmbeddingTable.random(small_vocab(*words), dim, SeededRng(seed))

    def test_zero_window_is_w_itself(self):
        t = self._table(["a", "b"])
        enc = encode_sentence(sent("a", "b"), t, FeatureConfig(), v_c=0)
        assert np.array_equal(enc.xs[0], t.matrix[t.vocab.index("a")])

    def test_padding_at_edges(self):
        t = self._table(["a"], dim=3)
        enc = encode_sentence(sent("a"), t, FeatureConfig(), v_c=1)
        x = enc.xs[0]
        assert len(x) == 9
        assert np.all(x[:3] == 0)
        assert np.array_equal(x[3:6], t.matrix[t.vocab.index("a")])
        assert np.all(x[6:] == 0)

    def test_full_scale_width(self):
        # window radius 5 with 300-dim vectors and no features: 3300
        vocab = small_vocab("w")
        t = EmbeddingTable(vocab, 300)
        enc = encode_sentence(sent("w"), t, FeatureConfig(), v_c=5)
        assert len(enc.xs[0]) == 3300

    def test_width_constant_and_matches_formula(self):
        t = self._table(["a", "b", "c"], dim=5)
        fconf = FeatureConfig(
            capitalization=True,
            gazetteers=[Lexicon("g", {"b"})],
            trigger=Lexicon("t", {"c"}),
            cache_tagset=["O", "B-X"],
        )
        v_c = 2
        enc = encode_sentence(sent("a", "b", "c"), t, fconf, v_c, DocCache())
        expect = (2 * v_c + 1) * (5 + fconf.width)
        assert fconf.width == 5 + 1 + 1 + 2
        assert all(len(x) == expect for x in enc.xs)

    def test_feature_block_layout(self):
        t = self._table(["Paris"], dim=2)
        fconf = FeatureConfig(capitalization=True, gazetteers=[Lexicon("g", {"paris"})])
        enc = encode_sentence(sent("Paris"), t, fconf, v_c=0)
        x = enc.xs[0]
        assert np.array_equal(x[2:7], [0, 0, 1, 0, 0])  # init-cap
        assert x[7] == 1.0  # gazetteer hit

    def test_word_indices_recorded(self):
        t = self._table(["a"])
        enc = encode_sentence(sent("a", "zzz"), t, FeatureConfig(), v_c=1)
        assert enc.word_indices == [t.vocab.index("a"), t.vocab.index("zzz")]

    def test_reencoding_deterministic(self):
        t = self._table(["a", "b"])
        fconf = FeatureConfig(capitalization=True)
        s = sent("a", "b")
        e1 = encode_sentence(s, t, fconf, v_c=2)
        e2 = encode_sentence(s, t, fconf, v_c=2)
        assert all(np.array_equal(a, b) for a, b in zip(e1.xs, e2.xs))

    def test_negative_window_rejected(self):
        t = self._table(["a"])
        with pytest.raises(ValueError):
            encode_sentence(sent("a"), t, FeatureConfig(), v_c=-1)

    @settings(max_examples=40)
    @given(st.integers(0, 3), st.integers(1, 6))
    def test_window_width_invariant(self, v_c, n):
        t = self._table(["w%d" % k for k in range(6)], dim=3)
        s = sent(*["w%d" % (k % 6) for k in range(n)])
        enc = encode_sentence(s, t, FeatureConfig(capitalization=True), v_c)
        assert all(len(x) == (2 * v_c + 1) * (3 + 5) for x in enc.xs)
