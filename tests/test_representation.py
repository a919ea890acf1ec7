import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rnntagger import representation
from rnntagger.corpus import (
    PAD,
    PAD_INDEX,
    UNK,
    UNK_INDEX,
    Lexicon,
    Sentence,
    Token,
    Vocabulary,
    normalize,
)
from rnntagger.linalg import SeededRng
from rnntagger.representation import (
    CAP_WIDTH,
    DocCache,
    EmbeddingTable,
    FeatureConfig,
    capitalization_class,
    encode_sentence,
    load_embeddings,
    token_features,
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
        assert capitalization_class("paris") == 0

    def test_all_upper(self):
        assert capitalization_class("NATO") == 1

    def test_no_alpha(self):
        assert capitalization_class("1984") == 4

    def test_init_cap(self):
        assert capitalization_class("Madrid") == 2

    def test_mixed(self):
        assert capitalization_class("McDonald") == 3

    def test_init_cap_with_punctuation(self):
        assert capitalization_class("Mr.") == 2

    @given(st.text(min_size=1, max_size=12))
    def test_exactly_one_bit(self, s):
        cols = feature_columns([s], capitalization=True)
        assert cols[0] == np.eye(CAP_WIDTH)[capitalization_class(s)].tolist()


def feature_columns(words, doc_state=None, **features):
    """The feature columns of each word's w-vector, as encode_sentence
    builds them (v_c = 0, so x_i is w_i itself)."""
    table = EmbeddingTable.random(small_vocab(*words), 2, SeededRng(1))
    xs = encode_sentence(sent(*words), table, FeatureConfig(**features), v_c=0,
                         doc_state=doc_state)
    return [x[table.dim:].tolist() for x in xs]


class TestGazetteer:
    def test_phrase_match_marks_both_tokens(self):
        lex = Lexicon("geo", {"new york"})
        cols = feature_columns(["in", "New", "York"], gazetteers=[lex])
        assert cols == [[0], [1], [1]]

    def test_empty_lexicon_all_zero(self):
        lex = Lexicon("geo", set())
        assert feature_columns(["New", "York"], gazetteers=[lex]) == [[0], [0]]

    def test_phrase_starting_inside_a_token_with_a_space(self):
        # the first token is two of the phrase's words: it is a prefix of
        # the phrase, not its first word
        lex = Lexicon("geo", {"new york city"})
        cols = feature_columns(["in", "New York", "City"], gazetteers=[lex])
        assert cols == [[0], [1], [1]]

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


def cache_columns(cache, word, width):
    """The cache columns of word's w-vector under the document cache."""
    return feature_columns([word], cache_tagset=list(range(width)), doc_state=cache)[0]


class TestCache:
    def test_first_occurrence_zero(self):
        cache = DocCache()
        assert sum(cache_columns(cache, "Liverpool", 3)) == 0

    def test_recent_label_one_hot(self):
        cache = DocCache()
        s = sent("Liverpool")
        cache.update_sentence(s, ["B-ORG"], {"O": 0, "B-ORG": 1, "I-ORG": 2})
        assert cache_columns(cache, "liverpool", 3) == [0, 1, 0]

    def test_most_recent_wins(self):
        cache = DocCache()
        tagmap = {"O": 0, "B-ORG": 1}
        cache.update_sentence(sent("Jordan"), ["B-ORG"], tagmap)
        cache.update_sentence(sent("Jordan"), ["O"], tagmap)
        assert cache_columns(cache, "Jordan", 2) == [1, 0]


class TestEmbeddingTable:
    def test_pad_row_zero_after_init(self):
        vocab = small_vocab("a", "b")
        t = EmbeddingTable.random(vocab, 8, SeededRng(1))
        assert np.all(t.matrix[PAD_INDEX] == 0)

    def test_pad_row_frozen_under_updates(self):
        vocab = small_vocab("a")
        t = EmbeddingTable.random(vocab, 4, SeededRng(1))
        before = t.matrix.copy()
        rows = np.arange(len(vocab))
        t.add_grad(rows, np.ones((len(vocab), 4)), lr=0.5)
        assert np.all(t.matrix[PAD_INDEX] == 0)
        assert np.array_equal(t.matrix[1:], before[1:] - 0.5)

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

    def test_save_text_refuses_a_non_finite_row_before_opening(self, tmp_path):
        t = EmbeddingTable.random(small_vocab("a", "b"), 3, SeededRng(1))
        t.matrix[3, 1] = np.nan
        path = tmp_path / "v.txt"
        with pytest.raises(FloatingPointError, match="the row for 'b' holds a non-finite value"):
            t.save_text(str(path))
        assert not path.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_mean_needed_only_without_an_unk_row(self, tmp_path):
        rows = "a 1.7e308 1.0\nb 1.7e308 2.0\n"
        path = tmp_path / "v.txt"
        path.write_text(rows)
        with pytest.raises(ValueError, match="v.txt: the row for '<unk>', the mean of the "
                                             "rows, cannot be computed: their sum overflows"):
            load_embeddings(str(path))
        path.write_text(rows + "%s 0.5 0.5\n" % UNK)
        t = load_embeddings(str(path))
        assert t.matrix[UNK_INDEX].tolist() == [0.5, 0.5]

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
        ("a 1.0 2.0\nb 0.5 abc\n", ":2: row for 'b': could not convert string to float: 'abc'"),
        ("a 1.0 2.0\nb 1,5 0.5\n", ":2: row for 'b': could not convert string to float: '1,5'"),
        ("2 2\na --1 2.0\n", ":2: row for 'a': could not convert string to float: '--1'"),
        ("a 1.0 2.0\nb 0.5 infinity\n", ":2: row for 'b' holds a non-finite value"),
        ("a 1.0 2.0\nb 1e400 0.5\n", ":2: row for 'b' holds a non-finite value"),
        ("3 5\na 1.0 2.0\nb 3.0 4.0\n", ":2: row for 'a' has 2 values, expected 5"),
        ("3 2\na 1.0 2.0\nb 3.0 4.0\n", ":1: the header gives 3 rows, the file has 2"),
        # no buffer is sized from the header's count
        ("1000000000 2\na 1.0 2.0\n", ":1: the header gives 1000000000 rows, the file has 1"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(str(path))
        assert str(err.value) == str(path) + message

    @pytest.mark.parametrize("value", ["1_000", "\u0661\u0662", "-0.0", "4.9e-324", "+.5",
                                       "1e-400", " 7"])
    def test_values_load_as_float_reads_them(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text("a %s 2.0\n" % value, encoding="utf-8")
        t = load_embeddings(str(path))
        assert t.matrix[t.vocab.index("a")].tobytes() == np.array([float(value), 2.0]).tobytes()

    def test_duplicate_word_keeps_first_row_and_unk_is_mean_of_all_lines(self, tmp_path):
        rows = [("a", [0.1, 0.7]), ("b", [0.2, -0.3]), ("a", [0.3, 1e-17])]
        path = tmp_path / "vec.txt"
        path.write_text("".join("%s %r %r\n" % (w, *r) for w, r in rows), encoding="utf-8")
        t = load_embeddings(str(path))
        assert t.vocab.index_to_word[2:] == ["a", "b"]
        assert t.matrix[t.vocab.index("a")].tobytes() == np.array([0.1, 0.7]).tobytes()
        # the UNK row averages every line, the dropped duplicate too
        mean = np.mean(np.array([r for _, r in rows]), axis=0)
        assert t.matrix[UNK_INDEX].tobytes() == mean.tobytes()
        assert t.matrix[UNK_INDEX].tolist() == [0.20000000000000004, 0.13333333333333333]

    def test_unk_row_in_file_is_kept(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n%s 5.0 6.0\n%s 7.0 8.0\n" % (UNK, UNK), encoding="utf-8")
        t = load_embeddings(str(path))
        assert t.matrix[UNK_INDEX].tolist() == [5.0, 6.0]
        assert t.matrix[t.vocab.index("a")].tolist() == [1.0, 2.0]
        assert len(t.vocab) == 3


    def test_words_are_normalized_and_a_normal_words_first_line_gives_its_row(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("Paris 1.0 2.0\nparis 3.0 4.0\n1999 5.0 6.0\n<UNK> 7.0 8.0\n"
                        "0000 9.0 1.0\n\u039f\u0394\u039f\u03a3 2.0 3.0\n", encoding="utf-8")
        t = load_embeddings(str(path))
        assert t.vocab.index_to_word[2:] == ["paris", "0000", "\u03bf\u03b4\u03bf\u03c2"]
        assert t.matrix[t.vocab.index("PARIS")].tolist() == [1.0, 2.0]
        assert t.matrix[t.vocab.index("2024")].tolist() == [5.0, 6.0]
        assert t.matrix[UNK_INDEX].tolist() == [7.0, 8.0]
        assert t.matrix[t.vocab.index("\u039f\u0394\u039f\u03a3")].tolist() == [2.0, 3.0]
        # a refusal names the word as the file writes it
        path.write_text("Paris 1.0 nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: row for 'Paris' holds a non-finite value"):
            load_embeddings(str(path))

def float_loop_load(path):
    """The vectors file as a per-value float() loop reads it: the
    vocabulary's words, each normalized on its own, and the matrix, PAD
    zero and UNK the mean of every line unless a line holds it."""
    lines = [raw.split() for raw in Path(path).read_text(encoding="utf-8").splitlines()]
    if len(lines[0]) == 2 and all(p.isdecimal() for p in lines[0]):
        lines = lines[1:]
    lines = [p for p in lines if p]
    rows = [[float(v) for v in p[1:]] for p in lines]
    first = {}
    for p, row in zip(lines, rows):
        first.setdefault(normalize(p[0]), row)
    vocab = small_vocab(*first)
    matrix = np.zeros((len(vocab), len(rows[0])))
    matrix[UNK_INDEX] = np.mean(np.array(rows), axis=0)
    for word, row in first.items():
        matrix[vocab.word_to_index[word]] = row
    matrix[PAD_INDEX] = 0.0
    return vocab.index_to_word, matrix


# finite values with the edges of the format: signed zero, subnormals and
# magnitudes whose mean over a few rows stays finite
FINITE = st.one_of(st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
                   st.floats(-1e300, 1e300))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.sampled_from(["a", "b", "\u00e7a", "\u4e2d"]), min_size=1, max_size=8),
       dim=st.integers(1, 4), header=st.booleans(), reserved=st.booleans(), data=st.data())
def test_saved_vectors_load_back_bit_exact(words, dim, header, reserved, data):
    """save_text then load_embeddings keeps every bit. Repeated words are
    extra lines after the saved ones; without the saved PAD and UNK lines
    the UNK row is the mean of every line, repeats included."""
    distinct = list(dict.fromkeys(words))
    table = EmbeddingTable(small_vocab(*distinct), dim,
                           data.draw(arrays(np.float64, (len(distinct) + 2, dim),
                                            elements=FINITE)))
    repeats = [w for i, w in enumerate(words) if w in words[:i]]
    extra = data.draw(arrays(np.float64, (len(repeats), dim), elements=FINITE))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "vec.txt"
        table.save_text(str(path))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        if not reserved:
            lines = [ln for ln in lines if ln.split()[0] not in (PAD, UNK)]
        lines += [w + " " + " ".join(map(float.__repr__, row.tolist()))
                  for w, row in zip(repeats, extra)]
        if header:
            lines.insert(0, "%d %d" % (len(lines), dim))
        path.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        got = load_embeddings(str(path))
        oracle_words, oracle = float_loop_load(path)
    assert got.vocab.index_to_word == oracle_words
    assert got.matrix.tobytes() == oracle.tobytes()
    for w in table.vocab.index_to_word[2:]:
        # the first line of a word wins
        assert (got.matrix[got.vocab.word_to_index[w]].tobytes()
                == table.matrix[table.vocab.word_to_index[w]].tobytes())
    if reserved:
        assert got.matrix.tobytes() == table.matrix.tobytes()
    else:
        every_line = np.concatenate([table.matrix[2:], extra])
        assert got.matrix[UNK_INDEX].tobytes() == np.mean(every_line, axis=0).tobytes()


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from(["a", "b", "B", "\u00e7a", "\u4e2d", PAD, UNK]),
                      min_size=1, max_size=10))
def test_loaded_vocabulary_equals_the_add_loop(words):
    """The one-pass vocabulary is what one add() per distinct normalized
    word in file order builds: a repeated word, or one that normalizes
    to an earlier one (B to b), keeps its first line's place, and a
    literal PAD or UNK anywhere its reserved row."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "vec.txt"
        path.write_text("".join("%s %d.5\n" % (w, i) for i, w in enumerate(words)),
                        encoding="utf-8")
        got = load_embeddings(str(path))
        _, oracle = float_loop_load(path)
    want = small_vocab(*dict.fromkeys(map(normalize, words)))
    assert (got.vocab.index_to_word, got.vocab.word_to_index) == (want.index_to_word,
                                                                   want.word_to_index)
    assert got.matrix.tobytes() == oracle.tobytes()


def load_outcome(path):
    """load_embeddings' words and matrix bytes for the file, or its message."""
    try:
        t = load_embeddings(str(path))
    except ValueError as e:
        return str(e)
    return t.vocab.index_to_word, t.matrix.tobytes()


# a value token: finite values as save_text writes them, syntax that only
# float() reads, non-finite values and one that nothing reads
VALUE = st.one_of(FINITE.map(float.__repr__),
                  st.sampled_from(["1_000", "\u0663", "+.5", "-0.0", "1e-400", "nan", "1e400",
                                   "-inf", "x"]))
SEP = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"])


@st.composite
def vectors_files(draw):
    """The bytes of a vectors file with the edges of the format: a header
    right or wrong or none, blank lines, LF, CRLF and lone-CR line ends,
    non-ASCII separators, rows too wide or without values, repeated
    words and <unk> rows."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u3000"])))
            continue
        width = draw(st.sampled_from([dim] * 6 + [0, dim + 1]))
        sep = draw(SEP)
        lines.append(sep.join([draw(st.sampled_from(["a", "b", "\u00e7a", "\u4e2d", UNK]))]
                              + draw(st.lists(VALUE, min_size=width, max_size=width)))
                     + draw(st.sampled_from(["", " ", "\t"])))
    if draw(st.booleans()):
        count = sum(bool(ln.split()) for ln in lines)
        lines.insert(0, "%d %d" % (draw(st.sampled_from([count, count + 1])),
                                   draw(st.sampled_from([dim, dim + 1]))))
    ends = [draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])) for _ in lines]
    return "".join(ln + end for ln, end in zip(lines, ends)).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(vectors_files())
def test_one_pass_loads_as_the_per_line_reader(data):
    """load_embeddings gives the per-line reader's words and matrix bytes,
    or its message, whichever of its two readers answers, and lets no
    warning of either through."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "vec.txt"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_outcome(path)
            with mock.patch.object(representation, "_parse_one_pass", return_value=None):
                want = load_outcome(path)
    assert got == want


def test_saved_vectors_take_the_one_pass(tmp_path, monkeypatch):
    """A save_text file and its CRLF copy load without the per-line
    reader, which is only for files the one pass cannot read."""
    table = EmbeddingTable.random(small_vocab("a", "b", "\u00e7a"), 5, SeededRng(3))
    path, crlf = tmp_path / "vec.txt", tmp_path / "vec_crlf.txt"
    table.save_text(str(path))
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    def per_line(path):
        raise AssertionError("%s went through the per-line reader" % path)

    monkeypatch.setattr(representation, "_parse_per_line", per_line)
    for p in (path, crlf):
        t = load_embeddings(str(p))
        assert t.vocab.index_to_word == table.vocab.index_to_word
        assert t.matrix.tobytes() == table.matrix.tobytes()


def test_loading_vectors_peaks_below_six_times_the_matrix(tmp_path):
    """The loader holds no Python float per value: loading a 5000 x 50
    file peaks below 6x the matrix's bytes under tracemalloc.  Its words
    are distinct but capitalized, so the normalization pass runs too."""
    n, dim = 5000, 50
    values = np.random.default_rng(0).standard_normal((n, dim))
    path = tmp_path / "vec.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (n, dim))
        for i, row in enumerate(values.tolist()):
            word = "W" + str(i).translate(str.maketrans("0123456789", "abcdefghij"))
            fh.write("%s %s\n" % (word, " ".join(map(repr, row))))
    tracemalloc.start()
    try:
        t = load_embeddings(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.matrix[2:].tobytes() == values.tobytes()
    assert peak < 6 * values.nbytes, "peak %.2fx the matrix" % (peak / values.nbytes)


class TestEncodeSentence:
    def _table(self, words, dim=4, seed=7):
        return EmbeddingTable.random(small_vocab(*words), dim, SeededRng(seed))

    def test_zero_window_is_w_itself(self):
        t = self._table(["a", "b"])
        xs = encode_sentence(sent("a", "b"), t, FeatureConfig(), v_c=0)
        assert np.array_equal(xs[0], t.matrix[t.vocab.index("a")])

    def test_padding_at_edges(self):
        t = self._table(["a"], dim=3)
        x = encode_sentence(sent("a"), t, FeatureConfig(), v_c=1)[0]
        assert len(x) == 9
        assert np.all(x[:3] == 0)
        assert np.array_equal(x[3:6], t.matrix[t.vocab.index("a")])
        assert np.all(x[6:] == 0)

    def test_full_scale_width(self):
        # window radius 5 with 300-dim vectors and no features: 3300
        vocab = small_vocab("w")
        t = EmbeddingTable(vocab, 300, np.zeros((len(vocab), 300)))
        xs = encode_sentence(sent("w"), t, FeatureConfig(), v_c=5)
        assert len(xs[0]) == 3300

    def test_width_constant_and_matches_formula(self):
        t = self._table(["a", "b", "c"], dim=5)
        fconf = FeatureConfig(
            capitalization=True,
            gazetteers=[Lexicon("g", {"b"})],
            trigger=Lexicon("t", {"c"}),
            cache_tagset=["O", "B-X"],
        )
        v_c = 2
        xs = encode_sentence(sent("a", "b", "c"), t, fconf, v_c, DocCache())
        expect = (2 * v_c + 1) * (5 + fconf.width)
        assert fconf.width == 5 + 1 + 1 + 2
        assert all(len(x) == expect for x in xs)

    def test_feature_block_layout(self):
        t = self._table(["Paris"], dim=2)
        fconf = FeatureConfig(capitalization=True, gazetteers=[Lexicon("g", {"paris"})])
        x = encode_sentence(sent("Paris"), t, fconf, v_c=0)[0]
        assert np.array_equal(x[2:7], [0, 0, 1, 0, 0])  # init-cap
        assert x[7] == 1.0  # gazetteer hit

    def test_word_indices_recorded(self):
        t = self._table(["a"])
        indices, _ = token_features(sent("a", "zzz"), t.vocab, FeatureConfig())
        assert indices == [t.vocab.index("a"), t.vocab.index("zzz")]

    def test_reencoding_deterministic(self):
        t = self._table(["a", "b"])
        fconf = FeatureConfig(capitalization=True)
        s = sent("a", "b")
        e1 = encode_sentence(s, t, fconf, v_c=2)
        e2 = encode_sentence(s, t, fconf, v_c=2)
        assert all(np.array_equal(a, b) for a, b in zip(e1, e2))

    def test_negative_window_rejected(self):
        t = self._table(["a"])
        with pytest.raises(ValueError, match="v_c must be an integer >= 0, got -1"):
            encode_sentence(sent("a"), t, FeatureConfig(), v_c=-1)

    @settings(max_examples=40)
    @given(st.integers(0, 3), st.integers(1, 6))
    def test_window_width_invariant(self, v_c, n):
        t = self._table(["w%d" % k for k in range(6)], dim=3)
        s = sent(*["w%d" % (k % 6) for k in range(n)])
        xs = encode_sentence(s, t, FeatureConfig(capitalization=True), v_c)
        assert all(len(x) == (2 * v_c + 1) * (3 + 5) for x in xs)
        # the rows share memory, so a write to one would show in its neighbours
        assert not xs.flags.writeable


# --- encode_sentence against a per-token reference builder ---

def reference_capitalization(surface):
    bits = np.zeros(CAP_WIDTH)
    alpha = [c for c in surface if c.isalpha()]
    if not alpha:
        bits[4] = 1.0
    elif all(c.islower() for c in alpha):
        bits[0] = 1.0
    elif all(c.isupper() for c in alpha):
        bits[1] = 1.0
    elif alpha[0].isupper() and all(c.islower() for c in alpha[1:]):
        bits[2] = 1.0
    else:
        bits[3] = 1.0
    return bits


def reference_gazetteer_mask(surfaces, lexicon):
    """Greedy longest-first matching of lowercased phrases of at most
    lexicon.max_len tokens, every start tried."""
    lowered = [s.lower() for s in surfaces]
    mask = np.zeros(len(lowered))
    i = 0
    while i < len(lowered):
        lengths = [k for k in range(min(lexicon.max_len, len(lowered) - i), 0, -1)
                   if " ".join(lowered[i : i + k]) in lexicon.entries]
        if lengths:
            mask[i : i + lengths[0]] = 1.0
        i += lengths[0] if lengths else 1
    return mask


def reference_encode(sentence, table, fconf, v_c, cached=None):
    """(xs, word_indices) built token by token: each w-vector from its
    own zero rows, copied into place, then the windows.  cached maps a
    lowercased surface to its cached label index; None is no cache."""
    n = len(sentence)
    dim = table.dim
    block = dim + fconf.width
    surfaces = sentence.surfaces()
    gaz_masks = [reference_gazetteer_mask(surfaces, lex) for lex in fconf.gazetteers]
    w = np.zeros((n, block))
    indices = []
    for i, tok in enumerate(sentence.tokens):
        idx = table.vocab.index(tok.surface)
        indices.append(idx)
        w[i, :dim] = table.matrix[idx]
        at = dim
        if fconf.capitalization:
            w[i, at : at + CAP_WIDTH] = reference_capitalization(tok.surface)
            at += CAP_WIDTH
        for mask in gaz_masks:
            w[i, at] = mask[i]
            at += 1
        if fconf.trigger is not None:
            w[i, at] = 1.0 if tok.surface.lower() in fconf.trigger.entries else 0.0
            at += 1
        if fconf.cache_tagset is not None:
            label = cached.get(tok.surface.lower()) if cached is not None else None
            if label is not None:
                w[i, at + label] = 1.0
            at += len(fconf.cache_tagset)
    padded = np.zeros((n + 2 * v_c, block))
    padded[v_c : v_c + n] = w
    xs = np.hstack([padded[k : k + n] for k in range(2 * v_c + 1)])
    return xs, indices


# uncased letters (中), ß (lower, upper-cases to SS), İ (upper, lower-cases
# to two characters), digits, punctuation and both cases
SURFACES = st.text(alphabet="aBcD中ßİ09.-'", min_size=1, max_size=5)
CACHE_TAGS = ["O", "B-X", "I-X"]


@settings(max_examples=150, deadline=None)
@given(words=st.lists(SURFACES, min_size=1, max_size=8),
       known=st.lists(SURFACES, max_size=6),
       v_c=st.integers(0, 3),
       caps=st.booleans(),
       n_gaz=st.integers(0, 2),
       use_trigger=st.booleans(),
       use_cache=st.booleans(),
       data=st.data())
def test_encode_sentence_matches_per_token_builder(words, known, v_c, caps, n_gaz,
                                                   use_trigger, use_cache, data):
    pool = words + known
    table = EmbeddingTable.random(small_vocab(*{normalize(w) for w in known}), 3,
                                  SeededRng(len(pool)))
    phrase = st.lists(st.sampled_from(pool), min_size=1, max_size=2).map(
        lambda ws: " ".join(ws).lower())
    gazetteers = [Lexicon("g%d" % g, data.draw(st.sets(phrase, max_size=4)))
                  for g in range(n_gaz)]
    trigger = Lexicon("t", data.draw(st.sets(st.sampled_from(pool)))) if use_trigger else None
    fconf = FeatureConfig(capitalization=caps, gazetteers=gazetteers, trigger=trigger,
                          cache_tagset=CACHE_TAGS if use_cache else None)
    cache = cached = None
    if use_cache and data.draw(st.booleans()):
        cache, cached = DocCache(), {}
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                             st.sampled_from(CACHE_TAGS)), max_size=6))
        if pairs:
            t2i = {t: i for i, t in enumerate(CACHE_TAGS)}
            cache.update_sentence(sent(*[w for w, _ in pairs]), [t for _, t in pairs], t2i)
            cached = {w.lower(): t2i[t] for w, t in pairs}
    s = sent(*words)
    xs, indices = reference_encode(s, table, fconf, v_c, cached)
    got = encode_sentence(s, table, fconf, v_c, cache)
    assert got.shape == xs.shape and got.dtype == xs.dtype
    assert got.tobytes() == xs.tobytes()
    assert token_features(s, table.vocab, fconf, cache)[0] == indices


# spaces inside tokens, case variants of one word, digits
SPACED = st.text(alphabet="aBc中İ0 ", min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(words=st.lists(SPACED, min_size=1, max_size=5, unique=True),
       v_c=st.integers(0, 2),
       data=st.data())
def test_sentences_sharing_a_facts_table_match_the_per_token_builder(words, v_c, data):
    """A document's sentences encoded with one surface facts table, the
    cache fed with facts between them, each equals the per-token builder
    under a cache of its own bytewise: case variants of one surface,
    tokens holding spaces and phrases that start mid-sentence included."""
    pool = sorted({v for w in words for v in (w, w.upper(), w.lower(), w.title())})
    table = EmbeddingTable.random(small_vocab(*{normalize(w) for w in words[::2]}), 3,
                                  SeededRng(len(pool)))
    phrase = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(
        lambda ws: " ".join(ws).lower())
    fconf = FeatureConfig(
        capitalization=True,
        gazetteers=[Lexicon("g%d" % g, data.draw(st.sets(phrase, min_size=1, max_size=4)))
                    for g in range(2)],
        trigger=Lexicon("t", data.draw(st.sets(st.sampled_from(pool).map(str.lower)))),
        cache_tagset=CACHE_TAGS)
    t2i = {t: i for i, t in enumerate(CACHE_TAGS)}
    sentences = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=8),
                                   min_size=1, max_size=4))
    facts, cache, cached = {}, DocCache(), {}
    for words_of_sentence in sentences:
        s = sent(*words_of_sentence)
        want, indices = reference_encode(s, table, fconf, v_c, cached)
        got = encode_sentence(s, table, fconf, v_c, cache, facts)
        assert got.tobytes() == want.tobytes()
        assert token_features(s, table.vocab, fconf, cache, facts)[0] == indices
        tags = data.draw(st.lists(st.sampled_from(CACHE_TAGS), min_size=len(s),
                                  max_size=len(s)))
        cache.update_sentence(s, tags, t2i)
        cached.update((w.lower(), t2i[t]) for w, t in zip(words_of_sentence, tags))
    assert set(facts) == {w for ws in sentences for w in ws}
