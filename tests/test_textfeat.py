import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskbench import textfeat
from deskbench.dataio import TabularFrame
from deskbench.errors import ConfigError, DataFormatError

from helpers import LONG_WORDS, STOPWORDS, documents
from oracles import (all_text_column_oracle, feature_matrix_oracle, fnv1a_64_oracle,
                     sparse_to_dense_oracle, sparse_vector_check_oracle, tokenize_oracle,
                     vectorize_corpus_oracle)


def sparse_from_json(text: str) -> textfeat.SparseVector:
    """Inverse of SparseVector.to_json."""
    obj = json.loads(text)
    return textfeat.SparseVector(obj["dim"], tuple(obj["idx"]),
                                 tuple(float(v) for v in obj["val"]))


class TestTokenize:
    def test_basic(self):
        assert textfeat.tokenize("The Dark Knight!") == ["the", "dark", "knight"]

    def test_empty(self):
        assert textfeat.tokenize("") == []

    def test_split_on_symbol_runs(self):
        assert textfeat.tokenize("R2-D2") == ["r2", "d2"]

    def test_short_tokens_dropped(self):
        assert textfeat.tokenize("a bc d ef") == ["bc", "ef"]

    def test_underscore_is_separator(self):
        assert textfeat.tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode_letters(self):
        assert textfeat.tokenize("café EXCELENTE, ¡sí!") == ["café", "excelente", "sí"]

    @given(st.text(max_size=40))
    @example("\u212aelvin \u212a K")  # KELVIN SIGN lowercases to ASCII k
    @example("\u0130stanbul \u0130")  # lowercases to i and a combining dot
    @example("a_b __cd_ef_ g_")
    @example("ab\x0bcd\x1cef\x1d\x1e\x1fgh\x85ij")
    @example("R2D2 3 42 0x1F 2024-01-31")
    @settings(max_examples=200, deadline=None)
    def test_matches_filtered_runs(self, text):
        assert textfeat.tokenize(text) == tokenize_oracle(text)

    @given(st.text(st.characters(max_codepoint=127), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_ascii_matches_filtered_runs(self, text):
        assert textfeat.tokenize(text) == tokenize_oracle(text)


class TestSparseVector:
    @given(st.integers(-1, 12),
           st.one_of(st.lists(st.integers(-2, 14), max_size=6),
                     st.lists(st.integers(-2, 14), max_size=6, unique=True).map(sorted)),
           st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_validation_matches_per_element_loop(self, dim, indices, values):
        def check(fn):
            try:
                fn(dim, tuple(indices), tuple(values))
            except ConfigError as exc:
                return str(exc)
            return None

        assert check(textfeat.SparseVector) == check(sparse_vector_check_oracle)


class TestStopwords:
    def test_filters_in_order(self):
        assert textfeat.remove_stopwords(["the", "dark", "knight"], {"the"}) == [
            "dark",
            "knight",
        ]

    def test_empty_stoplist_identity(self):
        tokens = ["x", "y", "x"]
        assert textfeat.remove_stopwords(tokens, set()) == tokens

    def test_all_stopped(self):
        assert textfeat.remove_stopwords(["a", "b"], {"a", "b"}) == []

    def test_stoplist_lines_are_tokenized(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("Great\ndon't\n\n  the  \nx\nNOT bad\n", encoding="utf-8")
        assert textfeat.load_stoplist(path) == {"great", "don", "the", "not", "bad"}


class TestFnv1a:
    # reference vectors from the FNV specification
    @pytest.mark.parametrize(
        "data,expected",
        [
            (b"", 0xCBF29CE484222325),
            (b"a", 0xAF63DC4C8601EC8C),
            (b"foobar", 0x85944171F73967E8),
        ],
    )
    def test_reference_vectors(self, data, expected):
        assert fnv1a_64_oracle(data) == expected
        assert textfeat.hash_tokens([data.decode()]).tolist() == [expected]

    @given(st.lists(st.one_of(st.text(max_size=12),
                              st.builds(lambda c, k: c * k, st.sampled_from("xé日"),
                                        st.integers(1334, 4100))), max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_loop(self, tokens):
        expected = [fnv1a_64_oracle(t.encode("utf-8")) for t in tokens]
        assert textfeat.hash_tokens(tokens).tolist() == expected

    @given(st.lists(st.text(max_size=60), min_size=textfeat._SCALAR_TOKENS - 2,
                    max_size=3 * textfeat._SCALAR_TOKENS))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_loop_across_the_handover(self, tokens):
        # enough tokens that the byte positions run by numpy give way to the
        # scalar finish at some position, or at none
        expected = [fnv1a_64_oracle(t.encode("utf-8")) for t in tokens]
        assert textfeat.hash_tokens(tokens).tolist() == expected

    @pytest.mark.parametrize("long_tokens", [1, textfeat._SCALAR_TOKENS,
                                             textfeat._SCALAR_TOKENS + 1])
    def test_long_tokens_among_short_ones(self, long_tokens):
        tokens = [f"w{i}" for i in range(1000)]
        for i in range(long_tokens):
            tokens[29 * i] = f"{i}" + "é" * (700 + i)
        expected = [fnv1a_64_oracle(t.encode("utf-8")) for t in tokens]
        assert textfeat.hash_tokens(tokens).tolist() == expected

    def test_megabyte_token(self):
        tokens = ["short", "k" * (1 << 20), "é" * 3000, ""]
        expected = [fnv1a_64_oracle(t.encode("utf-8")) for t in tokens]
        assert textfeat.hash_tokens(tokens).tolist() == expected


class TestHashedTf:
    def test_empty_tokens(self):
        vec = textfeat.hashed_tf([], dim=5000)
        assert vec.dim == 5000
        assert vec.nnz == 0

    def test_counts(self):
        vec = textfeat.hashed_tf(["x", "x", "y"], dim=5000)
        idx_x = fnv1a_64_oracle(b"x") % 5000
        assert dict(zip(vec.indices, vec.values))[idx_x] == 2.0

    def test_collision_pair_sums(self):
        # brute-force search for two distinct tokens sharing a slot at dim 7
        dim = 7
        by_slot = {}
        pair = None
        for code in range(26 * 26):
            token = chr(97 + code // 26) + chr(97 + code % 26)
            slot = fnv1a_64_oracle(token.encode()) % dim
            if slot in by_slot and by_slot[slot] != token:
                pair = (by_slot[slot], token, slot)
                break
            by_slot[slot] = token
        assert pair is not None
        a, b, slot = pair
        vec = textfeat.hashed_tf([a, b], dim=dim)
        assert dict(zip(vec.indices, vec.values))[slot] == 2.0

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=30), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_indices_bounded_and_deterministic(self, tokens, dim):
        a = textfeat.hashed_tf(tokens, dim)
        b = textfeat.hashed_tf(tokens, dim)
        assert a == b
        assert all(0 <= i < dim for i in a.indices)
        assert sum(a.values) == float(len(tokens))


class TestIdf:
    def test_term_in_every_doc_dropped(self):
        docs = [textfeat.hashed_tf(["common"], dim=50) for _ in range(9)]
        model = textfeat.idf_fit(docs, min_doc_freq=1)
        out = textfeat.idf_transform(model, docs[0])
        assert out.nnz == 0

    def test_rare_term_weight(self):
        # "rare" and "unique" occupy distinct slots at dim 64
        docs = [textfeat.hashed_tf(["rare"], dim=64)]
        docs += [textfeat.hashed_tf(["unique"], dim=64) for _ in range(8)]
        model = textfeat.idf_fit(docs, min_doc_freq=1)
        out = textfeat.idf_transform(model, docs[0])
        assert out.nnz == 1
        assert out.values[0] == pytest.approx(math.log(10 / 2), abs=1e-12)

    def test_min_doc_freq_cutoff_zeroes(self):
        docs = [textfeat.hashed_tf(["fringe"], dim=50) for _ in range(2)]
        docs += [textfeat.hashed_tf(["plenty"], dim=50) for _ in range(7)]
        model = textfeat.idf_fit(docs, min_doc_freq=3)
        slot = fnv1a_64_oracle(b"fringe") % 50
        assert model.doc_freq[slot] == 2
        assert model.idf[slot] == 0.0
        assert textfeat.idf_transform(model, docs[0]).nnz == 0

    def test_dim_mismatch(self):
        model = textfeat.idf_fit([textfeat.hashed_tf(["x"], dim=10)], 1)
        with pytest.raises(DataFormatError):
            textfeat.idf_transform(model, textfeat.hashed_tf(["x"], dim=11))

    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=6), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_transform_never_grows(self, corpus_tokens):
        docs = [textfeat.hashed_tf(toks, dim=16) for toks in corpus_tokens]
        model = textfeat.idf_fit(docs, min_doc_freq=2)
        for doc in docs:
            assert textfeat.idf_transform(model, doc).nnz <= doc.nnz


class TestAssemble:
    def test_numeric_block_placement(self):
        empty = textfeat.SparseVector(5000, (), ())
        out = textfeat.assemble(empty, [("year", 0.5)])
        assert out.dim == 5001
        assert out.indices == (5000,)
        assert out.values == (0.5,)

    def test_order_is_the_contract(self):
        empty = textfeat.SparseVector(10, (), ())
        a = textfeat.assemble(empty, [("year", 0.5), ("votes", 2.0)])
        b = textfeat.assemble(empty, [("votes", 2.0), ("year", 0.5)])
        assert a != b

    def test_nan_rejected(self):
        empty = textfeat.SparseVector(10, (), ())
        with pytest.raises(DataFormatError):
            textfeat.assemble(empty, [("year", float("nan"))])

    @given(
        st.lists(st.sampled_from("abcdef"), max_size=8),
        st.lists(st.floats(-10, 10), max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_dims_add_up(self, tokens, nums):
        text = textfeat.hashed_tf(tokens, dim=32)
        out = textfeat.assemble(text, [(f"n{i}", v) for i, v in enumerate(nums)])
        assert out.dim == 32 + len(nums)


class TestSentiment:
    LEXICON = {"good": "pos", "great": "pos", "bad": "neg", "awful": "neg"}

    def test_no_hits_is_neutral(self):
        assert textfeat.sentiment_tag(["meh", "movie"], self.LEXICON) == "neutral"

    def test_majority_positive(self):
        assert textfeat.sentiment_tag(["good", "good", "bad"], self.LEXICON) == "positive"

    def test_tie_is_neutral(self):
        assert textfeat.sentiment_tag(["good", "bad"], self.LEXICON) == "neutral"

    def test_distribution_partitions(self):
        docs = [["good"], ["bad"], ["meh"], ["good", "bad"], ["awful", "awful"]]
        tags = [textfeat.sentiment_tag(d, self.LEXICON) for d in docs]
        counts = {t: tags.count(t) for t in ("positive", "negative", "neutral")}
        assert sum(counts.values()) == len(docs)


class TestAllText:
    def frame(self, row):
        cols = [(name, "text") for name in textfeat.DEFAULT_ALL_TEXT_COLUMNS]
        return TabularFrame(cols, [row])

    def test_all_missing(self):
        frame = self.frame([None] * 7)
        assert textfeat.all_text_column(frame) == [""]

    def test_two_cells(self):
        frame = TabularFrame([("a", "text"), ("b", "text")], [["A", "B"]])
        assert textfeat.all_text_column(frame, ("a", "b")) == ["A B"]

    def test_default_order(self):
        row = ["Title", "Genre", "Director", "Writer", "Prod", "Actors", "Desc"]
        frame = self.frame(row)
        assert textfeat.all_text_column(frame) == [" ".join(row)]

    def test_unknown_column(self):
        frame = TabularFrame([("a", "text")], [["x"]])
        with pytest.raises(DataFormatError):
            textfeat.all_text_column(frame, ("a", "nope"))

    @given(st.lists(st.tuples(st.one_of(st.none(), st.sampled_from(["", " ", "ab"]), st.text()),
                              st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5]))),
                    max_size=5),
           st.lists(st.sampled_from(["t", "n"]), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_cell_by_cell_oracle(self, rows, columns):
        frame = TabularFrame([("t", "text"), ("n", "number")], [list(row) for row in rows])
        assert textfeat.all_text_column(frame, columns) == all_text_column_oracle(frame, columns)


class TestPipelineFixture:
    def docs(self):
        themes = ["dark epic drama", "light comedy fun", "space opera saga",
                  "quiet family story", "noir crime tale"]
        return [
            f"movie {i}: {themes[i % 5]} with actor {chr(97 + i)} and twist {i % 3}"
            for i in range(20)
        ]

    def test_byte_identical_across_runs(self):
        first, _ = textfeat.vectorize_corpus(self.docs(), {"with", "and"},
                                             dim=256, min_doc_freq=3)
        second, _ = textfeat.vectorize_corpus(self.docs(), {"with", "and"},
                                              dim=256, min_doc_freq=3)
        a = "\n".join(v.to_json() for v in first)
        b = "\n".join(v.to_json() for v in second)
        assert a == b

    def test_serialization_round_trip(self):
        vecs, _ = textfeat.vectorize_corpus(self.docs(), set(), dim=128, min_doc_freq=2)
        for vec in vecs:
            assert sparse_from_json(vec.to_json()) == vec


@st.composite
def corpora(draw):
    """(texts, stoplist, dim, min_doc_freq), dense in collisions and edge cases."""
    texts = draw(st.lists(documents(), max_size=10))
    if texts and draw(st.integers(0, 19)) == 0:  # long tokens cost ms each; keep them rare
        where = draw(st.integers(0, len(texts) - 1))
        texts[where] += " " + draw(st.sampled_from(LONG_WORDS))
    stoplist = draw(st.one_of(st.none(), st.sets(st.sampled_from(STOPWORDS))))
    dim = draw(st.one_of(st.sampled_from([1, 2]), st.integers(-2, 40), st.just(5000)))
    min_doc_freq = draw(st.one_of(st.sampled_from([0, 1, len(texts) + 1]), st.integers(-1, 5)))
    return texts, stoplist, dim, min_doc_freq


def outcome(fn, *args):
    """Every vector's JSON and the model, or the exception type and message."""
    try:
        vectors, model = fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return [v.to_json() for v in vectors], model, repr(model)


class TestVectorizeCorpus:
    @given(corpora())
    @example(([], None, 8, 1))
    @example(([], None, 0, 1))
    @example((["ab cd"], None, -3, 1))
    @example((["", ""], None, 2, 0))
    @example((["the movie", "the film and", ""], {"the", "and"}, 1, 1))
    @example((list(LONG_WORDS) + [" ".join(LONG_WORDS)], None, 2, 5))
    @example((["señor 日本語", "жизнь señor"], set(), 0, 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_document_oracle(self, case):
        assert outcome(textfeat.vectorize_corpus, *case) == outcome(vectorize_corpus_oracle, *case)

    def test_tokenizes_each_document_once(self, monkeypatch):
        calls = []
        original = textfeat.tokenize

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(textfeat, "tokenize", counting)
        texts = ["one two", "", "two three three"]
        textfeat.vectorize_corpus(texts, {"one"}, 16, 1)
        assert calls == texts

    def test_vectors_share_slot_and_weight_objects(self):
        # dim 5000 puts slots above CPython's cached small ints
        texts = [f"storm love city {'night ' * (i % 3)}movie {i % 7}" for i in range(40)]
        vectors, _ = textfeat.vectorize_corpus(texts, None, 5000, 1)
        assert vectors == vectorize_corpus_oracle(texts, None, 5000, 1)[0]
        values = [v for vec in vectors for v in vec.values]
        indices = [i for vec in vectors for i in vec.indices]
        assert {type(v) for v in values} == {float} and {type(i) for i in indices} == {int}
        assert len({id(v) for v in values}) == len(set(values)) < len(values)
        assert len({id(i) for i in indices}) == len(set(indices)) < len(indices)
        assert max(indices) > 256

    @pytest.mark.parametrize("vec", [
        textfeat.SparseVector(4, (), ()),
        textfeat.SparseVector(1, (0,), (2.5,)),
        textfeat.SparseVector(3, (0, 2), (5e-324, 1.0)),
        textfeat.SparseVector(5, (0, 4), (-1.5, -5e-324)),
        textfeat.SparseVector(6, (1, 3, 5), (3, -7, 2**53 + 1)),
        textfeat.SparseVector(7, (2, 6), (1, 0.1)),
    ], ids=["empty", "dim-1", "subnormal", "negative", "ints", "mixed"])
    def test_to_dense_matches_oracle(self, vec):
        got, want = vec.to_dense(), sparse_to_dense_oracle(vec)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def feature_cases(draw):
    """(frame, text_columns, numeric_columns, stoplist, dim, min_doc_freq) with
    missing, zero and non-finite numeric cells."""
    n = draw(st.integers(0, 6))
    text = st.one_of(st.none(), documents())
    number = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, 1e300]),
                       st.floats(allow_nan=False, allow_infinity=False))
    cells = [[draw(text), draw(text), draw(number), draw(number)] for _ in range(n)]
    if cells and draw(st.integers(0, 4)) == 0:
        cells[draw(st.integers(0, n - 1))][draw(st.sampled_from([2, 3]))] = float("inf")
    frame = TabularFrame([("t1", "text"), ("t2", "text"), ("n1", "number"), ("n2", "number")],
                         cells)
    text_columns = draw(st.sampled_from([("t1",), ("t2", "t1"), ("t1", "t2")]))
    numeric_columns = draw(st.sampled_from([(), ("n1",), ("n2", "n1"), ("n1", "n1")]))
    stoplist = draw(st.one_of(st.none(), st.sets(st.sampled_from(STOPWORDS[:4]))))
    return (frame, text_columns, numeric_columns, stoplist,
            draw(st.sampled_from([1, 2, 16])), draw(st.integers(0, 3)))


def matrix_outcome(fn, *args):
    """The matrix bytes and shape and the model, or the exception type and message."""
    try:
        features, model = fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return features.tobytes(), features.shape, model


class TestFeatureMatrix:
    @given(feature_cases())
    @example((TabularFrame([("t1", "text"), ("n1", "number")], []), ("t1",), ("n1",), None, 2, 1))
    @example((TabularFrame([("t1", "text"), ("n1", "number")],
                           [["the movie", None], ["film", 0.0], ["", float("inf")]]),
              ("t1",), ("n1",), {"the"}, 1, 1))
    @example((TabularFrame([("t1", "text"), ("n1", "number"), ("n2", "number")],
                           [["film", -0.0, float("inf")], ["", float("nan"), None]]),
              ("t1",), ("n1", "n2"), None, 2, 0))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_oracle(self, case):
        assert matrix_outcome(textfeat.feature_matrix, *case) == \
            matrix_outcome(feature_matrix_oracle, *case)

    def test_builds_no_sparse_vectors(self, monkeypatch):
        built = []
        check = textfeat.SparseVector.__post_init__
        monkeypatch.setattr(textfeat.SparseVector, "__post_init__",
                            lambda vec: built.append(check(vec)))
        frame = TabularFrame([("t", "text"), ("n", "number")],
                             [["good movie", 1.0], ["bad film", None], ["", 2.0]])
        textfeat.feature_matrix(frame, ("t",), ("n",), None, 16, 1)
        assert built == []
        textfeat.vectorize_corpus(["good movie"], None, 16, 1)  # the counter counts
        assert built == [None]

    def test_text_block_then_numeric_columns(self):
        frame = TabularFrame([("t", "text"), ("year", "number"), ("gross", "number")],
                             [["movie film", 0.5, None], ["movie", None, 2.0]])
        features, model = textfeat.feature_matrix(frame, ("t",), ("gross", "year"), None, 4, 1)
        assert features.shape == (2, 6)
        assert features[:, 4:].tolist() == [[0.0, 0.5], [2.0, 0.0]]
        assert model.num_docs == 2
