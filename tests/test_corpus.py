"""Vocabulary construction and corpus encoding."""

import numpy as np
import pytest

from mixlm.corpus import (
    BOS,
    EOS,
    UNK,
    CorpusError,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
)

from helpers import TOY_LINES


class TestVocabulary:
    def test_toy_layout(self):
        """End/unknown markers get ids 0 and 1, then words by frequency."""
        v = build_vocabulary(TOY_LINES)
        assert v.id_to_word == [EOS, UNK, "a", "b", "c"]
        assert v.size == 5
        assert (v.eos_id, v.unk_id, v.bos_id) == (0, 1, 5)

    def test_frequency_then_first_occurrence(self):
        v = build_vocabulary(["b c c", "a a a b"])
        # a:3, b:2, c:2; b seen before c
        assert v.id_to_word[2:] == ["a", "b", "c"]

    def test_max_size_truncates_ranked_words(self):
        v = build_vocabulary(["a a b c"], max_size=1)
        assert v.id_to_word == [EOS, UNK, "a"]
        assert v.id_of("b") == v.unk_id

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            build_vocabulary(TOY_LINES, max_size=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocabulary(["", "   "])

    def test_reserved_forms_not_counted_as_words(self):
        v = build_vocabulary(["a <unk> </s> <s> a b"])
        assert v.id_to_word == [EOS, UNK, "a", "b"]
        assert v.id_of(UNK) == v.unk_id
        assert v.id_of(BOS) == v.unk_id

    def test_reserved_forms_alone_give_the_two_markers(self):
        v = build_vocabulary(["<unk> </s> <s>"])
        assert v.id_to_word == [EOS, UNK]

    def test_ties_break_by_first_occurrence_across_reserved_forms(self):
        # b, a and c occur twice each, in that order of first occurrence
        lines = ["b <unk> a", "</s> c <s> a", "<s> b c <unk>"]
        assert build_vocabulary(lines).id_to_word[2:] == ["b", "a", "c"]
        assert build_vocabulary(lines, max_size=2).id_to_word[2:] == ["b", "a"]

    def test_max_size_above_the_distinct_words_keeps_them_all(self):
        v = build_vocabulary(["c b a b"], max_size=10)
        assert v.id_to_word == [EOS, UNK, "b", "c", "a"]

    def test_one_shot_generator_equals_list(self):
        lines = ["b c c", "", "a <s> a a b", "\t<unk>  c"]
        for max_size in (None, 2):
            assert (build_vocabulary((line for line in lines), max_size)
                    == build_vocabulary(lines, max_size))

    def test_unknown_word_maps_to_unk(self):
        v = build_vocabulary(TOY_LINES)
        assert v.id_of("zzz") == v.unk_id

    def test_encode_appends_eos(self):
        v = build_vocabulary(TOY_LINES)
        ids = v.encode(["a", "b", "a"])
        np.testing.assert_array_equal(ids, [2, 3, 2, 0])

    def test_decode_round_trip(self):
        v = build_vocabulary(TOY_LINES)
        assert [v.id_to_word[i] for i in v.encode(["a", "c"])] == ["a", "c", EOS]
        assert v.bos_id == v.size and v.id_of(BOS) == v.unk_id

    def test_constructor_builds_word_map_and_rejects_duplicates(self):
        assert Vocabulary([EOS, UNK, "a"]).word_to_id == {EOS: 0, UNK: 1, "a": 2}
        with pytest.raises(CorpusError, match="duplicate"):
            Vocabulary([EOS, UNK, "a", "a"])

    @pytest.mark.parametrize("words, message", [
        (["a", "</s>", "<unk>"], "starts with"),
        (["</s>", "<unk>", "a", "a"], "duplicate"),
        (["</s>", "<unk>", "", "a"], "'' is not one whitespace-free token"),
        (["<unk>", "</s>", "a"], "starts with"),
        (["</s>", "a"], "starts with"),
        (["</s>", "<unk>", "a", "</s>"], "duplicate"),
        (["</s>", "<unk>", "a\nb"], r"'a\\nb' is not one whitespace-free token"),
        (["</s>", "<unk>", "a", " b"], "' b' is not one whitespace-free token"),
    ], ids=["reserved-not-first", "duplicate-word", "empty-word", "reserved-swapped",
            "unk-missing", "reserved-repeated", "newline-in-word", "space-in-word"])
    def test_rejects_bad_word_list(self, words, message):
        with pytest.raises(CorpusError, match=message):
            Vocabulary(words)

    def test_word_lists_that_join_alike_do_not_both_build(self):
        """Newline-joined, ["a\\nb"] and ["a", "b"] would share a fingerprint
        although their sizes differ, so a count table would take text encoded
        with the other list; the list whose word holds the newline is refused."""
        assert Vocabulary([EOS, UNK, "a", "b"]).size == 4
        with pytest.raises(CorpusError, match="whitespace-free"):
            Vocabulary([EOS, UNK, "a\nb"])


class TestEncodedCorpus:
    def test_token_count_includes_eos(self):
        v = build_vocabulary(TOY_LINES)
        corpus = encode_corpus(TOY_LINES, v)
        assert corpus.token_count == 7  # 5 words + 2 sentence ends
        assert len(corpus.sentences) == 2

    def test_blank_lines_dropped(self):
        v = build_vocabulary(TOY_LINES)
        corpus = encode_corpus(["a b a", "", "a c", "  "], v)
        assert len(corpus.sentences) == 2

    def test_all_blank_is_empty(self):
        v = build_vocabulary(TOY_LINES)
        with pytest.raises(CorpusError):
            encode_corpus(["", " "], v)


class TestEncodeAgainstReference:
    """``encode_corpus`` against a per-token encoding of each line."""

    LINES = ["a <s> b", "b </s> a", "<unk> zzz a", "a\tb  \t c", "", "  \t ",
             "\t<s>\t</s>\t", "c"]
    IDS = [[2, 1, 3, 0], [3, 0, 2, 0], [1, 1, 2, 0], [2, 3, 4, 0], [1, 0, 0], [4, 0]]

    @staticmethod
    def reference(v, line):
        return np.array([v.id_of(t) for t in line.split()] + [v.eos_id], dtype=np.int32)

    def check(self, corpus, v):
        want = [self.reference(v, line) for line in self.LINES if line.split()]
        assert [s.tolist() for s in want] == self.IDS
        assert len(corpus.sentences) == len(want)
        for got, ref in zip(corpus.sentences, want):
            assert got.dtype == np.int32 and got.flags.owndata
            np.testing.assert_array_equal(got, ref)

    def test_sentences_match_per_token_ids(self):
        v = build_vocabulary(TOY_LINES)
        self.check(encode_corpus(self.LINES, v), v)

    def test_one_shot_generator_equals_list(self):
        v = build_vocabulary(TOY_LINES)
        self.check(encode_corpus((line for line in self.LINES), v), v)

    def test_literal_begin_marker_is_unknown_even_as_a_listed_word(self):
        v = Vocabulary([EOS, UNK, BOS, "a"])
        assert v.id_of(BOS) == v.unk_id
        np.testing.assert_array_equal(encode_corpus(["a <s> a"], v).sentences[0], [3, 1, 3, 0])
