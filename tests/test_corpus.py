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
        (["</s>", "<unk>", "a", "a"], "duplicate or empty"),
        (["</s>", "<unk>", "", "a"], "duplicate or empty"),
        (["<unk>", "</s>", "a"], "starts with"),
        (["</s>", "a"], "starts with"),
        (["</s>", "<unk>", "a", "</s>"], "duplicate or empty"),
    ], ids=["reserved-not-first", "duplicate-word", "empty-word", "reserved-swapped",
            "unk-missing", "reserved-repeated"])
    def test_rejects_bad_word_list(self, words, message):
        with pytest.raises(CorpusError, match=message):
            Vocabulary(words)


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

