"""Vocabulary construction and corpus encoding."""

import io

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
    read_vocabulary,
    write_vocabulary,
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


class TestVocabularyIO:
    def test_round_trip(self):
        v = build_vocabulary(TOY_LINES)
        buf = io.StringIO()
        write_vocabulary(v, buf)
        buf.seek(0)
        v2 = read_vocabulary(buf)
        assert v2.id_to_word == v.id_to_word
        assert v2.word_to_id == v.word_to_id

    def test_rejects_foreign_file(self):
        with pytest.raises(CorpusError):
            read_vocabulary(io.StringIO("something else\n"))

    def test_rejects_wrong_version(self):
        v = build_vocabulary(TOY_LINES)
        buf = io.StringIO()
        write_vocabulary(v, buf)
        text = buf.getvalue().replace("v1", "v9")
        with pytest.raises(CorpusError):
            read_vocabulary(io.StringIO(text))

    @pytest.mark.parametrize("header", [
        "mixlm-vocab",
        "mixlm-vocab v1 size=5 eos=0 unk=1 bos=5 stray",
        "mixlm-vocab v1 eos=0 unk=1 bos=5",
        "mixlm-vocab v1 size=five eos=0 unk=1 bos=5",
    ], ids=["magic-only", "field-without-equals", "missing-size", "size-not-int"])
    def test_rejects_malformed_header(self, header):
        with pytest.raises(CorpusError):
            read_vocabulary(io.StringIO(header + "\n</s>\n<unk>\na\nb\nc\n"))

    @pytest.mark.parametrize("words, message", [
        (["a", "</s>", "<unk>"], "starts with"),
        (["</s>", "<unk>", "a", "a"], "duplicate or empty"),
        (["</s>", "<unk>", "", "a"], "duplicate or empty"),
    ], ids=["reserved-not-first", "duplicate-word", "empty-word"])
    def test_rejects_bad_word_list(self, words, message):
        text = f"mixlm-vocab v1 size={len(words)} eos=0 unk=1 bos={len(words)}\n"
        with pytest.raises(CorpusError, match=message):
            read_vocabulary(io.StringIO(text + "".join(w + "\n" for w in words)))

    def test_rejects_lines_after_last_word(self):
        buf = io.StringIO()
        write_vocabulary(build_vocabulary(TOY_LINES), buf)
        with pytest.raises(CorpusError, match="after the last word"):
            read_vocabulary(io.StringIO(buf.getvalue() + "d\n"))

    def test_constructor_builds_word_map_and_rejects_duplicates(self):
        assert Vocabulary([EOS, UNK, "a"]).word_to_id == {EOS: 0, UNK: 1, "a": 2}
        with pytest.raises(CorpusError, match="duplicate"):
            Vocabulary([EOS, UNK, "a", "a"])

    def test_rejects_truncated_file(self):
        v = build_vocabulary(TOY_LINES)
        buf = io.StringIO()
        write_vocabulary(v, buf)
        lines = buf.getvalue().splitlines()[:-2]
        with pytest.raises(CorpusError):
            read_vocabulary(io.StringIO("\n".join(lines) + "\n"))
