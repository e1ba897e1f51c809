import string

import numpy as np
import pytest

from conftest import make_vocab
from phenotag.errors import ParseError, ValidationError
from phenotag.tokenizer import (
    CLS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    TokenizedText,
    Vocabulary,
    basic_tokenize,
    load_vocab,
    save_vocab,
    tokenize,
    wordpiece,
)


class TestVocabulary:
    def test_minimal_vocab(self):
        v = make_vocab()
        assert len(v) == 5
        assert v.pad_id == 0 and v.mask_id == 4

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Vocabulary(SPECIAL_TOKENS + ("her", "her"))

    def test_missing_special_rejected(self):
        with pytest.raises(ValidationError, match=r"\[MASK\]"):
            Vocabulary((PAD, UNK, CLS, SEP, "word"))

    def test_placeholder_cap(self):
        too_many = tuple(f"[unused{i}]" for i in range(998))
        with pytest.raises(ValidationError, match="998"):
            Vocabulary(SPECIAL_TOKENS + too_many)

    def test_placeholder_ids(self):
        v = make_vocab("her", placeholders=3)
        assert v.placeholder_ids == (5, 6, 7)

    def test_digest_changes_with_content(self):
        a = make_vocab("her")
        b = make_vocab("him")
        assert a.digest() != b.digest()
        assert a.digest() == make_vocab("her").digest()


class TestVocabIO:
    def test_round_trip(self, tmp_path):
        v = make_vocab("her", "##2", placeholders=2)
        path = tmp_path / "vocab.txt"
        save_vocab(v, path)
        assert load_vocab(path).tokens == v.tokens

    def test_five_line_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS) + "\n")
        assert len(load_vocab(path)) == 5

    def test_duplicate_names_both_lines(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS + ("her", "x", "her")) + "\n")
        with pytest.raises(ParseError, match="lines 6 and 8"):
            load_vocab(path)

    def test_empty_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIAL_TOKENS) + "\n\nword\n")
        with pytest.raises(ParseError, match="line 6"):
            load_vocab(path)


class TestBasicTokenize:
    def test_report_line(self):
        assert basic_tokenize("Tumor size: 1.0 cm") == [
            ("tumor", 0, 5),
            ("size", 6, 10),
            (":", 10, 11),
            ("1.0", 12, 15),
            ("cm", 16, 18),
        ]

    def test_empty(self):
        assert basic_tokenize("") == []

    def test_intra_word_hyphen_kept(self):
        assert basic_tokenize("er-positive") == [("er-positive", 0, 11)]

    def test_hyphen_at_edge_splits(self):
        assert [w for w, _, _ in basic_tokenize("pre- op")] == ["pre", "-", "op"]

    def test_decimal_point_kept_between_digits_only(self):
        assert [w for w, _, _ in basic_tokenize("end. Next")] == ["end", ".", "next"]
        assert [w for w, _, _ in basic_tokenize("a.b 1.2")] == ["a", ".", "b", "1.2"]

    def test_apostrophe_splits(self):
        assert [w for w, _, _ in basic_tokenize("12 o'clock")] == ["12", "o", "'", "clock"]

    def test_offsets_index_original_text(self):
        text = "  HER2  Amplified "
        for word, s, e in basic_tokenize(text):
            assert text[s:e].lower() == word


class TestWordpiece:
    def test_her2_splits_into_her_and_2(self):
        v = make_vocab("her", "##2")
        assert wordpiece("her2", v) == ["her", "##2"]

    def test_whole_word_hit(self):
        v = make_vocab("positive")
        assert wordpiece("positive", v) == ["positive"]

    def test_no_match_gives_unk(self):
        v = make_vocab("her", "##2")
        assert wordpiece("qzx", v) == [UNK]

    def test_overlong_word_gives_unk(self):
        v = make_vocab(*string.ascii_lowercase, *("##" + c for c in string.ascii_lowercase))
        assert wordpiece("a" * 201, v) == [UNK]
        assert wordpiece("a" * 200, v) != [UNK]

    def test_empty_word_rejected(self):
        with pytest.raises(ValidationError):
            wordpiece("", make_vocab())

    def test_greedy_dead_end_is_unk_not_backtracked(self):
        # "ab" wins over "a", leaving "c" unreachable without "##c"
        v = make_vocab("a", "ab", "##bc")
        assert wordpiece("abc", v) == [UNK]


def random_vocab_and_word(rng: np.random.Generator):
    alphabet = "abcd"
    n_pieces = int(rng.integers(3, 12))
    pieces = set()
    for _ in range(n_pieces):
        length = int(rng.integers(1, 4))
        body = "".join(rng.choice(list(alphabet), size=length))
        pieces.add(body if rng.random() < 0.5 else "##" + body)
    vocab = make_vocab(*sorted(pieces))
    word = "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 13))))
    return vocab, word


def assert_greedy(word: str, vocab: Vocabulary, pieces: list[str]):
    """Oracle: re-scan all prefixes to confirm each piece is the longest match."""
    if pieces == [UNK]:
        # verify a dead end actually exists along the greedy path
        pos = 0
        while pos < len(word):
            best = None
            for end in range(len(word), pos, -1):
                cand = word[pos:end] if pos == 0 else "##" + word[pos:end]
                if cand in vocab:
                    best = cand
                    break
            if best is None:
                return
            pos += len(best) - (2 if pos > 0 else 0)
        pytest.fail(f"{word!r} decomposes fully but wordpiece returned [UNK]")
    pos = 0
    for piece in pieces:
        body = piece[2:] if piece.startswith("##") and pos > 0 else piece
        assert word[pos : pos + len(body)] == body
        # no longer prefix at this position is in the vocabulary
        for end in range(len(word), pos + len(body), -1):
            longer = word[pos:end] if pos == 0 else "##" + word[pos:end]
            assert longer not in vocab
        assert piece in vocab
        pos += len(body)
    assert pos == len(word)
    assert "".join(p[2:] if p.startswith("##") else p for p in pieces) == word


class TestWordpieceProperty:
    def test_greedy_longest_match_randomized(self):
        rng = np.random.default_rng(20240901)
        for _ in range(2000):
            vocab, word = random_vocab_and_word(rng)
            assert_greedy(word, vocab, wordpiece(word, vocab))


class TestTokenize:
    def test_composition(self):
        v = make_vocab("her", "##2", "amplified")
        tk = tokenize("HER2 amplified", v)
        assert list(tk.pieces) == ["her", "##2", "amplified"]
        assert list(tk.word_index) == [0, 0, 1]
        assert list(tk.is_continuation) == [False, True, False]
        assert list(tk.offsets) == [(0, 3), (3, 4), (5, 14)]

    def test_empty_text(self):
        tk = tokenize("", make_vocab())
        assert len(tk) == 0

    def test_unk_spans_whole_word(self):
        v = make_vocab("her")
        tk = tokenize("qzx her", v)
        assert tk.pieces[0] == UNK
        assert tk.offsets[0] == (0, 3)

    def test_offset_consistency(self, base_vocab):
        text = "Tumor is PR negative (0% staining), pathologic stage pT4 NX MX."
        tk = tokenize(text, base_vocab)
        for piece, (s, e) in zip(tk.pieces, tk.offsets):
            if piece == UNK:
                continue
            assert text[s:e].lower() == (piece[2:] if piece.startswith("##") else piece)

    def test_offsets_monotone_non_overlapping(self, base_vocab, corpus200):
        for doc in corpus200[:30]:
            tk = tokenize(doc.text, base_vocab)
            prev_end = 0
            for s, e in tk.offsets:
                assert s >= prev_end
                assert s < e
                prev_end = e

    def test_deterministic(self, base_vocab):
        text = "Histologic grade: 1 of 3. HER2 amplified."
        a = tokenize(text, base_vocab)
        b = tokenize(text, base_vocab)
        assert a == b

    def test_word_ranges(self):
        v = make_vocab("her", "##2")
        tk = tokenize("her2 her", v)
        assert tk.word_ranges() == {0: (0, 4), 1: (5, 8)}


class TestVocabGrowthMonotonicity:
    def test_piece_count_never_grows_on_real_expansion_path(self, base_vocab, corpus200):
        # quantified over the artifact's actual growth route: frequency and
        # curated expansions of the shipped base vocabulary
        from phenotag.vocab_expand import (
            default_curated_words,
            expand_curated,
            expand_frequency,
            extract_candidates,
        )

        words = set()
        for doc in corpus200[:80]:
            words.update(w for w, _, _ in basic_tokenize(doc.text))
        candidates = extract_candidates(corpus200, base_vocab, min_count=2)
        grown = [
            expand_frequency(base_vocab, candidates, k=min(200, len(candidates))),
            expand_curated(base_vocab, default_curated_words()),
        ]
        for word in sorted(words):
            before = len(wordpiece(word, base_vocab))
            for vocab in grown:
                assert len(wordpiece(word, vocab)) <= before, word
