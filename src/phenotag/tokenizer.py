"""Vocabulary handling and two-stage subword tokenization with offset tracking.

Tokenization runs in two stages: a basic word-level split (lowercasing,
punctuation isolation) followed by greedy longest-match-first subword
segmentation against a fixed vocabulary. Character offsets into the original
text are tracked through both stages so entity annotations can be aligned to
subword positions and back.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import atomic_write, read_lines
from .errors import ParseError, ValidationError

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

CONTINUATION_MARKER = "##"

# Replaceable slot tokens, e.g. "[unused42]".
PLACEHOLDER_PATTERN = re.compile(r"\[unused(\d+)\]\Z")

# Hard cap on replaceable slots a vocabulary may carry.
MAX_PLACEHOLDER_SLOTS = 997

# Words longer than this map to [UNK] without a lookup.
MAX_WORD_CHARS = 200


@dataclass(frozen=True)
class Vocabulary:
    """An ordered token list with id assignment by position.

    Attributes:
        tokens: token strings; the id of a token is its index.
        rewritten_ids: ids whose placeholder surface was overwritten by the
            most recent expansion (empty for a freshly loaded vocabulary).

    ``tokenize`` keeps each word's ``wordpiece`` segmentation in a private
    memo on the vocabulary, so each distinct word is segmented once. The memo
    lives as long as the vocabulary and holds one entry per distinct word it
    has segmented; a new vocabulary, such as an expansion's, starts empty.
    """

    tokens: tuple[str, ...]
    rewritten_ids: tuple[int, ...] = ()
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _pieces: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _placeholder_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise ValidationError(
                    f"duplicate token {tok!r} at ids {index[tok]} and {i}"
                )
            index[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in index:
                raise ValidationError(f"missing special token {special}")
        placeholders = tuple(
            i for i, tok in enumerate(self.tokens) if PLACEHOLDER_PATTERN.match(tok)
        )
        if len(placeholders) > MAX_PLACEHOLDER_SLOTS:
            raise ValidationError(
                f"{len(placeholders)} placeholder slots exceed the cap of "
                f"{MAX_PLACEHOLDER_SLOTS}"
            )
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_pieces", {})
        object.__setattr__(self, "_placeholder_ids", placeholders)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index[token]

    @property
    def pad_id(self) -> int:
        return self._index[PAD]

    @property
    def cls_id(self) -> int:
        return self._index[CLS]

    @property
    def sep_id(self) -> int:
        return self._index[SEP]

    @property
    def mask_id(self) -> int:
        return self._index[MASK]

    @property
    def special_ids(self) -> tuple[int, ...]:
        return tuple(self._index[t] for t in SPECIAL_TOKENS)

    @property
    def placeholder_ids(self) -> tuple[int, ...]:
        """Ids whose surface is still a replaceable "[unusedN]" slot."""
        return self._placeholder_ids

    def digest(self) -> str:
        """Stable fingerprint of the token list, for checkpoint compatibility."""
        h = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return h.hexdigest()


def load_vocab(path: str | Path) -> Vocabulary:
    """Read a vocabulary file: UTF-8, one token per line, id = line order.

    Raises:
        ParseError: on a byte that is not UTF-8, an empty line or a duplicate
            token, naming line numbers.
        ValidationError: if a special token is missing.
    """
    tokens: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in read_lines(path):
        token = raw.rstrip("\n")
        if not token:
            raise ParseError(f"{path}: line {lineno}: empty token")
        if token in seen:
            raise ParseError(
                f"{path}: duplicate token {token!r} on lines "
                f"{seen[token]} and {lineno}"
            )
        seen[token] = lineno
        tokens.append(token)
    return Vocabulary(tuple(tokens))


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    with atomic_write(path) as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")


def basic_tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split text into lowercased words with offsets into the original text.

    Rules: whitespace separates; every other non-alphanumeric character is
    its own single-character token, except a hyphen between two alphanumeric
    characters and a period between two digits, which stay inside the word
    (so "er-positive" and "1.0" survive as single words).

    Returns:
        List of (word, start_char, end_char) with end exclusive; offsets
        count Unicode scalar values of the original text.
    """
    out: list[tuple[str, int, int]] = []
    i, n = 0, len(text)
    word_start = -1
    while i < n:
        ch = text[i]
        if ch.isalnum():
            if word_start < 0:
                word_start = i
            i += 1
            continue
        joins = False
        if word_start >= 0 and i + 1 < n:
            prev, nxt = text[i - 1], text[i + 1]
            if ch == "-" and prev.isalnum() and nxt.isalnum():
                joins = True
            elif ch == "." and prev.isdigit() and nxt.isdigit():
                joins = True
        if joins:
            i += 1
            continue
        if word_start >= 0:
            out.append((text[word_start:i].lower(), word_start, i))
            word_start = -1
        if not ch.isspace():
            out.append((ch.lower(), i, i + 1))
        i += 1
    if word_start >= 0:
        out.append((text[word_start:n].lower(), word_start, n))
    return out


def wordpiece(word: str, vocab: Vocabulary) -> list[str]:
    """Segment one lowercased word by greedy longest-match-first lookup.

    At each position the longest prefix of the remaining suffix that is in
    the vocabulary is taken; non-initial pieces carry the "##" marker. If a
    position has no match, or the word exceeds ``MAX_WORD_CHARS``, the whole
    word maps to [UNK].
    """
    if not word:
        raise ValidationError("cannot tokenize an empty word")
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    pieces: list[str] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = CONTINUATION_MARKER + sub
            if sub in vocab:
                found = sub
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


@dataclass(frozen=True)
class TokenizedText:
    """Subword pieces with offsets and word bookkeeping.

    ``word_index`` maps each piece to the ordinal of its source word.
    Continuation pieces share their word's offsets restricted to their own
    characters; [UNK] pieces span their whole word.
    """

    pieces: tuple[str, ...]
    offsets: tuple[tuple[int, int], ...]
    word_index: tuple[int, ...]
    is_continuation: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.pieces)
            == len(self.offsets)
            == len(self.word_index)
            == len(self.is_continuation)
        ):
            raise ValidationError("tokenization fields have mismatched lengths")

    def __len__(self) -> int:
        return len(self.pieces)

    def word_ranges(self) -> dict[int, tuple[int, int]]:
        """Character range covered by each word ordinal."""
        ranges: dict[int, tuple[int, int]] = {}
        for (s, e), w in zip(self.offsets, self.word_index):
            if w in ranges:
                ranges[w] = (min(ranges[w][0], s), max(ranges[w][1], e))
            else:
                ranges[w] = (s, e)
        return ranges


def tokenize(text: str, vocab: Vocabulary) -> TokenizedText:
    """Compose basic tokenization and wordpiece, tracking offsets throughout.

    A word's pieces come from the vocabulary's memo, filled by ``wordpiece``
    the first time the vocabulary meets the word (see ``Vocabulary``).
    """
    memo = vocab._pieces
    pieces: list[str] = []
    offsets: list[tuple[int, int]] = []
    word_index: list[int] = []
    is_continuation: list[bool] = []
    for w, (word, s, e) in enumerate(basic_tokenize(text)):
        subs = memo.get(word)
        if subs is None:
            subs = memo[word] = tuple(wordpiece(word, vocab))
        if subs == (UNK,) or len(word) != e - s:
            # [UNK] (or a rare lowercasing length change) spans the whole word.
            for j, piece in enumerate(subs):
                pieces.append(piece)
                offsets.append((s, e))
                word_index.append(w)
                is_continuation.append(j > 0)
            continue
        pos = s
        for j, piece in enumerate(subs):
            span = len(piece) - len(CONTINUATION_MARKER) if j > 0 else len(piece)
            pieces.append(piece)
            offsets.append((pos, pos + span))
            word_index.append(w)
            is_continuation.append(j > 0)
            pos += span
    return TokenizedText(
        tuple(pieces), tuple(offsets), tuple(word_index), tuple(is_continuation)
    )
