"""Annotated-document data model, BIO codec, corpus statistics, and agreement.

Documents carry character-offset standoff annotations over eight phenotype
labels. The BIO codec speaks tag ids, the indices of ``TAGS``, whose layout
no other module knows: ``encode_bio`` gives one id per subword piece (the
label lives on a word's first piece; continuations get ``IGNORE_ID``) and
``decode_bio`` turns ids back into character spans. One word alignment,
``_align``, serves both the codec and the word-level labels that ``kappa``
compares, with the same repairs and warnings. ``encode_corpus`` is the one
place where text becomes model ids, ``pair_documents`` the one that pairs two
annotations of a corpus.
"""

from __future__ import annotations

import json
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .atomic import atomic_write, read_lines
from .errors import ConfigurationError, ParseError, ValidationError
from .tokenizer import TokenizedText, Vocabulary, basic_tokenize, tokenize

logger = logging.getLogger(__name__)


class EntityLabel(str, Enum):
    """The eight phenotype categories annotated in this corpus."""

    HORMONE_RECEPTOR_TYPE = "HormoneReceptorType"
    HORMONE_RECEPTOR_STATUS = "HormoneReceptorStatus"
    TUMOR_SIZE = "TumorSize"
    TUMOR_SITE = "TumorSite"
    CANCER_GRADE = "CancerGrade"
    HISTOLOGICAL_TYPE = "HistologicalType"
    CANCER_LATERALITY = "CancerLaterality"
    CANCER_STAGE = "CancerStage"

    def __str__(self) -> str:  # serialized name is the stable string
        return self.value


LABELS: tuple[EntityLabel, ...] = tuple(EntityLabel)

OUTSIDE_TAG = "O"
#: Tag id of a piece excluded from the loss: a word's continuation subwords.
IGNORE_ID = -1

#: The 17 trainable tags: O (id 0), then B- and I- per label in declaration
#: order, so label k's B- tag is id 2k + 1 and its I- tag id 2k + 2.
TAGS: tuple[str, ...] = (OUTSIDE_TAG,) + tuple(
    f"{prefix}-{label.value}" for label in LABELS for prefix in ("B", "I")
)
TAG_TO_ID: dict[str, int] = {t: i for i, t in enumerate(TAGS)}
N_TAGS = len(TAGS)


@dataclass(frozen=True, order=True)
class EntitySpan:
    """A character-offset annotation: [start_char, end_char) with a label.
    Spans order by (start_char, end_char, label), a label by its value."""

    start_char: int
    end_char: int
    label: EntityLabel

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start_char < other.end_char and other.start_char < self.end_char


@dataclass
class Document:
    """Raw text plus its entity annotations, in span order."""

    doc_id: str
    text: str
    entities: list[EntitySpan] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int, EntityLabel]] = set()
        for span in self.entities:
            if not (0 <= span.start_char < span.end_char <= len(self.text)):
                raise ValidationError(
                    f"doc {self.doc_id!r}: span ({span.start_char}, "
                    f"{span.end_char}) out of bounds for text of length "
                    f"{len(self.text)}"
                )
            key = (span.start_char, span.end_char, span.label)
            if key in seen:
                raise ValidationError(
                    f"doc {self.doc_id!r}: duplicate span {key}"
                )
            seen.add(key)
        self.entities.sort()

    def span_text(self, span: EntitySpan) -> str:
        return self.text[span.start_char : span.end_char]


def pair_documents(
    a: Sequence[Document], b: Sequence[Document]
) -> list[tuple[Document, Document]]:
    """Two annotations of one corpus, their documents paired in doc_id order.

    Raises:
        ValidationError: a doc_id repeated within either list, doc_id sets
            that differ, or a pair whose texts differ.
    """
    by_id: list[dict[str, Document]] = [{}, {}]
    for docs, ids in zip((a, b), by_id):
        for doc in docs:
            if doc.doc_id in ids:
                raise ValidationError(f"doc_id {doc.doc_id!r} occurs more than once")
            ids[doc.doc_id] = doc
    ids_a, ids_b = by_id
    if ids_a.keys() != ids_b.keys():
        raise ValidationError(f"doc_id mismatch: {sorted(ids_a.keys() ^ ids_b.keys())}")
    pairs = [(ids_a[i], ids_b[i]) for i in sorted(ids_a)]
    for doc_a, doc_b in pairs:
        if doc_a.text != doc_b.text:
            raise ValidationError(f"doc {doc_a.doc_id!r}: the two texts differ")
    return pairs


def _offset(value: object) -> int:
    if type(value) is not int:  # a bool is an int too, a float or string is not
        raise TypeError(f"span offset must be an integer, not {value!r}")
    return value


def load_corpus(path: str | Path) -> list[Document]:
    """Read a line-delimited corpus file: one JSON document record per line.

    Raises:
        ParseError: bytes that are not UTF-8, malformed JSON, missing fields
            or a span offset that is not an integer, naming the line number.
        ValidationError: a span that does not fit its text, naming the doc_id.
    """
    docs: list[Document] = []
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            doc_id = rec["doc_id"]
            text = rec["text"]
            if not (isinstance(doc_id, str) and isinstance(text, str)):
                raise TypeError("doc_id and text must be strings")
            spans = [
                EntitySpan(_offset(e["start"]), _offset(e["end"]), EntityLabel(e["label"]))
                for e in rec.get("entities", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        docs.append(Document(doc_id, text, spans))
    return docs


def save_corpus(corpus: Iterable[Document], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for doc in corpus:
            rec = {
                "doc_id": doc.doc_id,
                "text": doc.text,
                "entities": [
                    {"start": s.start_char, "end": s.end_char, "label": s.label.value}
                    for s in doc.entities
                ],
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_sentences(text: str) -> list[tuple[str, int]]:
    """Split on newlines and on periods followed by whitespace.

    Returns (sentence, start_offset) pairs; sentences are stripped but
    offsets point at the first retained character in the original text.
    """
    sentences: list[tuple[str, int]] = []

    def emit(segment: str, seg_start: int) -> None:
        stripped = segment.strip()
        if stripped:
            lead = len(segment) - len(segment.lstrip())
            sentences.append((stripped, seg_start + lead))

    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch == "\n":
            emit(text[start:i], start)
            start = i + 1
        elif ch == "." and i + 1 < n and text[i + 1].isspace():
            emit(text[start : i + 1], start)
            start = i + 1
    emit(text[start:], start)
    return sentences


class EncodedSentence(NamedTuple):
    """One non-empty sentence as model input, without [CLS]/[SEP].

    ``doc`` indexes the document list; ``offset`` and ``length`` place the
    sentence in that document's text; ``tokens`` carries offsets relative to
    the sentence; ``ids`` are the vocabulary ids of ``tokens.pieces``.
    """

    doc: int
    offset: int
    length: int
    tokens: TokenizedText
    ids: list[int]


def encode_corpus(
    docs: Sequence[Document], vocab: Vocabulary
) -> Iterator[EncodedSentence]:
    """Split every document into sentences, tokenize them, and look up ids.

    Sentences are produced one at a time. Within one call each distinct
    sentence text is tokenized once, and its occurrences share that
    ``TokenizedText`` and ``ids`` list, which callers must not modify. So the
    memory held grows with the number of distinct sentences, not with the
    corpus; nothing outlives the call's iterator.
    """
    encoded: dict[str, tuple[TokenizedText, list[int]]] = {}
    for d, doc in enumerate(docs):
        for sent, off in split_sentences(doc.text):
            if sent not in encoded:
                tk = tokenize(sent, vocab)
                encoded[sent] = tk, [vocab.id_of(p) for p in tk.pieces]
            tk, ids = encoded[sent]
            if ids:
                yield EncodedSentence(d, off, len(sent), tk, ids)


@dataclass(frozen=True)
class LabelStats:
    total_mentions: int
    unique_forms: int


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_sentences: int
    n_tokens: int
    per_label: dict[EntityLabel, LabelStats]


def corpus_stats(corpus: Sequence[Document]) -> CorpusStats:
    """Count documents, sentences, word-level tokens, and entity mentions.

    Unique surface forms are computed on lowercased entity text.
    """
    n_sentences = 0
    n_tokens = 0
    totals: Counter[EntityLabel] = Counter()
    forms: dict[EntityLabel, set[str]] = {label: set() for label in LABELS}
    for doc in corpus:
        n_sentences += len(split_sentences(doc.text))
        n_tokens += len(basic_tokenize(doc.text))
        for span in doc.entities:
            totals[span.label] += 1
            forms[span.label].add(doc.span_text(span).lower())
    per_label = {
        label: LabelStats(totals[label], len(forms[label])) for label in LABELS
    }
    return CorpusStats(len(corpus), n_sentences, n_tokens, per_label)


def format_stats(stats: CorpusStats) -> str:
    lines = [
        f"documents\t{stats.n_documents}",
        f"sentences\t{stats.n_sentences}",
        f"tokens\t{stats.n_tokens}",
        "label\ttotal_mentions\tunique_forms",
    ]
    for label in LABELS:
        ls = stats.per_label[label]
        lines.append(f"{label.value}\t{ls.total_mentions}\t{ls.unique_forms}")
    return "\n".join(lines) + "\n"


def _align(
    ranges: Sequence[tuple[int, int]], entities: Sequence[EntitySpan]
) -> list[int]:
    """One tag id per word, given each word's (start, end) character range.

    An entity's first word gets its B- tag and its remaining words the I- tag;
    every other word gets O. An entity boundary falling strictly inside a word
    widens the span to the enclosing word(s); an entity that covers no word or
    overlaps an earlier one is skipped. Each repair logs a warning.
    """
    tags = [0] * len(ranges)  # TAGS[0] is O
    for span in sorted(entities, key=lambda s: (s.start_char, s.end_char)):
        words = [
            w for w, (ws, we) in enumerate(ranges)
            if ws < span.end_char and span.start_char < we
        ]
        if not words:
            logger.warning(
                "entity (%d, %d, %s) covers no token; skipped",
                span.start_char, span.end_char, span.label.value,
            )
            continue
        first, last = words[0], words[-1]
        if span.start_char > ranges[first][0] or span.end_char < ranges[last][1]:
            logger.warning(
                "entity (%d, %d, %s) splits a word; expanded to (%d, %d)",
                span.start_char, span.end_char, span.label.value,
                ranges[first][0], ranges[last][1],
            )
        if any(tags[w] for w in words):
            logger.warning(
                "entity (%d, %d, %s) overlaps an earlier entity; skipped",
                span.start_char, span.end_char, span.label.value,
            )
            continue
        tags[first] = TAG_TO_ID[f"B-{span.label.value}"]
        for w in words[1:]:
            tags[w] = TAG_TO_ID[f"I-{span.label.value}"]
    return tags


def encode_bio(tokenized: TokenizedText, entities: Sequence[EntitySpan]) -> list[int]:
    """Align entity spans to a tokenization as one BIO tag id per piece.

    Each word's first subword carries the word's tag (see ``_align``);
    continuation subwords get ``IGNORE_ID``.
    """
    word_tags = _align(list(tokenized.word_ranges().values()), entities)
    return [
        IGNORE_ID if cont else word_tags[w]
        for w, cont in zip(tokenized.word_index, tokenized.is_continuation)
    ]


def decode_bio(tag_ids: Sequence[int], tokenized: TokenizedText) -> list[EntitySpan]:
    """Turn one tag id per piece back into character spans.

    Maximal runs of B-X (I-X)* over word-initial positions become one span
    covering [start of first word, end of last word]. An orphan I-X (no open
    run of the same label) is repaired to B-X.
    """
    if len(tag_ids) != len(tokenized):
        raise ValidationError(
            f"tag count {len(tag_ids)} does not match piece count {len(tokenized)}"
        )
    ranges = tokenized.word_ranges()
    spans: list[EntitySpan] = []
    open_label: EntityLabel | None = None
    open_start = 0
    open_end = 0

    def close() -> None:
        nonlocal open_label
        if open_label is not None:
            spans.append(EntitySpan(open_start, open_end, open_label))
            open_label = None

    for t, w, cont in zip(tag_ids, tokenized.word_index, tokenized.is_continuation):
        if cont:
            continue
        ws, we = ranges[w]
        if t <= 0:  # O or IGNORE_ID
            close()
            continue
        label = LABELS[(t - 1) // 2]
        if t % 2 == 0 and open_label == label:  # I- continuing its own run
            open_end = we
        else:
            close()
            open_label, open_start, open_end = label, ws, we
    close()
    spans.sort()
    return spans


def token_labels(doc: Document) -> list[str]:
    """Word-level label (entity name or O) per token of the document."""
    tags = _align([(s, e) for _, s, e in basic_tokenize(doc.text)], doc.entities)
    return [LABELS[(t - 1) // 2].value if t else OUTSIDE_TAG for t in tags]


def cohen_kappa(labels_a: Sequence[str], labels_b: Sequence[str]) -> float:
    """Chance-corrected agreement between two annotators' label sequences.

    kappa = (p_o - p_e) / (1 - p_e); returns exactly 1.0 when both observed
    and expected agreement are 1 (two identical constant annotations).
    """
    if len(labels_a) != len(labels_b):
        raise ValidationError(
            f"label sequences differ in length: {len(labels_a)} vs {len(labels_b)}"
        )
    n = len(labels_a)
    if n == 0:
        raise ValidationError("cannot compute agreement on empty sequences")
    p_o = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_e = sum(count_a[c] * count_b.get(c, 0) for c in count_a) / (n * n)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def split_corpus(
    corpus: Sequence[Document], test_fraction: float, seed: int
) -> tuple[list[Document], list[Document]]:
    """Deterministic document-level split; |test| = round(fraction * n)."""
    if not corpus:
        raise ValidationError("cannot split an empty corpus")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    n = len(corpus)
    n_test = int(round(test_fraction * n))
    rng = random.Random(seed)
    test_idx = set(rng.sample(range(n), n_test))
    train = [doc for i, doc in enumerate(corpus) if i not in test_idx]
    test = [doc for i, doc in enumerate(corpus) if i in test_idx]
    return train, test
